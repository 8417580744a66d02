// The closed vocabulary of audit events: every AuditRecord::action is one
// AuditEvent, so an event that is not listed here does not compile. The
// names below are the audit.jsonl contract: downstream tooling
// (health_report.py, dashboards, CI checks) switches on them, and
// AuditLogTest.EveryEventKeepsItsJsonlName pins each one.
#pragma once

#include <cstdint>

namespace roia::obs {

enum class AuditEvent : std::uint8_t {
  // RMS strategy actions (Eq.2/3/5 driven decisions).
  kNone,
  kAddReplica,
  kSubstituteServer,
  kRemoveServer,
  kMigrateOnly,
  kZoneHandoff,
  // Crash detection / preemption lifecycle.
  kRecoverCrash,
  kGracefulDrain,
  kDrainComplete,
  // Cluster-edge admission control.
  kAdmissionThrottle,
  // Per-server overload (degradation ladder).
  kDegradeFidelity,
  kShedObservers,
  kReadmitObservers,
  // SLO engine and model-drift monitor.
  kSloBreach,
  kModelDrift,
};

/// The event's audit.jsonl name. No `default:` label, so -Wswitch names an
/// event added without one.
[[nodiscard]] constexpr const char* auditEventName(AuditEvent event) {
  switch (event) {
    case AuditEvent::kNone: return "none";
    case AuditEvent::kAddReplica: return "add_replica";
    case AuditEvent::kSubstituteServer: return "substitute_server";
    case AuditEvent::kRemoveServer: return "remove_server";
    case AuditEvent::kMigrateOnly: return "migrate_only";
    case AuditEvent::kZoneHandoff: return "zone_handoff";
    case AuditEvent::kRecoverCrash: return "recover_crash";
    case AuditEvent::kGracefulDrain: return "graceful_drain";
    case AuditEvent::kDrainComplete: return "drain_complete";
    case AuditEvent::kAdmissionThrottle: return "admission_throttle";
    case AuditEvent::kDegradeFidelity: return "degrade_fidelity";
    case AuditEvent::kShedObservers: return "shed_observers";
    case AuditEvent::kReadmitObservers: return "readmit_observers";
    case AuditEvent::kSloBreach: return "slo_breach";
    case AuditEvent::kModelDrift: return "model_drift";
  }
  return "?";
}

}  // namespace roia::obs
