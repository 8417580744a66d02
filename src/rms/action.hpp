// Typed RMS actions: everything a load-balancing strategy can order the
// management plane to do, as one closed variant. actionName() gives each
// action's audit event (obs/events.hpp).
#pragma once

#include <cstddef>
#include <variant>

#include "common/types.hpp"
#include "obs/events.hpp"

namespace roia::rms {

/// Move `count` users from one replica to another (same zone).
struct UserMigration {
  ServerId from;
  ServerId to;
  std::size_t count{0};
};

/// Lease a standard resource and add a replica to the zone under decision.
struct ReplicationEnactment {};

/// Replace `victim` by a more powerful flavor (drain after the stand-in
/// serves).
struct ResourceSubstitution {
  ServerId victim;
};

/// Drain and shut down `victim`.
struct ResourceRemoval {
  ServerId victim;
};

/// Cross-zone load balancing: hand `count` users over from the fullest
/// replica of `fromZone` to `toZone` via the zone-handoff protocol.
struct ZoneHandoff {
  ZoneId fromZone;
  ZoneId toZone;
  std::size_t count{0};
};

using Action = std::variant<UserMigration, ReplicationEnactment, ResourceSubstitution,
                            ResourceRemoval, ZoneHandoff>;

[[nodiscard]] inline obs::AuditEvent actionName(const Action& action) {
  using obs::AuditEvent;
  struct Namer {
    AuditEvent operator()(const UserMigration&) const { return AuditEvent::kMigrateOnly; }
    AuditEvent operator()(const ReplicationEnactment&) const { return AuditEvent::kAddReplica; }
    AuditEvent operator()(const ResourceSubstitution&) const {
      return AuditEvent::kSubstituteServer;
    }
    AuditEvent operator()(const ResourceRemoval&) const { return AuditEvent::kRemoveServer; }
    AuditEvent operator()(const ZoneHandoff&) const { return AuditEvent::kZoneHandoff; }
  };
  return std::visit(Namer{}, action);
}

}  // namespace roia::rms
