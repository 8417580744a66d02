#include "rms/manager.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <variant>

#include "common/log.hpp"
#include "obs/events.hpp"

namespace roia::rms {

RmsManager::RmsManager(rtf::Cluster& cluster, std::vector<ZoneId> zones,
                       std::unique_ptr<Strategy> strategy, ResourcePool pool, RmsConfig config)
    : cluster_(cluster),
      zones_(std::move(zones)),
      strategy_(std::move(strategy)),
      pool_(std::move(pool)),
      config_(config),
      telemetry_(cluster.telemetry()) {
  if (telemetry_ != nullptr) traceTrack_ = telemetry_->tracer.track("rms");
  // The initial replicas of the managed zones were provisioned before the
  // manager exists; lease-account them so server-seconds cover the whole
  // session.
  for (const ZoneId zone : zones_) {
    for (const ServerId id : cluster_.zones().replicas(zone)) {
      if (auto lease = pool_.lease(config_.standardFlavor, cluster_.simulation().now())) {
        serverLease_[id] = *lease;
      }
    }
  }
}

RmsManager::~RmsManager() { stop(); }

void RmsManager::start() {
  if (runningFlag_) return;
  runningFlag_ = true;
  token_ = cluster_.simulation().schedulePeriodic(config_.controlPeriod,
                                                  [this](SimTime now) { return controlStep(now); });
}

void RmsManager::stop() {
  if (!runningFlag_) return;
  runningFlag_ = false;
  sim::Simulation::cancelPeriodic(token_);
}

bool RmsManager::controlStep(SimTime now) {
  if (!runningFlag_) return false;

  if (telemetry_ != nullptr) {
    telemetry_->tracer.beginSpan(traceTrack_, now, "control-period", "rms");
    // Refresh collector-health gauges on the management-plane cadence.
    if (auto* collector = cluster_.monitoringCollector()) {
      collector->publishMetrics();
    }
  }

  // Complete drains first so the views only contain live servers.
  finishDrains();

  // Aggregate timeline point across all managed zones (per-zone details are
  // always available via the cluster's monitoring).
  TimelinePoint point;
  point.timeSec = now.asSeconds();

  processPreemptions(now, point);
  detectAndRecover(now, point);

  WorldView world;
  world.now = now;

  for (const ZoneId zone : zones_) {
    ZoneView view;
    view.zone = zone;
    view.now = now;
    if (config_.useNetworkMonitoring && cluster_.monitoringCollector() != nullptr) {
      // Published snapshots; drop ghosts of servers that left meanwhile.
      view.servers = cluster_.monitoringCollector()->zoneSnapshots(zone);
      std::erase_if(view.servers, [this](const rtf::MonitoringSnapshot& s) {
        return !cluster_.hasServer(s.server);
      });
    } else {
      view.servers = cluster_.zoneMonitoring(zone);
    }
    for (const ServerId drainingServer : draining_) {
      if (cluster_.hasServer(drainingServer) &&
          cluster_.server(drainingServer).zone() == zone) {
        view.draining.push_back(drainingServer);
      }
    }
    view.pendingStarts = pendingStarts_[zone];
    view.npcs = config_.npcs;
    view.neighbors = cluster_.zones().neighbors(zone);
    for (const auto& s : view.servers) view.borderShadows += s.borderShadows;

    const Decision decision = strategy_->decide(view);
    if (telemetry_ != nullptr) auditZoneDecision(now, view, decision);
    executeZone(zone, decision);

    point.users += view.totalUsers();
    point.servers += view.replicaCount();
    point.pendingServers += pendingStarts_[zone];
    double cpuSum = 0.0;
    for (const auto& s : view.servers) {
      if (cluster_.hasServer(s.server)) {
        cpuSum += cluster_.server(s.server).cpuAccount().load();
      }
    }
    if (!view.servers.empty()) {
      // Weighted mean over all servers of all zones, folded incrementally.
      point.avgCpuLoad += cpuSum;
    }
    point.avgTickMs = std::max(point.avgTickMs, view.avgTickMs());
    point.maxTickMs = std::max(point.maxTickMs, view.maxTickMs());
    for (const UserMigration& order : decision.migrations()) {
      point.migrationsOrdered += order.count;
    }
    world.zones.push_back(std::move(view));
  }

  // Cross-zone balance pass of a sharded world: one decision over all
  // managed zones, after every zone had its per-zone turn.
  if (zones_.size() > 1) {
    const Decision decision = strategy_->balance(world);
    executeBalance(now, decision);
    for (const Action& action : decision.actions) {
      if (const auto* handoff = std::get_if<ZoneHandoff>(&action)) {
        point.handoffsOrdered += handoff->count;
      }
    }
  }

  if (point.servers > 0) {
    point.avgCpuLoad /= static_cast<double>(point.servers);
  }
  point.violation = point.maxTickMs > config_.upperTickMs;
  if (point.violation) ++violationPeriods_;
  timeline_.push_back(point);
  if (telemetry_ != nullptr) telemetry_->tracer.endSpan(traceTrack_, now);
  return true;
}

void RmsManager::auditZoneDecision(SimTime now, const ZoneView& view, const Decision& decision) {
  obs::AuditRecord record;
  record.at = now;
  record.zone = view.zone;
  record.strategy = strategy_->name();
  record.users = view.totalUsers();
  record.npcs = view.npcs;
  record.replicas = view.replicaCount();
  record.pendingStarts = view.pendingStarts;
  record.measuredAvgTickMs = view.avgTickMs();
  record.measuredP95TickMs = view.p95TickMs();
  record.measuredMaxTickMs = view.maxTickMs();
  record.predictedTickMs = decision.predictedTickMs;
  record.threshold = decision.threshold;
  record.action = decision.primaryActionName();
  for (const UserMigration& order : decision.migrations()) {
    record.migrationsOrdered += order.count;
  }
  for (const RejectedAction& rejected : decision.rejected) {
    record.rejected.push_back(rejected.action + ": " + rejected.reason);
  }
  record.rationale = decision.rationale;
  telemetry_->audit.record(std::move(record));
}

void RmsManager::processPreemptions(SimTime now, TimelinePoint& point) {
  auto* faults = cluster_.faultInjector();
  if (faults == nullptr && preemptionDeadline_.empty()) return;

  // Claim freshly due notices. For each victim: start draining immediately
  // and order a like-for-like replacement now, so the new capacity (after
  // its startup delay) is serving before the grace window closes.
  if (faults != nullptr) {
    for (const auto& preemption : faults->claimDuePreemptions(now)) {
      if (!cluster_.hasServer(preemption.server)) continue;
      const ZoneId zone = cluster_.server(preemption.server).zone();
      if (std::find(zones_.begin(), zones_.end(), zone) == zones_.end()) continue;
      if (preemptionDeadline_.contains(preemption.server)) continue;

      // The provider reclaims at notice + window, not at poll + window — a
      // slow control loop eats into the grace period, like real life.
      preemptionDeadline_[preemption.server] = preemption.notice + preemption.window;
      draining_.insert(preemption.server);
      ++gracefulDrains_;
      const std::uint64_t drainTrace = obs::drainTraceId(preemption.server.value, now.micros);
      drainTrace_[preemption.server] = drainTrace;
      if (telemetry_ != nullptr) {
        telemetry_->protocols.begin(obs::Protocol::kGracefulDrain, drainTrace, now);
      }

      std::size_t flavorIdx = config_.standardFlavor;
      if (auto leaseIt = serverLease_.find(preemption.server); leaseIt != serverLease_.end()) {
        if (const auto idx = pool_.leaseFlavor(leaseIt->second)) flavorIdx = *idx;
      }
      const bool replacement = beginReplicaStart(zone, flavorIdx, std::nullopt);

      logWarn("rms", "server ", preemption.server.value, " preempted, draining within ",
              preemption.window.asMillis(), "ms");
      if (telemetry_ != nullptr) {
        obs::AuditRecord audit;
        audit.at = now;
        audit.zone = zone;
        audit.strategy = strategy_->name();
        audit.users = cluster_.server(preemption.server).connectedUsers();
        audit.replicas = cluster_.zones().replicaCount(zone);
        audit.pendingStarts = pendingStarts_[zone];
        audit.threshold = "preemption:notice";
        audit.action = obs::AuditEvent::kGracefulDrain;
        audit.rationale = "server " + std::to_string(preemption.server.value) +
                          " preempted; window=" + std::to_string(preemption.window.asMillis()) +
                          "ms replacement=" + (replacement ? "ordered" : "pool-exhausted");
        telemetry_->audit.record(std::move(audit));
        telemetry_->tracer.instant(traceTrack_, now, "preemption-notice", "rms");
      }
    }
  }

  // Advance every in-flight drain: push users off the victim each period,
  // and enforce the deadline once it passes.
  for (auto it = preemptionDeadline_.begin(); it != preemptionDeadline_.end();) {
    const ServerId victim = it->first;
    if (!cluster_.hasServer(victim)) {
      // Already gone: drained clean via finishDrains, or crashed and was
      // recovered by the failure detector. Both paths end the drain
      // protocol themselves; just drop any leftover bookkeeping.
      drainTrace_.erase(victim);
      draining_.erase(victim);
      it = preemptionDeadline_.erase(it);
      continue;
    }
    const ZoneId zone = cluster_.server(victim).zone();

    if (now >= it->second) {
      // Deadline. A clean victim is removed like any finished drain; one
      // with users left is reclaimed under us — treat it as a crash so the
      // remaining clients are re-homed instead of lost.
      const std::size_t usersLeft = cluster_.server(victim).connectedUsers();
      if (auto leaseIt = serverLease_.find(victim); leaseIt != serverLease_.end()) {
        pool_.release(leaseIt->second, now);
        serverLease_.erase(leaseIt);
      }
      if (usersLeft == 0 && cluster_.zones().replicaCount(zone) > 1) {
        cluster_.removeServer(victim);
        ++replicasRemoved_;
        if (telemetry_ != nullptr) {
          if (const auto trace = drainTrace_.find(victim); trace != drainTrace_.end()) {
            telemetry_->protocols.end(obs::Protocol::kGracefulDrain, trace->second, now,
                                      obs::ProtocolOutcome::kCompleted);
          }
          obs::AuditRecord audit;
          audit.at = now;
          audit.zone = zone;
          audit.strategy = strategy_->name();
          audit.replicas = cluster_.zones().replicaCount(zone);
          audit.pendingStarts = pendingStarts_[zone];
          audit.threshold = "preemption:deadline";
          audit.action = obs::AuditEvent::kDrainComplete;
          audit.rationale =
              "server " + std::to_string(victim.value) + " drained clean before reclaim";
          telemetry_->audit.record(std::move(audit));
        }
      } else {
        ++drainFallbacks_;
        if (telemetry_ != nullptr) {
          if (const auto trace = drainTrace_.find(victim); trace != drainTrace_.end()) {
            telemetry_->protocols.end(obs::Protocol::kGracefulDrain, trace->second, now,
                                      obs::ProtocolOutcome::kDeadlineExpired);
          }
        }
        if (!cluster_.server(victim).crashed()) cluster_.crashServer(victim);
        const rtf::Cluster::RecoveryReport report = cluster_.recoverCrashedServer(victim);
        point.clientsRehomed += report.clientsRehomed;
        logWarn("rms", "preemption window expired on server ", victim.value, " with ",
                usersLeft, " users; crash-recovering");
        if (telemetry_ != nullptr) {
          obs::AuditRecord audit;
          audit.at = now;
          audit.zone = zone;
          audit.strategy = strategy_->name();
          audit.users = usersLeft;
          audit.replicas = cluster_.zones().replicaCount(zone);
          audit.pendingStarts = pendingStarts_[zone];
          audit.threshold = "preemption:deadline";
          audit.action = obs::AuditEvent::kRecoverCrash;
          audit.rationale = "preemption window expired; rehomed=" +
                            std::to_string(report.clientsRehomed) +
                            " promoted=" + std::to_string(report.shadowsPromoted) +
                            " lost=" + std::to_string(report.clientsLost);
          telemetry_->audit.record(std::move(audit));
          telemetry_->tracer.instant(traceTrack_, now, "preemption-fallback", "rms");
        }
      }
      drainTrace_.erase(victim);
      draining_.erase(victim);
      it = preemptionDeadline_.erase(it);
      continue;
    }

    // Within the window: order everyone off, spread over the live
    // non-draining replicas of the zone (lowest client ids first, like all
    // other migration orders; a null strategy would never move them).
    const std::vector<ClientId> candidates = cluster_.server(victim).clientIds(true);
    if (!candidates.empty()) {
      std::vector<ServerId> targets;
      for (const ServerId id : cluster_.zones().replicas(zone)) {
        if (id == victim || !cluster_.hasServer(id) || draining_.contains(id)) continue;
        targets.push_back(id);
      }
      std::sort(targets.begin(), targets.end(), [this](ServerId a, ServerId b) {
        const std::size_t ua = cluster_.server(a).connectedUsers();
        const std::size_t ub = cluster_.server(b).connectedUsers();
        return ua != ub ? ua < ub : a < b;
      });
      for (std::size_t i = 0; i < candidates.size() && !targets.empty(); ++i) {
        if (cluster_.migrateClient(candidates[i], targets[i % targets.size()])) {
          ++migrationsOrdered_;
          ++point.migrationsOrdered;
        }
      }
    }
    ++it;
  }
}

void RmsManager::detectAndRecover(SimTime now, TimelinePoint& point) {
  if (!config_.detectFailures) return;
  auto* collector = cluster_.monitoringCollector();
  if (collector == nullptr) return;

  for (const ServerId dead :
       collector->suspectDead(config_.heartbeatPeriod, config_.missedHeartbeats)) {
    if (!cluster_.hasServer(dead)) continue;  // ghost of an earlier recovery
    const ZoneId zone = cluster_.server(dead).zone();
    if (std::find(zones_.begin(), zones_.end(), zone) == zones_.end()) continue;

    logWarn("rms", "server ", dead.value, " declared dead (heartbeat silent), recovering");
    const std::uint64_t recoveryTrace = obs::recoveryTraceId(dead.value, now.micros);
    if (telemetry_ != nullptr) {
      // A drain interrupted by the crash ends here; recovery takes over.
      if (const auto trace = drainTrace_.find(dead); trace != drainTrace_.end()) {
        telemetry_->protocols.end(obs::Protocol::kGracefulDrain, trace->second, now,
                                  obs::ProtocolOutcome::kCrashed);
      }
      telemetry_->protocols.begin(obs::Protocol::kCrashRecovery, recoveryTrace, now);
    }
    drainTrace_.erase(dead);
    // The dead replica's flavor, for a like-for-like replacement.
    std::size_t flavorIdx = config_.standardFlavor;
    if (auto leaseIt = serverLease_.find(dead); leaseIt != serverLease_.end()) {
      if (const auto idx = pool_.leaseFlavor(leaseIt->second)) flavorIdx = *idx;
      // The machine died with the server on it: reclaim its lease.
      pool_.release(leaseIt->second, now);
      serverLease_.erase(leaseIt);
    }
    draining_.erase(dead);

    const rtf::Cluster::RecoveryReport report = cluster_.recoverCrashedServer(dead);
    if (telemetry_ != nullptr) {
      telemetry_->protocols.phase(obs::Protocol::kCrashRecovery, recoveryTrace, now, "rehome");
    }

    RecoveryRecord record;
    record.detectedAt = now;
    record.server = dead;
    record.zone = zone;
    record.clientsRehomed = report.clientsRehomed;
    record.shadowsPromoted = report.shadowsPromoted;
    record.clientsLost = report.clientsLost;
    record.npcsAdopted = report.npcsAdopted;
    // Restore the replica count the strategy last decided on. The recovery
    // protocol instance ends when the replacement starts serving (the trace
    // id rides into the startup callback); with no replacement it ends now.
    record.replacementOrdered = beginReplicaStart(zone, flavorIdx, std::nullopt, recoveryTrace);
    if (!record.replacementOrdered && telemetry_ != nullptr) {
      const auto e2eMs = telemetry_->protocols.end(obs::Protocol::kCrashRecovery, recoveryTrace,
                                                   now, obs::ProtocolOutcome::kCompleted);
      if (e2eMs) recordRecoveryLatency(zone, dead, *e2eMs, now);
    }
    recoveries_.push_back(record);

    if (telemetry_ != nullptr) {
      obs::AuditRecord audit;
      audit.at = now;
      audit.zone = zone;
      audit.strategy = strategy_->name();
      audit.replicas = cluster_.zones().replicaCount(zone);
      audit.pendingStarts = pendingStarts_[zone];
      audit.threshold = "detector:missed_heartbeats";
      audit.action = obs::AuditEvent::kRecoverCrash;
      audit.rationale = "server " + std::to_string(dead.value) +
                        " heartbeat-silent; rehomed=" + std::to_string(report.clientsRehomed) +
                        " promoted=" + std::to_string(report.shadowsPromoted) +
                        " lost=" + std::to_string(report.clientsLost);
      telemetry_->audit.record(std::move(audit));
      telemetry_->tracer.instant(traceTrack_, now, "crash-recovery", "rms");
    }

    ++point.crashesDetected;
    point.clientsRehomed += report.clientsRehomed;
  }
}

void RmsManager::executeZone(ZoneId zone, const Decision& decision) {
  for (const Action& action : decision.actions) {
    std::visit(
        [&](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          if constexpr (std::is_same_v<T, UserMigration>) {
            // Pick concrete users deterministically (lowest ids first) from
            // the source server.
            if (!cluster_.hasServer(a.from) || !cluster_.hasServer(a.to)) return;
            const std::vector<ClientId> candidates = cluster_.server(a.from).clientIds(true);
            const std::size_t count = std::min(a.count, candidates.size());
            for (std::size_t i = 0; i < count; ++i) {
              if (cluster_.migrateClient(candidates[i], a.to)) {
                ++migrationsOrdered_;
              }
            }
          } else if constexpr (std::is_same_v<T, ReplicationEnactment>) {
            beginReplicaStart(zone, config_.standardFlavor, std::nullopt);
          } else if constexpr (std::is_same_v<T, ResourceSubstitution>) {
            const ServerId victim = a.victim;
            if (cluster_.hasServer(victim) && !draining_.contains(victim)) {
              // Compare flavors in pool-relative units (the cluster template
              // may model a faster hardware generation as its baseline).
              double currentSpeed = 1.0;
              if (auto leaseIt = serverLease_.find(victim); leaseIt != serverLease_.end()) {
                if (const auto flavorIdx = pool_.leaseFlavor(leaseIt->second)) {
                  currentSpeed = pool_.flavor(*flavorIdx).speedFactor;
                }
              }
              if (const auto flavorIdx = pool_.strongerFlavor(currentSpeed)) {
                beginReplicaStart(zone, *flavorIdx, victim);
                ++substitutions_;
              }
            }
          } else if constexpr (std::is_same_v<T, ResourceRemoval>) {
            const ServerId victim = a.victim;
            if (cluster_.hasServer(victim) && !draining_.contains(victim) &&
                cluster_.zones().replicaCount(zone) > 1) {
              draining_.insert(victim);
            }
          } else if constexpr (std::is_same_v<T, ZoneHandoff>) {
            // Zone handoffs belong to the cross-zone balance pass; a
            // strategy emitting one from decide() is a bug, not a crash.
            logWarn("rms", "ZoneHandoff ignored in per-zone decision");
          }
        },
        action);
  }
}

void RmsManager::executeBalance(SimTime now, const Decision& decision) {
  std::size_t ordered = 0;
  ZoneId auditZone{};
  for (const Action& action : decision.actions) {
    const auto* handoff = std::get_if<ZoneHandoff>(&action);
    if (handoff == nullptr) continue;  // balance() only orders cross-zone moves
    if (!auditZone.valid()) auditZone = handoff->fromZone;

    // Source: the fullest live replica of the overloaded zone; users leave
    // lowest-id first, like same-zone migration orders.
    ServerId source{};
    std::size_t most = 0;
    for (const ServerId id : cluster_.zones().replicas(handoff->fromZone)) {
      if (!cluster_.hasServer(id)) continue;
      const std::size_t users = cluster_.server(id).connectedUsers();
      if (!source.valid() || users > most) {
        source = id;
        most = users;
      }
    }
    if (!source.valid()) continue;
    const std::vector<ClientId> candidates = cluster_.server(source).clientIds(true);
    const std::size_t count = std::min(handoff->count, candidates.size());
    for (std::size_t i = 0; i < count; ++i) {
      if (cluster_.travelClient(candidates[i], handoff->toZone)) {
        ++zoneHandoffsOrdered_;
        ++ordered;
      }
    }
  }

  if (telemetry_ != nullptr && (!decision.actions.empty() || !decision.rejected.empty())) {
    obs::AuditRecord record;
    record.at = now;
    record.zone = auditZone;
    record.strategy = strategy_->name();
    record.predictedTickMs = decision.predictedTickMs;
    record.threshold = decision.threshold;
    record.action = decision.primaryActionName();
    record.migrationsOrdered = ordered;
    for (const RejectedAction& rejected : decision.rejected) {
      record.rejected.push_back(rejected.action + ": " + rejected.reason);
    }
    record.rationale = decision.rationale;
    telemetry_->audit.record(std::move(record));
  }
}

bool RmsManager::beginReplicaStart(ZoneId zone, std::size_t flavorIdx,
                                   std::optional<ServerId> drainAfterStart,
                                   std::uint64_t recoveryTraceId) {
  const auto lease = pool_.lease(flavorIdx, cluster_.simulation().now());
  if (!lease) {
    logWarn("rms", "resource pool exhausted for flavor ", flavorIdx);
    return false;
  }
  ++pendingStarts_[zone];
  const double speed = pool_.flavor(flavorIdx).speedFactor;
  cluster_.simulation().scheduleAfter(
      config_.serverStartupDelay,
      [this, zone, speed, leaseId = *lease, drainAfterStart, recoveryTraceId]() {
        auto& pending = pendingStarts_[zone];
        if (pending > 0) --pending;
        if (!runningFlag_) {
          pool_.release(leaseId, cluster_.simulation().now());
          return;
        }
        const ServerId id = cluster_.addServer(zone, speed);
        serverLease_[id] = leaseId;
        ++replicasAdded_;
        if (recoveryTraceId != 0 && telemetry_ != nullptr) {
          const SimTime now = cluster_.simulation().now();
          telemetry_->protocols.phase(obs::Protocol::kCrashRecovery, recoveryTraceId, now,
                                      "replica_start");
          const auto e2eMs = telemetry_->protocols.end(
              obs::Protocol::kCrashRecovery, recoveryTraceId, now,
              obs::ProtocolOutcome::kCompleted);
          if (e2eMs) recordRecoveryLatency(zone, id, *e2eMs, now);
        }
        if (drainAfterStart && cluster_.hasServer(*drainAfterStart)) {
          draining_.insert(*drainAfterStart);
        }
      });
  return true;
}

void RmsManager::recordRecoveryLatency(ZoneId zone, ServerId server, double e2eMs, SimTime now) {
  if (telemetry_ == nullptr) return;
  const auto handle = telemetry_->slo.findHandle(obs::kSloRecoveryLatency);
  if (!handle) return;
  const auto breach =
      telemetry_->slo.record(*handle, "server-" + std::to_string(server.value), e2eMs, now);
  if (!breach) return;
  obs::AuditRecord audit;
  audit.at = now;
  audit.zone = zone;
  audit.strategy = "slo-engine";
  audit.replicas = cluster_.zones().replicaCount(zone);
  audit.threshold = "slo:" + breach->objective;
  audit.action = obs::AuditEvent::kSloBreach;
  char rationale[200];
  std::snprintf(rationale, sizeof(rationale),
                "objective '%s': value=%.3f short_burn=%.2f long_burn=%.2f",
                breach->objective.c_str(), breach->value, breach->shortBurn, breach->longBurn);
  audit.rationale = rationale;
  telemetry_->audit.record(std::move(audit));
}

void RmsManager::finishDrains() {
  for (auto it = draining_.begin(); it != draining_.end();) {
    const ServerId id = *it;
    if (!cluster_.hasServer(id)) {
      it = draining_.erase(it);
      continue;
    }
    const ZoneId zone = cluster_.server(id).zone();
    if (cluster_.server(id).connectedUsers() == 0 && cluster_.zones().replicaCount(zone) > 1) {
      cluster_.removeServer(id);
      ++replicasRemoved_;
      if (const auto trace = drainTrace_.find(id); trace != drainTrace_.end()) {
        if (telemetry_ != nullptr) {
          telemetry_->protocols.end(obs::Protocol::kGracefulDrain, trace->second,
                                    cluster_.simulation().now(),
                                    obs::ProtocolOutcome::kCompleted);
        }
        drainTrace_.erase(trace);
      }
      if (auto leaseIt = serverLease_.find(id); leaseIt != serverLease_.end()) {
        pool_.release(leaseIt->second, cluster_.simulation().now());
        serverLease_.erase(leaseIt);
      }
      it = draining_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace roia::rms
