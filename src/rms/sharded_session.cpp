#include "rms/sharded_session.hpp"

#include <algorithm>
#include <memory>

#include "game/bots.hpp"
#include "rtf/cluster.hpp"

namespace roia::rms {

ShardedSessionSummary runShardedSession(const ShardedSessionConfig& config) {
  // The application's arena is the whole multi-zone world: bots roam across
  // zone borders, which is what exercises the handoff protocol.
  game::FpsConfig fps = config.fps;
  fps.arenaOrigin = config.worldOrigin;
  fps.arenaExtent = Vec2{config.zoneExtent.x * static_cast<double>(config.gridCols),
                         config.zoneExtent.y * static_cast<double>(config.gridRows)};
  game::FpsApplication app(fps);

  rtf::ServerConfig serverConfig = config.server;
  serverConfig.borderWidth = config.borderWidth;
  rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, rtf::ClientEndpoint::Config{},
                                               config.seed, config.telemetry});

  const std::vector<ZoneId> zones = cluster.createZoneGrid(
      config.worldOrigin, fps.arenaExtent, config.gridCols, config.gridRows);
  for (const ZoneId zone : zones) {
    for (std::size_t i = 0; i < std::max<std::size_t>(1, config.replicasPerZone); ++i) {
      cluster.addServer(zone);
    }
    if (config.npcsPerZone > 0) cluster.spawnNpcs(zone, config.npcsPerZone);
  }

  net::FaultInjector* injector = nullptr;
  if (config.linkFaults) {
    injector = &cluster.enableFaultInjection(config.seed ^ 0x5A4DULL);
    injector->setDefaultFaults(*config.linkFaults);
  }

  // Population: spread joins round-robin over the zones (each join lands on
  // the zone's least-populated replica).
  for (std::size_t i = 0; i < config.users; ++i) {
    cluster.connectClient(zones[i % zones.size()],
                          std::make_unique<game::BotProvider>(config.bots));
  }

  cluster.run(config.warmup);

  // Steady-state measurement: sample every zone's monitoring window on a
  // fixed cadence and keep the worst-replica stats.
  ShardedSessionSummary summary;
  auto sampleToken = cluster.simulation().schedulePeriodic(
      SimDuration::milliseconds(500), [&](SimTime) {
        for (const ZoneId zone : zones) {
          for (const rtf::MonitoringSnapshot& s : cluster.zoneMonitoring(zone)) {
            summary.steadyAvgTickMs = std::max(summary.steadyAvgTickMs, s.tickAvgMs);
            summary.steadyP95TickMs = std::max(summary.steadyP95TickMs, s.tickP95Ms);
            summary.steadyMaxTickMs = std::max(summary.steadyMaxTickMs, s.tickMaxMs);
          }
        }
        return true;
      });
  cluster.run(config.duration);
  sim::Simulation::cancelPeriodic(sampleToken);

  // Settle: lift link faults and let in-flight handoffs complete, so the
  // conservation audit below sees a quiescent control plane.
  if (injector != nullptr) injector->setDefaultFaults(net::FaultParams{});
  cluster.run(SimDuration::seconds(2));

  summary.zones = zones.size();
  summary.servers = cluster.serverCount();
  summary.users = cluster.clientCount();
  for (const ServerId id : cluster.serverIds()) {
    const rtf::Server& server = cluster.server(id);
    summary.handoffsInitiated += server.handoffsInitiated();
    summary.handoffsReceived += server.handoffsReceived();
    summary.borderShadows += server.monitoring().borderShadows;
  }

  // Bots keep roaming during the settle window, so a handoff can be freshly
  // in flight at the audit instant; the audit counts it as the client's one
  // logical copy.
  const rtf::Cluster::ConservationAudit audit = cluster.auditConservation();
  summary.missingAvatars = audit.missingAvatars;
  summary.duplicateAvatars = audit.duplicateAvatars;
  return summary;
}

}  // namespace roia::rms
