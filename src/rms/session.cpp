#include "rms/session.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"
#include "rms/baseline_strategies.hpp"
#include "rms/model_strategy.hpp"

namespace roia::rms {

StrategyFactory makeModelDrivenFactory() {
  return [](const ManagedSessionConfig& config, const model::TickModel& tickModel) {
    return std::make_unique<ModelDrivenStrategy>(tickModel, config.modelStrategy);
  };
}

StrategyFactory makeStaticIntervalFactory() {
  return [](const ManagedSessionConfig& config, const model::TickModel&) {
    StaticStrategyConfig staticConfig;
    staticConfig.upperTickMs = config.modelStrategy.upperTickMs;
    return std::make_unique<StaticIntervalStrategy>(staticConfig);
  };
}

StrategyFactory makeUnthrottledFactory() {
  return [](const ManagedSessionConfig& config, const model::TickModel& tickModel) {
    return std::make_unique<UnthrottledMigrationStrategy>(
        tickModel, config.modelStrategy.upperTickMs, config.modelStrategy.improvementFactorC,
        config.modelStrategy.triggerFraction, config.modelStrategy.npcs);
  };
}

SessionSummary runManagedSession(const ManagedSessionConfig& config,
                                 const model::TickModel& tickModel) {
  game::FpsApplication app(config.fps);
  rtf::Cluster cluster(app, rtf::ClusterConfig{config.server, rtf::ClientEndpoint::Config{},
                                               config.seed, config.telemetry});
  const ZoneId zone =
      cluster.createZone("arena", config.fps.arenaOrigin, config.fps.arenaExtent);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config.initialReplicas); ++i) {
    cluster.addServer(zone);
  }

  RmsConfig rmsConfig = config.rms;
  rmsConfig.upperTickMs = config.modelStrategy.upperTickMs;
  rmsConfig.npcs = config.modelStrategy.npcs;
  // The detector's notion of "missed a beat" must match what servers send.
  rmsConfig.heartbeatPeriod = config.server.heartbeatPeriod;
  if (rmsConfig.useNetworkMonitoring || rmsConfig.detectFailures) {
    cluster.attachMonitoringCollector();
  }

  std::uint64_t crashesInjected = 0;
  if (config.faults) {
    const SessionFaultPlan& plan = *config.faults;
    net::FaultInjector& injector = cluster.enableFaultInjection(
        plan.faultSeed != 0 ? plan.faultSeed : config.seed ^ 0xC4A05ULL);
    injector.setDefaultFaults(plan.link);
    if (plan.crashAt) {
      cluster.simulation().scheduleAfter(*plan.crashAt, [&cluster, &crashesInjected, zone] {
        // Kill the most-loaded replica — the worst case for recovery. With a
        // single replica the whole zone would vanish; skip then.
        const std::vector<ServerId> replicas = cluster.zones().replicas(zone);
        if (replicas.size() < 2) {
          logWarn("rms.session", "crash skipped: zone has a lone replica");
          return;
        }
        ServerId victim = replicas.front();
        std::size_t most = 0;
        for (const ServerId id : replicas) {
          const std::size_t users = cluster.server(id).connectedUsers();
          if (users > most) {
            most = users;
            victim = id;
          }
        }
        cluster.crashServer(victim);
        ++crashesInjected;
      });
    }
  }

  std::unique_ptr<Strategy> strategy = config.strategyFactory(config, tickModel);
  const std::string policy = strategy->name();
  RmsManager manager(cluster, zone, std::move(strategy), ResourcePool{}, rmsConfig);

  game::ChurnDriver::Config churnConfig;
  churnConfig.bots = config.bots;
  churnConfig.seed = config.seed ^ 0xC0DE;
  game::ChurnDriver churn(cluster, zone, config.scenario, churnConfig);

  // Client-side QoE sampler: periodically read the update rates players
  // actually observe.
  StatAccumulator qoeRates;
  double qoeMinRate = std::numeric_limits<double>::infinity();
  double qoeWorstGap = 0.0;
  auto qoeToken = cluster.simulation().schedulePeriodic(
      config.rms.controlPeriod, [&](SimTime) {
        for (const ClientId id : cluster.clientIds()) {
          const rtf::ClientEndpoint& endpoint = cluster.client(id);
          // Skip freshly joined clients without a meaningful rate yet.
          if (endpoint.updatesReceived() < 25) continue;
          const double rate = endpoint.updateRateHz();
          if (rate <= 0.0) continue;
          qoeRates.add(rate);
          qoeMinRate = std::min(qoeMinRate, rate);
          qoeWorstGap = std::max(qoeWorstGap, endpoint.worstUpdateGapMs());
        }
        return true;
      });

  manager.start();
  churn.start();
  cluster.run(config.scenario.totalDuration() + config.tail);
  churn.stop();
  manager.stop();
  sim::Simulation::cancelPeriodic(qoeToken);

  SessionSummary summary;
  summary.policy = policy;
  summary.timeline = manager.timeline();
  for (const TimelinePoint& p : summary.timeline) {
    summary.peakUsers = std::max(summary.peakUsers, p.users);
    summary.peakServers = std::max(summary.peakServers, p.servers);
    summary.maxTickMs = std::max(summary.maxTickMs, p.maxTickMs);
  }
  summary.violationPeriods = manager.violationPeriods();
  summary.violationFraction =
      summary.timeline.empty()
          ? 0.0
          : static_cast<double>(summary.violationPeriods) /
                static_cast<double>(summary.timeline.size());
  summary.migrations = manager.migrationsOrderedTotal();
  summary.replicasAdded = manager.replicasAdded();
  summary.replicasRemoved = manager.replicasRemoved();
  summary.substitutions = manager.substitutions();
  summary.serverSeconds = manager.pool().serverSeconds(cluster.simulation().now());
  summary.resourceCost = manager.pool().totalCost(cluster.simulation().now());
  summary.clientUpdateRateAvgHz = qoeRates.mean();
  summary.clientUpdateRateMinHz = qoeRates.empty() ? 0.0 : qoeMinRate;
  summary.clientWorstGapMs = qoeWorstGap;
  summary.crashesInjected = crashesInjected;
  summary.crashesDetected = manager.crashesDetected();
  summary.recoveries = manager.recoveries();
  for (const RecoveryRecord& r : summary.recoveries) {
    summary.clientsRehomed += r.clientsRehomed;
    summary.clientsLost += r.clientsLost;
  }
  return summary;
}

}  // namespace roia::rms
