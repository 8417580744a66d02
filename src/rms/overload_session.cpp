#include "rms/overload_session.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "game/interest.hpp"
#include "rms/manager.hpp"
#include "rtf/cluster.hpp"
#include "rtf/overload.hpp"

namespace roia::rms {

namespace {

/// The overload harness pins the replica count: survival is the servers'
/// (ladder) and the cluster edge's (admission) job, not elastic scaling.
/// The RMS still runs for its preemption graceful-drain duty.
class HoldStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string name() const override { return "hold"; }
  Decision decide(const ZoneView&) override { return {}; }
};

}  // namespace

OverloadSessionSummary runOverloadSession(const OverloadSessionConfig& config) {
  game::FpsConfig fps = config.fps;
  fps.arenaOrigin = Vec2{0.0, 0.0};
  fps.arenaExtent = config.zoneExtent;
  game::FpsApplication app(fps);
  // Grid interest under the fidelity wrapper: narrowing the AOI radius then
  // actually visits fewer cells, so stepping down the ladder cuts real AOI
  // cost (the Euclidean scan tests every entity regardless of radius). The
  // scale sits at 1.0 until a server's ladder moves, so ladder-off runs pay
  // nothing for the wrapper.
  app.setInterestPolicy(std::make_unique<game::FidelityScaledInterest>(
      std::make_unique<game::GridInterest>(fps.aoiRadius)));

  rtf::ServerConfig serverConfig = config.server;
  serverConfig.overload.enabled = config.ladder;
  serverConfig.overload.budgetMs = config.budgetMs;
  rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, rtf::ClientEndpoint::Config{},
                                               config.seed, config.telemetry});

  const ZoneId zone = cluster.createZone("overload", Vec2{0.0, 0.0}, config.zoneExtent);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config.replicas); ++i) {
    cluster.addServer(zone);
  }
  if (config.npcs > 0) cluster.spawnNpcs(zone, config.npcs);

  net::FaultInjector* injector = nullptr;
  if (config.linkFaults || !config.preemptions.empty()) {
    injector = &cluster.enableFaultInjection(config.seed ^ 0x0ddfa17ULL);
    if (config.linkFaults) injector->setDefaultFaults(*config.linkFaults);
  }

  if (config.model) {
    // Eq. 4 per-server predictor: this replica's active entities against the
    // whole population it mirrors, plus its own NPC share (l = 1 because m
    // is already the per-server count).
    cluster.setTickPredictor(
        [model = *config.model](std::size_t activeUsers, std::size_t totalAvatars,
                                std::size_t npcs) {
          return model.tickMillis(1.0, static_cast<double>(totalAvatars),
                                  static_cast<double>(npcs), static_cast<double>(activeUsers));
        });
  }

  if (config.admission) {
    cluster.setAdmissionGate([&cluster, zone, model = config.model, budget = config.budgetMs,
                              cap = config.maxUsersPerServer](const rtf::Server& target,
                                                              std::string& reason) {
      if (target.overloadLevel() >= rtf::kShedLevel) {
        reason = "ladder at shed level " + std::to_string(target.overloadLevel());
        return false;
      }
      if (cap > 0 && target.connectedUsers() >= cap) {
        reason = "server at cap " + std::to_string(cap);
        return false;
      }
      if (model) {
        const std::size_t replicas = cluster.zones().replicas(zone).size();
        const std::size_t n = cluster.zoneUserCount(zone);
        const double predicted = model->tickMillis(static_cast<double>(replicas),
                                                   static_cast<double>(n + 1), 0.0);
        if (predicted > budget) {
          char buffer[96];
          std::snprintf(buffer, sizeof(buffer), "eq2: T(%zu,%zu,0)=%.2fms > U=%.2fms", replicas,
                        n + 1, predicted, budget);
          reason = buffer;
          return false;
        }
      }
      return true;
    });
  }

  // The RMS holds the replica count but owns preemption drains.
  RmsConfig rmsConfig;
  rmsConfig.controlPeriod = SimDuration::milliseconds(500);
  rmsConfig.upperTickMs = config.budgetMs;
  RmsManager manager(cluster, zone, std::make_unique<HoldStrategy>(), ResourcePool{}, rmsConfig);
  manager.start();

  OverloadSessionSummary summary;

  // Preemption storm: each plan fires at its notice time and picks the
  // busiest live replica not already under notice — the worst possible
  // victim, decided against the actual population at that moment.
  std::set<ServerId> preempted;
  for (const OverloadSessionConfig::PreemptionPlan& plan : config.preemptions) {
    cluster.simulation().scheduleAfter(plan.notice, [&cluster, &preempted, &summary, injector,
                                                     window = plan.window] {
      ServerId victim{};
      std::size_t most = 0;
      for (const ServerId id : cluster.serverIds()) {
        if (preempted.contains(id) || cluster.server(id).crashed()) continue;
        const std::size_t users = cluster.server(id).connectedUsers();
        if (!victim.valid() || users > most) {
          victim = id;
          most = users;
        }
      }
      if (!victim.valid() || injector == nullptr) return;
      preempted.insert(victim);
      injector->schedulePreemption(victim, cluster.simulation().now(), window);
      ++summary.preemptionsInjected;
    });
  }

  game::ChurnDriver churn(cluster, zone, config.scenario, config.churn);
  churn.start();

  const double budget = config.budgetMs;
  auto sampleToken = cluster.simulation().schedulePeriodic(
      config.samplePeriod, [&](SimTime now) {
        OverloadSample sample;
        sample.timeSec = now.asSeconds();
        sample.users = cluster.clientCount();
        summary.peakUsers = std::max(summary.peakUsers, sample.users);
        for (const ServerId id : cluster.serverIds()) {
          const rtf::Server& server = cluster.server(id);
          if (server.crashed()) continue;
          ++sample.servers;
          sample.maxLevel = std::max(sample.maxLevel, server.overloadLevel());
          sample.shedObservers += server.shedObservers();
        }
        for (const rtf::MonitoringSnapshot& s : cluster.zoneMonitoring(zone)) {
          sample.worstP95TickMs = std::max(sample.worstP95TickMs, s.tickP95Ms);
          sample.worstMaxTickMs = std::max(sample.worstMaxTickMs, s.tickMaxMs);
        }
        sample.deadlineMiss = sample.worstP95TickMs > budget;
        if (sample.deadlineMiss) ++summary.deadlineMissPeriods;
        summary.maxDegradationLevel = std::max(summary.maxDegradationLevel, sample.maxLevel);
        summary.timeline.push_back(sample);
        return true;
      });

  cluster.run(config.scenario.totalDuration());
  churn.stop();

  // Settle: lift link faults and let drains/migrations finish before the
  // audit (the RMS keeps running so in-flight preemption windows resolve).
  if (injector != nullptr) injector->setDefaultFaults(net::FaultParams{});
  cluster.run(config.settle);
  sim::Simulation::cancelPeriodic(sampleToken);
  manager.stop();

  summary.samples = summary.timeline.size();
  summary.users = cluster.clientCount();
  summary.servers = cluster.serverCount();
  for (const ServerId id : cluster.serverIds()) {
    const rtf::Server& server = cluster.server(id);
    summary.stepDowns += server.overloadStepDowns();
    summary.stepUps += server.overloadStepUps();
    summary.shedEvents += server.shedEvents();
    summary.readmitEvents += server.readmitEvents();
  }
  summary.admissionVetoes = cluster.admissionVetoes();
  summary.joinsVetoed = churn.totalVetoedJoins();
  summary.joinRetries = churn.totalJoinRetries();
  summary.totalJoins = churn.totalJoins();
  summary.gracefulDrains = manager.gracefulDrains();
  summary.drainFallbacks = manager.drainFallbacks();
  summary.migrationsOrdered = manager.migrationsOrderedTotal();

  const rtf::Cluster::ConservationAudit audit = cluster.auditConservation();
  summary.missingAvatars = audit.missingAvatars;
  summary.duplicateAvatars = audit.duplicateAvatars;
  return summary;
}

}  // namespace roia::rms
