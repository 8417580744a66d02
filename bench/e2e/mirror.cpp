#include "mirror.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "game/fps_app.hpp"
#include "game/interest.hpp"
#include "rms/manager.hpp"
#include "rtf/cluster.hpp"
#include "rtf/overload.hpp"

namespace roia::e2e {
namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Splits the host time inside Cluster::run into tick spans and the gaps
/// between them. A server's tick is one synchronous event, so spans never
/// nest; the clock counts any tick that breaks that as unspanned.
class TickClock {
 public:
  explicit TickClock(LayerTrace& trace) : trace_(trace) {}
  TickClock(const TickClock&) = delete;
  TickClock& operator=(const TickClock&) = delete;

  /// Runs `cluster.run(duration)` as the library runners do, and times it.
  void run(rtf::Cluster& cluster, SimDuration duration) {
    mark_ = nowNs();
    cluster.run(duration);
    close(nowNs());
  }

  void tickBegin() {
    const std::int64_t now = nowNs();
    close(now);
    inTick_ = true;
    mark_ = now;
  }

  void tickEnd() {
    const std::int64_t now = nowNs();
    if (inTick_) trace_.tickNs.push_back(now - mark_);
    else ++trace_.unspannedTicks;
    inTick_ = false;
    mark_ = now;
  }

  /// Counts a timed call made on the side of a tick boundary it does not
  /// belong to.
  void expect(bool insideTick) {
    if (inTick_ != insideTick) ++trace_.misplacedCalls;
  }

 private:
  /// Ends the interval since the last mark: a gap, or a tick nobody closed.
  void close(std::int64_t now) {
    if (inTick_) ++trace_.unspannedTicks;
    else trace_.gapNs += now - mark_;
    inTick_ = false;
  }

  LayerTrace& trace_;
  std::int64_t mark_{0};
  bool inTick_{false};
};

/// Adds the host time of its own lifetime, and one call, to a span, and
/// checks the call sits on the expected side of a tick boundary.
class Timed {
 public:
  Timed(Span& span, TickClock& clock, bool insideTick) : span_(span), start_(nowNs()) {
    clock.expect(insideTick);
  }
  ~Timed() {
    span_.ns += nowNs() - start_;
    ++span_.calls;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span& span_;
  std::int64_t start_;
};

/// Forwards every call to the real application and times it. onTickBegin
/// also opens the tick span and points the ticking server's probe listener
/// at tickEnd, so replicas the RMS adds mid-run are spanned from their
/// first tick.
class TimedApplication final : public rtf::Application {
 public:
  TimedApplication(rtf::Application& inner, LayerTrace& trace, TickClock& clock)
      : inner_(inner), trace_(trace), clock_(clock) {}
  TimedApplication(const TimedApplication&) = delete;
  TimedApplication& operator=(const TimedApplication&) = delete;

  /// The cluster this application serves; set before it runs.
  void attach(rtf::Cluster& cluster) { cluster_ = &cluster; }

  void onTickBegin(rtf::World& world, rtf::CostMeter& meter) override {
    clock_.tickBegin();
    hook(world);
    Timed timed(span(GameCall::kTickBegin), clock_, true);
    inner_.onTickBegin(world, meter);
  }

  void applyUserInput(rtf::World& world, rtf::EntityRef avatar,
                      std::span<const std::uint8_t> commands, rtf::CostMeter& meter,
                      rtf::ForwardSink& forward, Rng& rng) override {
    Timed timed(span(GameCall::kUa), clock_, true);
    inner_.applyUserInput(world, avatar, commands, meter, forward, rng);
  }

  void applyForwardedInteraction(rtf::World& world, rtf::EntityRef target, EntityId source,
                                 std::span<const std::uint8_t> payload, rtf::CostMeter& meter,
                                 rtf::ForwardSink& forward) override {
    Timed timed(span(GameCall::kFa), clock_, true);
    inner_.applyForwardedInteraction(world, target, source, payload, meter, forward);
  }

  void onShadowUpdated(rtf::World& world, rtf::EntityRef shadow, rtf::CostMeter& meter) override {
    Timed timed(span(GameCall::kShadow), clock_, true);
    inner_.onShadowUpdated(world, shadow, meter);
  }

  void updateNpc(rtf::World& world, rtf::EntityRef npc, rtf::CostMeter& meter, Rng& rng) override {
    Timed timed(span(GameCall::kNpc), clock_, true);
    inner_.updateNpc(world, npc, meter, rng);
  }

  void computeAreaOfInterest(const rtf::World& world, rtf::ConstEntityRef viewer,
                             rtf::CostMeter& meter, std::vector<std::uint32_t>& out) override {
    {
      Timed timed(span(GameCall::kAoi), clock_, true);
      inner_.computeAreaOfInterest(world, viewer, meter, out);
    }
    trace_.aoiVisible += out.size();
  }

  void buildStateUpdate(const rtf::World& world, rtf::ConstEntityRef viewer,
                        std::span<const std::uint32_t> visible, rtf::CostMeter& meter,
                        std::vector<std::uint8_t>& out) override {
    Timed timed(span(GameCall::kSuBuild), clock_, true);
    inner_.buildStateUpdate(world, viewer, visible, meter, out);
  }

  std::vector<std::uint8_t> exportUserState(rtf::ConstEntityRef avatar,
                                            rtf::CostMeter& meter) override {
    Timed timed(span(GameCall::kMig), clock_, true);
    return inner_.exportUserState(avatar, meter);
  }

  void importUserState(rtf::EntityRef avatar, std::span<const std::uint8_t> state,
                       rtf::CostMeter& meter) override {
    Timed timed(span(GameCall::kMig), clock_, true);
    inner_.importUserState(avatar, state, meter);
  }

 private:
  Span& span(GameCall call) { return trace_.game[static_cast<std::size_t>(call)]; }

  /// Closes the ticking server's span at its probe listener. If no server
  /// owns `world`, the tick stays open and the clock counts it unspanned.
  void hook(const rtf::World& world) {
    for (const ServerId id : cluster_->serverIds()) {
      rtf::Server& server = cluster_->server(id);
      if (&server.world() != &world) continue;
      server.setProbeListener([this](const rtf::Server&, const rtf::TickProbes& probes) {
        clock_.tickEnd();
        trace_.migrations += probes.migrationsInitiated;
        trace_.queuePeak = std::max(trace_.queuePeak, cluster_->simulation().pendingEvents());
      });
      return;
    }
  }

  rtf::Application& inner_;
  LayerTrace& trace_;
  TickClock& clock_;
  rtf::Cluster* cluster_{nullptr};
};

/// Times every strategy call (per-zone decide and cross-zone balance).
class TimedStrategy final : public rms::Strategy {
 public:
  TimedStrategy(std::unique_ptr<rms::Strategy> inner, Span& span, TickClock& clock)
      : inner_(std::move(inner)), span_(span), clock_(clock) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  rms::Decision decide(const rms::ZoneView& view) override {
    Timed timed(span_, clock_, false);
    return inner_->decide(view);
  }
  rms::Decision balance(const rms::WorldView& world) override {
    Timed timed(span_, clock_, false);
    return inner_->balance(world);
  }

 private:
  std::unique_ptr<rms::Strategy> inner_;
  Span& span_;
  TickClock& clock_;
};

/// The overload runner's replica-holding strategy (private to
/// src/rms/overload_session.cpp, so copied here).
class HoldStrategy final : public rms::Strategy {
 public:
  [[nodiscard]] std::string name() const override { return "hold"; }
  rms::Decision decide(const rms::ZoneView&) override { return {}; }
};

/// Reads the public counters of the cluster at session end.
void collectCounters(rtf::Cluster& cluster, LayerTrace& trace) {
  trace.events = cluster.simulation().executedEvents();
  const net::Network& network = cluster.network();
  trace.frames = network.totals().messages;
  trace.bytes = network.totals().bytes;
  for (std::size_t i = 0; i < network.nodeCount(); ++i) {
    trace.ingressBytes += network.nodeIngress(NodeId{i}).bytes;
    trace.egressBytes += network.nodeEgress(NodeId{i}).bytes;
  }
  if (const net::FaultInjector* faults = cluster.faultInjector()) {
    trace.framesDropped = faults->stats().framesDropped;
    trace.framesDuplicated = faults->stats().framesDuplicated;
  }
  for (const ServerId id : cluster.serverIds()) {
    trace.handoffs += cluster.server(id).handoffsInitiated();
  }
  trace.admissionVetoes = cluster.admissionVetoes();
}

void collectCounters(const rms::RmsManager& manager, LayerTrace& trace) {
  trace.migrationsOrdered = manager.migrationsOrderedTotal();
  trace.replicasAdded = manager.replicasAdded();
  trace.drains = manager.gracefulDrains();
}

/// Conservation audit, copied from the sharded and overload runners.
void audit(rtf::Cluster& cluster, std::size_t& missing, std::size_t& duplicates) {
  for (const ClientId client : cluster.clientIds()) {
    std::size_t active = 0;
    bool inTransit = false;
    for (const ServerId id : cluster.serverIds()) {
      const rtf::Server& server = cluster.server(id);
      if (server.crashed()) continue;
      server.world().forEach([&](rtf::ConstEntityRef e) {
        if (e.client != client) return;
        if (e.owner == id) ++active;
        else if (server.hasClient(client)) inTransit = true;
      });
    }
    if (active == 0 && !inTransit) ++missing;
    if (active > 1) duplicates += active - 1;
  }
}

// --- copy of rms::runManagedSession (src/rms/session.cpp) ---
rms::SessionSummary mirrorManaged(const rms::ManagedSessionConfig& config,
                                  const model::TickModel& tickModel, LayerTrace& trace) {
  if (config.faults) throw std::invalid_argument("mirror: managed fault plans are not mirrored");
  game::FpsApplication fps(config.fps);
  TickClock clock(trace);
  TimedApplication app(fps, trace, clock);
  rtf::Cluster cluster(app, rtf::ClusterConfig{config.server, rtf::ClientEndpoint::Config{},
                                               config.seed, config.telemetry});
  app.attach(cluster);
  const ZoneId zone =
      cluster.createZone("arena", config.fps.arenaOrigin, config.fps.arenaExtent);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config.initialReplicas); ++i) {
    cluster.addServer(zone);
  }

  rms::RmsConfig rmsConfig = config.rms;
  rmsConfig.upperTickMs = config.modelStrategy.upperTickMs;
  rmsConfig.npcs = config.modelStrategy.npcs;
  rmsConfig.heartbeatPeriod = config.server.heartbeatPeriod;
  if (rmsConfig.useNetworkMonitoring || rmsConfig.detectFailures) {
    cluster.attachMonitoringCollector();
  }

  auto strategy = std::make_unique<TimedStrategy>(config.strategyFactory(config, tickModel),
                                                  trace.decide, clock);
  const std::string policy = strategy->name();
  rms::RmsManager manager(cluster, zone, std::move(strategy), rms::ResourcePool{}, rmsConfig);

  game::ChurnDriver::Config churnConfig;
  churnConfig.bots = config.bots;
  churnConfig.seed = config.seed ^ 0xC0DE;
  game::ChurnDriver churn(cluster, zone, config.scenario, churnConfig);

  StatAccumulator qoeRates;
  double qoeMinRate = std::numeric_limits<double>::infinity();
  double qoeWorstGap = 0.0;
  auto qoeToken = cluster.simulation().schedulePeriodic(
      config.rms.controlPeriod, [&](SimTime) {
        for (const ClientId id : cluster.clientIds()) {
          const rtf::ClientEndpoint& endpoint = cluster.client(id);
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
  clock.run(cluster, config.scenario.totalDuration() + config.tail);
  churn.stop();
  manager.stop();
  sim::Simulation::cancelPeriodic(qoeToken);

  rms::SessionSummary summary;
  summary.policy = policy;
  summary.timeline = manager.timeline();
  for (const rms::TimelinePoint& p : summary.timeline) {
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
  summary.crashesDetected = manager.crashesDetected();
  summary.recoveries = manager.recoveries();
  for (const rms::RecoveryRecord& r : summary.recoveries) {
    summary.clientsRehomed += r.clientsRehomed;
    summary.clientsLost += r.clientsLost;
  }
  collectCounters(cluster, trace);
  collectCounters(manager, trace);
  return summary;
}

// --- copy of rms::runShardedSession (src/rms/sharded_session.cpp) ---
rms::ShardedSessionSummary mirrorSharded(const rms::ShardedSessionConfig& config,
                                         LayerTrace& trace) {
  if (config.linkFaults) throw std::invalid_argument("mirror: sharded link faults are not mirrored");
  game::FpsConfig fpsConfig = config.fps;
  fpsConfig.arenaOrigin = config.worldOrigin;
  fpsConfig.arenaExtent = Vec2{config.zoneExtent.x * static_cast<double>(config.gridCols),
                               config.zoneExtent.y * static_cast<double>(config.gridRows)};
  game::FpsApplication fps(fpsConfig);
  TickClock clock(trace);
  TimedApplication app(fps, trace, clock);

  rtf::ServerConfig serverConfig = config.server;
  serverConfig.borderWidth = config.borderWidth;
  rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, rtf::ClientEndpoint::Config{},
                                               config.seed, config.telemetry});
  app.attach(cluster);

  const std::vector<ZoneId> zones = cluster.createZoneGrid(
      config.worldOrigin, fpsConfig.arenaExtent, config.gridCols, config.gridRows);
  for (const ZoneId zone : zones) {
    for (std::size_t i = 0; i < std::max<std::size_t>(1, config.replicasPerZone); ++i) {
      cluster.addServer(zone);
    }
    if (config.npcsPerZone > 0) cluster.spawnNpcs(zone, config.npcsPerZone);
  }

  for (std::size_t i = 0; i < config.users; ++i) {
    cluster.connectClient(zones[i % zones.size()],
                          std::make_unique<game::BotProvider>(config.bots));
  }

  clock.run(cluster, config.warmup);

  rms::ShardedSessionSummary summary;
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
  clock.run(cluster, config.duration);
  sim::Simulation::cancelPeriodic(sampleToken);
  clock.run(cluster, SimDuration::seconds(2));

  summary.zones = zones.size();
  summary.servers = cluster.serverCount();
  summary.users = cluster.clientCount();
  for (const ServerId id : cluster.serverIds()) {
    const rtf::Server& server = cluster.server(id);
    summary.handoffsInitiated += server.handoffsInitiated();
    summary.handoffsReceived += server.handoffsReceived();
    summary.borderShadows += server.monitoring().borderShadows;
  }
  audit(cluster, summary.missingAvatars, summary.duplicateAvatars);
  collectCounters(cluster, trace);
  return summary;
}

// --- copy of rms::runOverloadSession (src/rms/overload_session.cpp) ---
rms::OverloadSessionSummary mirrorOverload(const rms::OverloadSessionConfig& config,
                                           LayerTrace& trace) {
  game::FpsConfig fpsConfig = config.fps;
  fpsConfig.arenaOrigin = Vec2{0.0, 0.0};
  fpsConfig.arenaExtent = config.zoneExtent;
  game::FpsApplication fps(fpsConfig);
  fps.setInterestPolicy(std::make_unique<game::FidelityScaledInterest>(
      std::make_unique<game::GridInterest>(fpsConfig.aoiRadius)));
  TickClock clock(trace);
  TimedApplication app(fps, trace, clock);

  rtf::ServerConfig serverConfig = config.server;
  serverConfig.overload.enabled = config.ladder;
  serverConfig.overload.budgetMs = config.budgetMs;
  rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, rtf::ClientEndpoint::Config{},
                                               config.seed, config.telemetry});
  app.attach(cluster);

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
    cluster.setTickPredictor([model = *config.model, &span = trace.predict, &clock](
                                 std::size_t activeUsers, std::size_t totalAvatars,
                                 std::size_t npcs) {
      Timed timed(span, clock, true);
      return model.tickMillis(1.0, static_cast<double>(totalAvatars), static_cast<double>(npcs),
                              static_cast<double>(activeUsers));
    });
  }

  if (config.admission) {
    cluster.setAdmissionGate([&cluster, zone, model = config.model, budget = config.budgetMs,
                              cap = config.maxUsersPerServer, &span = trace.admission, &clock](
                                 const rtf::Server& target, std::string& reason) {
      Timed timed(span, clock, false);
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

  rms::RmsConfig rmsConfig;
  rmsConfig.controlPeriod = SimDuration::milliseconds(500);
  rmsConfig.upperTickMs = config.budgetMs;
  rms::RmsManager manager(cluster, zone,
                          std::make_unique<TimedStrategy>(std::make_unique<HoldStrategy>(),
                                                          trace.decide, clock),
                          rms::ResourcePool{}, rmsConfig);
  manager.start();

  rms::OverloadSessionSummary summary;

  std::set<ServerId> preempted;
  for (const rms::OverloadSessionConfig::PreemptionPlan& plan : config.preemptions) {
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
        rms::OverloadSample sample;
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

  clock.run(cluster, config.scenario.totalDuration());
  churn.stop();

  if (injector != nullptr) injector->setDefaultFaults(net::FaultParams{});
  clock.run(cluster, config.settle);
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
  audit(cluster, summary.missingAvatars, summary.duplicateAvatars);
  collectCounters(cluster, trace);
  collectCounters(manager, trace);
  return summary;
}

}  // namespace

Summary runMirror(const SessionPlan& plan, LayerTrace& trace) {
  if (const auto* managed = std::get_if<rms::ManagedSessionConfig>(&plan.config)) {
    return mirrorManaged(*managed, plan.model, trace);
  }
  if (const auto* sharded = std::get_if<rms::ShardedSessionConfig>(&plan.config)) {
    return mirrorSharded(*sharded, trace);
  }
  return mirrorOverload(std::get<rms::OverloadSessionConfig>(plan.config), trace);
}

}  // namespace roia::e2e
