#include "workloads.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "game/measurement.hpp"
#include "model/estimator.hpp"
#include "model/thresholds.hpp"

namespace roia::e2e {
namespace {

constexpr double kUpperTickMs = 40.0;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool gridDelta(const std::string& workload) { return workload == "fig8_grid_delta"; }

SimDuration seconds(Size size, std::int64_t full, std::int64_t smoke) {
  return SimDuration::seconds(size == Size::kFull ? full : smoke);
}

/// Appends `name=value` lines; the text is what the digest hashes.
class Canon {
 public:
  void add(const std::string& name, double value) { line(name, "%.17g", value); }
  void add(const std::string& name, std::uint64_t value) { line(name, "%" PRIu64, value); }
  void add(const std::string& name, bool value) { text_ += name + (value ? "=1\n" : "=0\n"); }
  void add(const std::string& name, const std::string& value) { text_ += name + "=" + value + "\n"; }
  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  template <typename T>
  void line(const std::string& name, const char* format, T value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, value);
    text_ += name + "=" + buffer + "\n";
  }
  std::string text_;
};

void canon(Canon& c, const model::ModelParameters& parameters) {
  for (std::size_t k = 0; k < model::kParamCount; ++k) {
    const auto kind = static_cast<model::ParamKind>(k);
    const model::ParamFunction& fn = parameters.at(kind);
    const std::string p = std::string("param.") + model::paramName(kind);
    c.add(p + ".form", std::string(model::formName(fn.form)));
    for (std::size_t i = 0; i < fn.coeffs.size(); ++i) {
      c.add(p + ".c" + std::to_string(i), fn.coeffs[i]);
    }
    c.add(p + ".sse", fn.gof.sse);
    c.add(p + ".rmse", fn.gof.rmse);
    c.add(p + ".r2", fn.gof.r2);
    c.add(p + ".samples", std::uint64_t{fn.sampleCount});
  }
}

void canon(Canon& c, const rms::SessionSummary& s) {
  c.add("policy", s.policy);
  for (std::size_t i = 0; i < s.timeline.size(); ++i) {
    const rms::TimelinePoint& p = s.timeline[i];
    const std::string t = "timeline." + std::to_string(i);
    c.add(t + ".time_s", p.timeSec);
    c.add(t + ".users", std::uint64_t{p.users});
    c.add(t + ".servers", std::uint64_t{p.servers});
    c.add(t + ".pending", std::uint64_t{p.pendingServers});
    c.add(t + ".cpu", p.avgCpuLoad);
    c.add(t + ".avg_tick_ms", p.avgTickMs);
    c.add(t + ".max_tick_ms", p.maxTickMs);
    c.add(t + ".migrations", std::uint64_t{p.migrationsOrdered});
    c.add(t + ".handoffs", std::uint64_t{p.handoffsOrdered});
    c.add(t + ".violation", p.violation);
    c.add(t + ".crashes", std::uint64_t{p.crashesDetected});
    c.add(t + ".rehomed", std::uint64_t{p.clientsRehomed});
  }
  c.add("peak_users", std::uint64_t{s.peakUsers});
  c.add("peak_servers", std::uint64_t{s.peakServers});
  c.add("max_tick_ms", s.maxTickMs);
  c.add("violation_periods", std::uint64_t{s.violationPeriods});
  c.add("violation_fraction", s.violationFraction);
  c.add("migrations", s.migrations);
  c.add("replicas_added", s.replicasAdded);
  c.add("replicas_removed", s.replicasRemoved);
  c.add("substitutions", s.substitutions);
  c.add("server_seconds", s.serverSeconds);
  c.add("resource_cost", s.resourceCost);
  c.add("client_rate_avg_hz", s.clientUpdateRateAvgHz);
  c.add("client_rate_min_hz", s.clientUpdateRateMinHz);
  c.add("client_worst_gap_ms", s.clientWorstGapMs);
  c.add("crashes_injected", s.crashesInjected);
  c.add("crashes_detected", s.crashesDetected);
  c.add("clients_rehomed", s.clientsRehomed);
  c.add("clients_lost", s.clientsLost);
  for (std::size_t i = 0; i < s.recoveries.size(); ++i) {
    const rms::RecoveryRecord& r = s.recoveries[i];
    const std::string t = "recovery." + std::to_string(i);
    c.add(t + ".at_us", static_cast<std::uint64_t>(r.detectedAt.micros));
    c.add(t + ".server", r.server.value);
    c.add(t + ".zone", r.zone.value);
    c.add(t + ".rehomed", std::uint64_t{r.clientsRehomed});
    c.add(t + ".promoted", std::uint64_t{r.shadowsPromoted});
    c.add(t + ".lost", std::uint64_t{r.clientsLost});
    c.add(t + ".npcs", std::uint64_t{r.npcsAdopted});
    c.add(t + ".replacement", r.replacementOrdered);
  }
}

void canon(Canon& c, const rms::ShardedSessionSummary& s) {
  c.add("zones", std::uint64_t{s.zones});
  c.add("servers", std::uint64_t{s.servers});
  c.add("users", std::uint64_t{s.users});
  c.add("steady_avg_tick_ms", s.steadyAvgTickMs);
  c.add("steady_p95_tick_ms", s.steadyP95TickMs);
  c.add("steady_max_tick_ms", s.steadyMaxTickMs);
  c.add("handoffs_initiated", s.handoffsInitiated);
  c.add("handoffs_received", s.handoffsReceived);
  c.add("border_shadows", s.borderShadows);
  c.add("duplicate_avatars", std::uint64_t{s.duplicateAvatars});
  c.add("missing_avatars", std::uint64_t{s.missingAvatars});
}

void canon(Canon& c, const rms::OverloadSessionSummary& s) {
  c.add("users", std::uint64_t{s.users});
  c.add("peak_users", std::uint64_t{s.peakUsers});
  c.add("servers", std::uint64_t{s.servers});
  for (std::size_t i = 0; i < s.timeline.size(); ++i) {
    const rms::OverloadSample& p = s.timeline[i];
    const std::string t = "timeline." + std::to_string(i);
    c.add(t + ".time_s", p.timeSec);
    c.add(t + ".users", std::uint64_t{p.users});
    c.add(t + ".servers", std::uint64_t{p.servers});
    c.add(t + ".p95_tick_ms", p.worstP95TickMs);
    c.add(t + ".max_tick_ms", p.worstMaxTickMs);
    c.add(t + ".level", std::uint64_t{p.maxLevel});
    c.add(t + ".shed", std::uint64_t{p.shedObservers});
    c.add(t + ".miss", p.deadlineMiss);
  }
  c.add("deadline_miss_periods", std::uint64_t{s.deadlineMissPeriods});
  c.add("samples", std::uint64_t{s.samples});
  c.add("max_level", std::uint64_t{s.maxDegradationLevel});
  c.add("step_downs", s.stepDowns);
  c.add("step_ups", s.stepUps);
  c.add("shed_events", s.shedEvents);
  c.add("readmit_events", s.readmitEvents);
  c.add("admission_vetoes", s.admissionVetoes);
  c.add("joins_vetoed", s.joinsVetoed);
  c.add("join_retries", s.joinRetries);
  c.add("total_joins", s.totalJoins);
  c.add("preemptions_injected", s.preemptionsInjected);
  c.add("graceful_drains", s.gracefulDrains);
  c.add("drain_fallbacks", s.drainFallbacks);
  c.add("migrations_ordered", s.migrationsOrdered);
  c.add("duplicate_avatars", std::uint64_t{s.duplicateAvatars});
  c.add("missing_avatars", std::uint64_t{s.missingAvatars});
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"fig8_euclid", "fig8_grid_delta", "zones_roam",
                                              "overload_chaos"};
  return names;
}

Calibration calibrate(const std::string& workload, std::uint64_t seed, Size size) {
  game::MeasurementConfig measurement;
  measurement.seed = seed;
  if (gridDelta(workload)) {
    game::applyGridInterestProfile(measurement.fps);
    measurement.server.replication.codec = rtf::ReplicationCodec::kDelta;
  }
  const std::vector<std::size_t> replicationPopulations =
      size == Size::kFull ? std::vector<std::size_t>{50, 100, 150, 200, 250, 300}
                          : std::vector<std::size_t>{50, 150, 300};
  const std::vector<std::size_t> migrationPopulations =
      size == Size::kFull ? std::vector<std::size_t>{60, 120, 180, 240}
                          : std::vector<std::size_t>{60, 240};

  // The steps of game::calibrateModel, timed one by one.
  Calibration result;
  auto start = std::chrono::steady_clock::now();
  const game::ParameterSamples replication =
      game::measureReplicationParameters(measurement, replicationPopulations);
  result.measureReplS = secondsSince(start);

  start = std::chrono::steady_clock::now();
  const game::ParameterSamples migration =
      game::measureMigrationParameters(measurement, migrationPopulations);
  result.measureMigS = secondsSince(start);

  start = std::chrono::steady_clock::now();
  model::ParameterEstimator estimator;
  for (std::size_t k = 0; k < model::kParamCount; ++k) {
    const auto kind = static_cast<model::ParamKind>(k);
    const bool fromMigration =
        kind == model::ParamKind::kMigIni || kind == model::ParamKind::kMigRcv;
    const game::ParameterSamples& samples = fromMigration ? migration : replication;
    estimator.setSamples(kind, samples.series(model::phaseForParamKind(kind)));
  }
  result.parameters =
      estimator.fit(gridDelta(workload) ? model::FitPlan::adaptive() : model::FitPlan::paperDefault());
  result.fitS = secondsSince(start);
  return result;
}

SessionPlan planSession(const std::string& workload, std::uint64_t seed, Size size,
                        const model::ModelParameters& parameters) {
  SessionPlan plan{{}, model::TickModel(parameters), 0.0};

  if (workload == "fig8_euclid" || workload == "fig8_grid_delta") {
    rms::ManagedSessionConfig config;
    if (gridDelta(workload)) {
      game::applyGridInterestProfile(config.fps);
      config.server.replication.codec = rtf::ReplicationCodec::kDelta;
      config.scenario = game::WorkloadScenario::paperSession(300, seconds(size, 10, 4),
                                                             seconds(size, 5, 2),
                                                             seconds(size, 10, 4));
      config.tail = seconds(size, 3, 1);
    } else {
      config.scenario = game::WorkloadScenario::paperSession(300, seconds(size, 60, 10),
                                                             seconds(size, 30, 5),
                                                             seconds(size, 60, 10));
      config.tail = seconds(size, 10, 2);
    }
    config.rms.controlPeriod = SimDuration::seconds(1);
    config.rms.serverStartupDelay = SimDuration::seconds(2);
    config.seed = seed;
    plan.simSeconds = (config.scenario.totalDuration() + config.tail).asSeconds();
    plan.config = config;
    return plan;
  }

  if (workload == "zones_roam") {
    constexpr std::size_t kZones = 4;
    constexpr std::size_t kReplicasPerZone = 2;
    const std::size_t nMax =
        model::nMax(plan.model, kReplicasPerZone, 0, kUpperTickMs * 1000.0);
    rms::ShardedSessionConfig config;
    config.gridCols = kZones;
    config.gridRows = 1;
    config.zoneExtent = Vec2{1000.0, 1000.0};
    config.replicasPerZone = kReplicasPerZone;
    config.borderWidth = config.fps.aoiRadius;
    const double share = size == Size::kFull ? 0.6 : 0.3;
    config.users = static_cast<std::size_t>(
        std::llround(share * static_cast<double>(kZones) * static_cast<double>(nMax)));
    config.warmup = seconds(size, 3, 1);
    config.duration = seconds(size, 30, 4);
    config.seed = seed;
    // runShardedSession settles for a fixed 2 s before its audit.
    plan.simSeconds = (config.warmup + config.duration).asSeconds() + 2.0;
    plan.config = config;
    return plan;
  }

  if (workload == "overload_chaos") {
    constexpr std::size_t kCapacityReplicas = 2;
    constexpr std::size_t kNpcs = 40;
    const std::size_t nMax = model::nMax(plan.model, kCapacityReplicas, kNpcs, kUpperTickMs * 1000.0);
    const auto fraction = [&](double f) {
      return static_cast<std::size_t>(f * static_cast<double>(nMax));
    };
    rms::OverloadSessionConfig config;
    config.replicas = kCapacityReplicas + 1;
    config.npcs = kNpcs;
    config.budgetMs = kUpperTickMs;
    config.ladder = true;
    config.admission = true;
    config.model = plan.model;
    config.scenario.then(seconds(size, 8, 3), fraction(0.8))
        .then(seconds(size, 5, 2), fraction(1.6))
        .then(seconds(size, 40, 5), fraction(1.6))
        .then(seconds(size, 5, 2), fraction(0.5));
    config.churn.maxChangePerPeriod = 10;
    config.churn.seed = seed ^ 0x5EEDULL;
    const std::int64_t firstNotice = size == Size::kFull ? 10 : 4;
    for (std::int64_t i = 0; i < 3; ++i) {
      config.preemptions.push_back(
          {SimDuration::seconds(firstNotice + 3 * i), SimDuration::seconds(4)});
    }
    net::FaultParams faults;
    faults.dropProbability = 0.03;
    faults.duplicateProbability = 0.01;
    faults.jitterMax = SimDuration::milliseconds(5);
    faults.reorderProbability = 0.2;
    config.linkFaults = faults;
    config.settle = SimDuration::seconds(3);
    config.seed = seed;
    plan.simSeconds = (config.scenario.totalDuration() + config.settle).asSeconds();
    plan.config = config;
    return plan;
  }

  throw std::invalid_argument("unknown workload '" + workload + "'");
}

Summary runLibrary(const SessionPlan& plan) {
  if (const auto* managed = std::get_if<rms::ManagedSessionConfig>(&plan.config)) {
    return rms::runManagedSession(*managed, plan.model);
  }
  if (const auto* sharded = std::get_if<rms::ShardedSessionConfig>(&plan.config)) {
    return rms::runShardedSession(*sharded);
  }
  return rms::runOverloadSession(std::get<rms::OverloadSessionConfig>(plan.config));
}

bool conserved(const Summary& summary) {
  if (const auto* sharded = std::get_if<rms::ShardedSessionSummary>(&summary)) {
    return sharded->conserved();
  }
  if (const auto* overload = std::get_if<rms::OverloadSessionSummary>(&summary)) {
    return overload->conserved();
  }
  return true;
}

std::string canonicalText(const model::ModelParameters& parameters, const Summary& summary) {
  Canon c;
  canon(c, parameters);
  std::visit([&](const auto& s) { canon(c, s); }, summary);
  return c.take();
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace roia::e2e
