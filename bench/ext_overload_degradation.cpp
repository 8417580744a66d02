// Extension: overload survival under a flash crowd and a preemption storm.
//
// The paper's RMS keeps tick time under the threshold U by adding resources
// ahead of load (Eq. 2). This harness measures what happens when that is not
// possible — the crowd arrives faster than servers can start, or the
// provider preempts the machines — and the system must survive on a fixed
// replica group:
//
//  * baseline: no defenses; the flash crowd drives the p95 tick past U and
//    keeps it there for the whole hold phase,
//  * ladder:   the per-server degradation ladder (AOI fidelity scaling, SU
//    rate halving, NPC throttling, observer shedding) trades fidelity for
//    deadline headroom,
//  * governed: ladder plus Eq. 2 admission control at the cluster edge —
//    joins that would push the predicted tick past U are vetoed and the
//    churn layer backs off,
//  * storm:    governed plus >= 3 preemption notices aimed at the busiest
//    replica mid-crowd; the RMS drains each victim within its grace window
//    and the session must end with zero entity loss.
//
// Determinism: every session is seeded from its config; sessions fan out
// over the sweep pool (ROIA_BENCH_THREADS) and all output is printed after
// collection, so stdout is byte-identical across thread counts. The storm
// config also runs twice with the same seed and the two summaries must
// match counter for counter.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "model/thresholds.hpp"
#include "rms/overload_session.hpp"

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::printHeader;

  printHeader("overload degradation — flash crowd on a fixed replica group");
  std::printf("calibrating the scalability model first (paper section V-A)...\n");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);
  const model::TickModel tickModel(calibration.parameters);

  constexpr double kBudgetMs = 40.0;
  constexpr std::size_t kReplicas = 2;
  constexpr std::size_t kNpcs = 40;
  const std::size_t nMax = model::nMax(tickModel, kReplicas, kNpcs, kBudgetMs * 1000.0);
  std::printf("capacity n_max(l=%zu, m=%zu) = %zu users at U = %.0f ms\n", kReplicas, kNpcs, nMax,
              kBudgetMs);

  const auto fraction = [&](double f) {
    return static_cast<std::size_t>(f * static_cast<double>(nMax));
  };
  // Flash crowd: comfortable load, a 5 s spike to 1.6x capacity, a long
  // hold at that level, then the crowd leaves.
  game::WorkloadScenario crowd;
  crowd.then(SimDuration::seconds(8), fraction(0.8))
      .then(SimDuration::seconds(5), fraction(1.6))
      .then(SimDuration::seconds(12), fraction(1.6))
      .then(SimDuration::seconds(5), fraction(0.5));

  struct SweepConfig {
    std::string name;
    bool ladder;
    bool admission;
    std::size_t replicas;
    std::size_t preemptions;
    std::uint64_t seed;
  };
  struct SweepResult {
    SweepConfig config;
    rms::OverloadSessionSummary summary;
  };

  const std::vector<SweepConfig> configs{
      {"baseline", false, false, kReplicas, 0, 11000},
      {"ladder", true, false, kReplicas, 0, 11000},
      {"governed", true, true, kReplicas, 0, 11000},
      {"storm", true, true, kReplicas + 1, 3, 11000},
      {"storm-repeat", true, true, kReplicas + 1, 3, 11000},
  };

  const std::vector<SweepResult> results =
      par::runSweep<SweepResult>(configs, [&](const SweepConfig& config) {
        rms::OverloadSessionConfig session;
        session.replicas = config.replicas;
        session.npcs = kNpcs;
        session.budgetMs = kBudgetMs;
        session.ladder = config.ladder;
        session.admission = config.admission;
        // The model gives every server an Eq. 4 tick predictor and, with
        // admission, the Eq. 2 gate. The baseline (no ladder, no admission)
        // gets it only for the drift telemetry that reads the predictor; the
        // ladder run stays model-free, as its ladder would react to it.
        const bool reported = config.name == "baseline";
        if (config.admission || reported) session.model = tickModel;
        session.scenario = crowd;
        session.churn.maxChangePerPeriod = 10;
        session.churn.seed = config.seed ^ 0x5EEDULL;
        for (std::size_t i = 0; i < config.preemptions; ++i) {
          session.preemptions.push_back(
              {SimDuration::seconds(10 + 3 * static_cast<std::int64_t>(i)),
               SimDuration::seconds(4)});
        }
        session.seed = config.seed;
        // Telemetry reports the undefended run: its SLO breaches, drift and
        // flight dumps.
        if (reported) session.telemetry = telemetryScope.context();
        return SweepResult{config, rms::runOverloadSession(session)};
      });

  printHeader("session summaries");
  std::printf(
      "# config         users  peak   miss/samples  maxlvl  downs  ups  shed  vetoes  drains  "
      "fallbk  conserved\n");
  for (const SweepResult& r : results) {
    std::printf("  %-13s  %5zu  %4zu   %4zu/%-7zu  %6zu  %5llu  %3llu  %4llu  %6llu  %6llu  "
                "%6llu  %9s\n",
                r.config.name.c_str(), r.summary.users, r.summary.peakUsers,
                r.summary.deadlineMissPeriods, r.summary.samples, r.summary.maxDegradationLevel,
                static_cast<unsigned long long>(r.summary.stepDowns),
                static_cast<unsigned long long>(r.summary.stepUps),
                static_cast<unsigned long long>(r.summary.shedEvents),
                static_cast<unsigned long long>(r.summary.admissionVetoes),
                static_cast<unsigned long long>(r.summary.gracefulDrains),
                static_cast<unsigned long long>(r.summary.drainFallbacks),
                r.summary.conserved() ? "yes" : "NO");
  }

  // Degradation timeline of the ladder config: how deep the ladder went and
  // what the worst replica's p95 tick did while the crowd was in.
  printHeader("degradation timeline (ladder config, every 2 s)");
  std::printf("#  t_sec   users   p95_ms   level   shed\n");
  for (const SweepResult& r : results) {
    if (r.config.name != "ladder") continue;
    for (std::size_t i = 0; i < r.summary.timeline.size(); i += 4) {
      const rms::OverloadSample& s = r.summary.timeline[i];
      std::printf("  %6.1f   %5zu   %6.2f   %5zu   %4zu\n", s.timeSec, s.users, s.worstP95TickMs,
                  s.maxLevel, s.shedObservers);
    }
  }

  const auto find = [&](const std::string& name) -> const rms::OverloadSessionSummary& {
    for (const SweepResult& r : results) {
      if (r.config.name == name) return r.summary;
    }
    std::fprintf(stderr, "missing config %s\n", name.c_str());
    std::abort();
  };
  const auto& baseline = find("baseline");
  const auto& ladder = find("ladder");
  const auto& governed = find("governed");
  const auto& storm = find("storm");
  const auto& stormRepeat = find("storm-repeat");

  printHeader("verdicts");
  std::printf("baseline misses deadlines under the flash crowd:  %s (%zu periods)\n",
              baseline.deadlineMissPeriods > 0 ? "yes" : "NO", baseline.deadlineMissPeriods);
  std::printf("ladder reduces deadline misses vs baseline:       %s (%zu vs %zu)\n",
              ladder.deadlineMissPeriods < baseline.deadlineMissPeriods ? "yes" : "NO",
              ladder.deadlineMissPeriods, baseline.deadlineMissPeriods);
  std::printf("ladder actually degraded (max level > 0):         %s (level %zu)\n",
              ladder.maxDegradationLevel > 0 ? "yes" : "NO", ladder.maxDegradationLevel);
  std::printf("governed holds every deadline:                    %s (%zu periods)\n",
              governed.deadlineMissPeriods == 0 ? "yes" : "NO", governed.deadlineMissPeriods);
  std::printf("governed vetoed joins at the edge:                %s (%llu vetoes, %llu retries)\n",
              governed.admissionVetoes > 0 ? "yes" : "NO",
              static_cast<unsigned long long>(governed.admissionVetoes),
              static_cast<unsigned long long>(governed.joinRetries));
  std::printf("storm injected >= 3 preemptions, all drained:     %s (%llu injected, %llu drains)\n",
              storm.preemptionsInjected >= 3 && storm.gracefulDrains >= 3 ? "yes" : "NO",
              static_cast<unsigned long long>(storm.preemptionsInjected),
              static_cast<unsigned long long>(storm.gracefulDrains));
  std::printf("storm lost zero entities:                         %s (%zu missing, %zu dup)\n",
              storm.conserved() ? "yes" : "NO", storm.missingAvatars, storm.duplicateAvatars);
  const bool repeatMatches =
      storm.users == stormRepeat.users && storm.peakUsers == stormRepeat.peakUsers &&
      storm.deadlineMissPeriods == stormRepeat.deadlineMissPeriods &&
      storm.stepDowns == stormRepeat.stepDowns && storm.stepUps == stormRepeat.stepUps &&
      storm.shedEvents == stormRepeat.shedEvents &&
      storm.admissionVetoes == stormRepeat.admissionVetoes &&
      storm.joinsVetoed == stormRepeat.joinsVetoed &&
      storm.gracefulDrains == stormRepeat.gracefulDrains &&
      storm.drainFallbacks == stormRepeat.drainFallbacks &&
      storm.migrationsOrdered == stormRepeat.migrationsOrdered;
  std::printf("storm repeat run is counter-identical:            %s\n", repeatMatches ? "yes" : "NO");
  return 0;
}
