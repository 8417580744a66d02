// Extension experiment: the paper's stated future work — "extend the
// evaluation of our scalability model using heavier user workloads, as well
// as modern server hardware and Cloud resources".
//
// Four configurations are calibrated and compared end-to-end:
//   baseline        — the paper's bot workload on reference servers,
//   heavy workload  — far more aggressive bots (higher attack rates),
//   modern hardware — 4x-speed servers (one decade of single-core gains),
//   heavy + modern  — both.
// For each: the fitted single-server capacity, l_max, and a managed session
// verifying the thresholds still hold under RTF-RMS.
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "model/report.hpp"
#include "rms/session.hpp"

namespace {

struct Variant {
  const char* name;
  roia::game::BotConfig bots;
  double speedFactor;
};

}  // namespace

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::printHeader;

  printHeader("Extension — heavier workloads and modern hardware (paper future work)");

  game::BotConfig heavyBots;
  heavyBots.attackBaseProbability = 0.3;
  heavyBots.attackPerVisibleProbability = 0.02;
  heavyBots.attackProbabilityCap = 0.95;

  const Variant variants[] = {
      {"baseline", game::BotConfig{}, 1.0},
      {"heavy workload", heavyBots, 1.0},
      {"modern hardware (4x)", game::BotConfig{}, 4.0},
      {"heavy + modern", heavyBots, 4.0},
  };

  // One job per variant: calibrate, derive thresholds, drive the managed
  // session. Jobs are independent end-to-end, so fan out and print in the
  // declaration order afterwards.
  struct VariantResult {
    model::ThresholdReport report;
    rms::SessionSummary summary;
  };
  const std::vector<VariantResult> results = par::runSweep<VariantResult>(
      std::size(variants), [&](std::size_t i) {
        const Variant& variant = variants[i];
        game::CalibrationConfig config;
        config.replicationPopulations = {50, 100, 150, 200, 250, 300};
        config.migrationPopulations = {80, 160, 240};
        config.measurement.bots = variant.bots;
        config.measurement.server.cpu.speedFactor = variant.speedFactor;
        const model::TickModel tickModel = game::calibrateTickModel(config);
        const model::ThresholdReport report = model::buildReport(tickModel, 40.0, 0.15);

        // Managed session at the variant's own scale: peak at ~90 % of the
        // 2-replica capacity so replication must engage.
        rms::ManagedSessionConfig sessionConfig;
        sessionConfig.bots = variant.bots;
        sessionConfig.server.cpu.speedFactor = variant.speedFactor;
        const std::size_t peak =
            std::max<std::size_t>(50, report.nMaxPerReplica.size() > 1
                                          ? report.nMaxPerReplica[1] * 9 / 10
                                          : report.nMaxPerReplica[0]);
        sessionConfig.scenario = game::WorkloadScenario::paperSession(
            peak, SimDuration::seconds(40), SimDuration::seconds(10), SimDuration::seconds(40));
        if (i == 0) sessionConfig.telemetry = telemetryScope.context();  // the baseline variant
        const rms::SessionSummary summary = rms::runManagedSession(sessionConfig, tickModel);
        return VariantResult{report, summary};
      });

  std::printf(
      "\n# variant                n_max(1)   trigger   l_max   session_max_tick_ms   violations\n");
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const model::ThresholdReport& report = results[i].report;
    const rms::SessionSummary& summary = results[i].summary;
    std::printf("  %-22s   %7zu   %7zu   %5zu   %19.2f   %10zu\n", variants[i].name,
                report.nMaxPerReplica[0], report.replicationTriggers[0], report.lMax,
                summary.maxTickMs, summary.violationPeriods);
  }

  std::printf(
      "\nexpected shape: heavier interactivity shrinks capacity (same user count, more\n"
      "attack processing). 4x hardware yields only ~2x users — the model predicts this\n"
      "sublinear scaling because the per-user cost itself grows with n (T ~ n * pu(n)),\n"
      "so a 4x tick budget buys far fewer than 4x users. The model recalibrates\n"
      "automatically in every configuration and the managed sessions hold 40 ms.\n");
  return 0;
}
