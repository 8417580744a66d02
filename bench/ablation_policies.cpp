// Ablation experiment (paper section IV's motivation): the model-driven
// RTF-RMS strategy vs. the "initial implementation" baseline (static
// intervals, unthrottled equalization, reactive replication) and vs. a
// hybrid that keeps the model's replication thresholds but drops the
// Eq. (5) migration budgets.
//
// Reported per policy, on the same ramp workload: QoS violations, max tick
// duration, migrations issued, largest per-period migration burst, replicas
// used and server-seconds leased.
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "rms/session.hpp"

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::printHeader;

  printHeader("Ablation — load-balancing policies on the same 0->300->0 session");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);
  const model::TickModel tickModel(calibration.parameters);

  const rms::StrategyFactory policies[] = {
      rms::makeModelDrivenFactory(),
      rms::makeStaticIntervalFactory(),
      rms::makeUnthrottledFactory(),
  };

  // Each policy drives its own managed session: fan out across the sweep
  // pool and print in the declaration order afterwards.
  const std::vector<rms::SessionSummary> summaries = par::runSweep<rms::SessionSummary>(
      std::size(policies), [&](std::size_t i) {
        rms::ManagedSessionConfig config;
        config.strategyFactory = policies[i];
        config.scenario = game::WorkloadScenario::paperSession(
            300, SimDuration::seconds(50), SimDuration::seconds(20), SimDuration::seconds(50));
        config.rms.controlPeriod = SimDuration::seconds(1);
        config.rms.serverStartupDelay = SimDuration::seconds(2);
        if (i == 0) config.telemetry = telemetryScope.context();  // the model-driven run
        return rms::runManagedSession(config, tickModel);
      });

  std::printf(
      "\n# policy                 violations  max_tick_ms  migrations  max_burst  peak_srv  "
      "server_seconds\n");
  for (const rms::SessionSummary& summary : summaries) {
    std::size_t maxBurst = 0;
    for (const auto& p : summary.timeline) maxBurst = std::max(maxBurst, p.migrationsOrdered);

    std::printf("  %-22s   %9zu   %10.2f   %9llu   %8zu   %7zu   %13.0f\n",
                summary.policy.c_str(), summary.violationPeriods, summary.maxTickMs,
                static_cast<unsigned long long>(summary.migrations), maxBurst,
                summary.peakServers, summary.serverSeconds);
  }

  std::printf(
      "\nexpected shape: model-driven holds 0 violations; the static baseline reacts late and\n"
      "violates during the ramp; the unthrottled hybrid replicates predictively but issues\n"
      "bursty migrations (larger max_burst).\n");
  return 0;
}
