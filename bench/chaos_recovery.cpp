// Chaos companion to Fig. 8: the same dynamic RTF-RMS-managed session (bot
// population ramping 0 -> 300 -> 0), but over a faulty network — uniform
// frame loss of 1-5% on every link plus one crash-failure of the
// most-loaded replica at the plateau peak. Reports QoS-violation periods
// against the clean run, along with the recovery record (detection latency,
// clients re-homed from replica-sync shadows, replacement enactment).
//
// Determinism: the fault injector is seeded from the session seed, so
// re-running this binary reproduces the exact same fault schedule, crash
// point and timeline, sample for sample.
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "rms/session.hpp"

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::printHeader;

  printHeader("chaos recovery — Fig. 8 dynamic session under loss + mid-session crash");
  std::printf("calibrating the scalability model first (paper section V-A)...\n");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);
  const model::TickModel tickModel(calibration.parameters);

  auto makeConfig = [] {
    rms::ManagedSessionConfig config;
    config.scenario = game::WorkloadScenario::paperSession(
        300, SimDuration::seconds(60), SimDuration::seconds(30), SimDuration::seconds(60));
    config.rms.controlPeriod = SimDuration::seconds(1);
    config.rms.serverStartupDelay = SimDuration::seconds(2);
    // Same management plane in every run: monitoring over the (possibly
    // faulty) network and the heartbeat failure detector armed.
    config.rms.useNetworkMonitoring = true;
    config.rms.detectFailures = true;
    return config;
  };

  struct Run {
    double lossPct;
    rms::SessionSummary summary;
  };

  // One clean baseline plus three lossy runs, each with one crash at the
  // plateau peak (t = 75 s). The four sessions are independent, so fan out
  // across the sweep pool and keep the legacy (clean-first) order.
  const std::vector<double> lossLevels{0.0, 1.0, 3.0, 5.0};
  const std::vector<Run> runs = par::runSweep<Run>(lossLevels, [&](double lossPct) {
    rms::ManagedSessionConfig config = makeConfig();
    if (lossPct > 0.0) {
      rms::SessionFaultPlan plan;
      plan.link.dropProbability = lossPct / 100.0;
      plan.crashAt = SimDuration::seconds(75);
      config.faults = plan;
    }
    // Telemetry reports the run whose crash timeline is printed below.
    if (lossPct == lossLevels.back()) config.telemetry = telemetryScope.context();
    return Run{lossPct, rms::runManagedSession(config, tickModel)};
  });

  printHeader("QoS under faults vs. the clean run");
  std::printf("# run                violations/periods   max_tick_ms   crashes(det)   rehomed   lost   peak_srv\n");
  for (const Run& run : runs) {
    char name[32];
    if (run.lossPct == 0.0) {
      std::snprintf(name, sizeof name, "clean");
    } else {
      std::snprintf(name, sizeof name, "%.0f%% loss + crash", run.lossPct);
    }
    const rms::SessionSummary& s = run.summary;
    std::printf("  %-18s   %10zu/%-7zu   %11.2f   %6llu(%llu)   %7llu   %4llu   %8zu\n", name,
                s.violationPeriods, s.timeline.size(), s.maxTickMs,
                static_cast<unsigned long long>(s.crashesInjected),
                static_cast<unsigned long long>(s.crashesDetected),
                static_cast<unsigned long long>(s.clientsRehomed),
                static_cast<unsigned long long>(s.clientsLost), s.peakServers);
  }

  printHeader("recovery records (lossy runs)");
  for (const Run& run : runs) {
    if (run.summary.recoveries.empty()) continue;
    for (const rms::RecoveryRecord& r : run.summary.recoveries) {
      std::printf(
          "%.0f%% loss: server %llu declared dead at t = %.2f s; "
          "%zu clients re-homed (%zu from shadows, %zu lost), %zu NPCs adopted, "
          "replacement %s\n",
          run.lossPct, static_cast<unsigned long long>(r.server.value),
          r.detectedAt.asSeconds(), r.clientsRehomed, r.shadowsPromoted, r.clientsLost,
          r.npcsAdopted, r.replacementOrdered ? "enacted" : "NOT enacted (pool exhausted)");
    }
  }

  // The violation window around the crash, the interesting part of the
  // timeline: a recovery should show as a short dip, not a collapse.
  printHeader("timeline around the crash (5% loss run)");
  const rms::SessionSummary& worst = runs.back().summary;
  std::printf("# time_s   users   servers(+starting)   max_tick_ms   violation   crashes   rehomed\n");
  for (const rms::TimelinePoint& p : worst.timeline) {
    if (p.timeSec < 65.0 || p.timeSec > 95.0) continue;
    std::printf("  %6.0f   %5zu   %7zu(+%zu)   %11.2f   %9s   %7zu   %7zu\n", p.timeSec, p.users,
                p.servers, p.pendingServers, p.maxTickMs, p.violation ? "VIOLATION" : "-",
                p.crashesDetected, p.clientsRehomed);
  }
  return 0;
}
