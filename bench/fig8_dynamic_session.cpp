// Reproduces paper Fig. 8: "Dynamic load balancing of the RTFDemo
// application for a changing number of users" — a full RTF-RMS-managed
// session where the bot population ramps 0 -> 300 -> 0. The harness prints
// the same two series the figure plots (connected users and average CPU
// load of the servers currently leased), plus the replica count.
//
// Paper claims to check in the output:
//  * each replication enactment visibly reduces the average CPU load,
//  * the CPU load stays below 100 % by design (the 80 % trigger leaves
//    headroom for migration overhead and late joiners),
//  * the tick duration never exceeds 40 ms (no QoS violation).
#include "bench_common.hpp"
#include "rms/session.hpp"

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::printHeader;

  printHeader("Fig. 8 — dynamic load balancing of a session with changing user count");
  std::printf("calibrating the scalability model first (paper section V-A)...\n");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);
  const model::TickModel tickModel(calibration.parameters);

  rms::ManagedSessionConfig config;
  config.scenario = game::WorkloadScenario::paperSession(
      300, SimDuration::seconds(60), SimDuration::seconds(30), SimDuration::seconds(60));
  config.rms.controlPeriod = SimDuration::seconds(1);
  config.rms.serverStartupDelay = SimDuration::seconds(2);
  config.telemetry = telemetryScope.context();
  const rms::SessionSummary summary = rms::runManagedSession(config, tickModel);

  std::printf("\n# time_s   users   servers(+starting)   avg_cpu_load   max_tick_ms   migrations\n");
  for (std::size_t i = 0; i < summary.timeline.size(); i += 3) {
    const rms::TimelinePoint& p = summary.timeline[i];
    std::printf("  %6.0f   %5zu   %7zu(+%zu)   %12.2f   %11.2f   %10zu\n", p.timeSec, p.users,
                p.servers, p.pendingServers, p.avgCpuLoad, p.maxTickMs, p.migrationsOrdered);
  }

  printHeader("session summary (paper's Fig. 8 claims)");
  std::printf("peak users:                  %zu\n", summary.peakUsers);
  std::printf("peak servers:                %zu\n", summary.peakServers);
  std::printf("replicas added / removed:    %llu / %llu\n",
              static_cast<unsigned long long>(summary.replicasAdded),
              static_cast<unsigned long long>(summary.replicasRemoved));
  std::printf("migrations performed:        %llu\n",
              static_cast<unsigned long long>(summary.migrations));
  std::printf("max tick duration:           %.2f ms  (paper: never exceeded 40 ms -> %s)\n",
              summary.maxTickMs, summary.maxTickMs <= 40.0 ? "HOLDS" : "VIOLATED");
  std::printf("control periods in violation: %zu of %zu\n", summary.violationPeriods,
              summary.timeline.size());
  std::printf("server-seconds leased:       %.0f\n", summary.serverSeconds);
  std::printf("resource cost (flavor units): %.3f\n", summary.resourceCost);
  std::printf("client update rate:          avg %.1f Hz, min %.1f Hz (target: >= 25 Hz)\n",
              summary.clientUpdateRateAvgHz, summary.clientUpdateRateMinHz);
  std::printf("worst client update gap:     %.1f ms\n", summary.clientWorstGapMs);

  // CPU-load drop at each enactment, the visual signature of Fig. 8.
  printHeader("replication enactments and their CPU-load effect");
  const auto& timeline = summary.timeline;
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    if (timeline[i].servers > timeline[i - 1].servers) {
      const double before = timeline[i - 1].avgCpuLoad;
      const double after = (i + 3 < timeline.size()) ? timeline[i + 3].avgCpuLoad : before;
      std::printf("t = %4.0f s: %zu -> %zu servers, avg CPU %.2f -> %.2f (%s)\n",
                  timeline[i].timeSec, timeline[i - 1].servers, timeline[i].servers, before,
                  after, after < before ? "load reduced" : "no drop");
    }
  }
  return 0;
}
