// Extension experiment: bandwidth analysis for the scalability model.
//
// The paper's related-work discussion (Kim et al. [10]) highlights the
// asymmetry between incoming and outgoing game-server traffic and states
// that bandwidth analysis is future work for the model. This harness
// delivers it: per-server ingress/egress rates are measured over a
// population sweep, fitted with the same pipeline as the CPU parameters,
// and inverted into a bandwidth-limited n_max — then compared against the
// CPU-limited n_max of Eq. (2) to show which resource binds first on a
// given link. A second leg repeats the sweep under the baseline-aware delta
// codec; the harness checks that it cuts egress at least 2x and raises the
// bandwidth-limited n_max, and exits with the number of failed checks.
#include "bench_common.hpp"
#include "game/measurement.hpp"
#include "model/bandwidth.hpp"
#include "model/thresholds.hpp"

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::check;
  using benchharness::printHeader;

  printHeader("Extension — per-server bandwidth model (paper future work + [10])");
  game::MeasurementConfig config;
  config.warmup = SimDuration::seconds(2);
  config.measure = SimDuration::seconds(3);

  const std::vector<std::size_t> populations{40, 80, 120, 160, 200, 240, 280};
  constexpr std::size_t kReplicas = 2;
  const std::vector<model::BandwidthSample> samples =
      game::measureBandwidthSweep(config, populations, kReplicas);

  std::printf("\n# n     ingress_KB_s   egress_KB_s   egress/ingress\n");
  for (const model::BandwidthSample& s : samples) {
    std::printf("  %4zu   %11.1f   %11.1f   %13.2f\n", s.users, s.ingressBytesPerSec / 1e3,
                s.egressBytesPerSec / 1e3,
                s.ingressBytesPerSec > 0 ? s.egressBytesPerSec / s.ingressBytesPerSec : 0.0);
  }

  const model::BandwidthModel bwModel = model::BandwidthModel::fit(samples);
  std::printf("\n%s", bwModel.describe().c_str());
  std::printf("asymmetry at n=280: %.2fx more egress than ingress "
              "(paper [10]: server egress dominates)\n",
              bwModel.asymmetry(280));

  printHeader("bandwidth-limited vs. CPU-limited capacity");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);
  const model::TickModel tickModel(calibration.parameters);
  const std::size_t cpuNMax = model::nMax(tickModel, kReplicas, 0, 40000.0);

  std::printf("\n# link           n_max_bandwidth   n_max_cpu(l=2)   binding_resource\n");
  const struct {
    const char* name;
    double bytesPerSec;
  } links[] = {
      {"10 Mbit/s", 10e6 / 8},
      {"25 Mbit/s", 25e6 / 8},
      {"100 Mbit/s", 100e6 / 8},
      {"1 Gbit/s", 1e9 / 8},
  };
  for (const auto& link : links) {
    const std::size_t bwNMax = bwModel.nMaxForLink(link.bytesPerSec);
    std::printf("  %-14s %15zu   %14zu   %s\n", link.name, bwNMax, cpuNMax,
                bwNMax < cpuNMax ? "network" : "CPU");
  }
  std::printf(
      "\nexpected shape: on thin links the network binds long before the CPU; at data-center\n"
      "bandwidth the Eq. (2) CPU bound is the true capacity — matching the paper's implicit\n"
      "assumption that tick duration, not bandwidth, is the constraint on its testbed.\n");

  // Second leg: repeat the sweep under the baseline-aware delta codec and
  // compare egress curves, per-user cost, and the bandwidth-limited
  // capacity against the full codec measured above.
  printHeader("delta codec — egress under baseline-aware replication");
  game::MeasurementConfig deltaConfig = config;
  deltaConfig.server.replication.codec = rtf::ReplicationCodec::kDelta;
  const std::vector<model::BandwidthSample> deltaSamples =
      game::measureBandwidthSweep(deltaConfig, populations, kReplicas);

  std::printf("\n# n     egress_full_KB_s   egress_delta_KB_s   reduction\n");
  for (std::size_t i = 0; i < deltaSamples.size(); ++i) {
    const double full = samples[i].egressBytesPerSec;
    const double delta = deltaSamples[i].egressBytesPerSec;
    std::printf("  %4zu   %16.1f   %17.1f   %8.2fx\n", deltaSamples[i].users, full / 1e3,
                delta / 1e3, delta > 0 ? full / delta : 0.0);
  }

  const model::BandwidthModel deltaModel = model::BandwidthModel::fit(deltaSamples, "delta");
  std::printf("\n%s", deltaModel.describe().c_str());

  const model::BandwidthSample& fullTop = samples.back();
  const model::BandwidthSample& deltaTop = deltaSamples.back();
  const double reduction = deltaTop.egressBytesPerSec > 0
                               ? fullTop.egressBytesPerSec / deltaTop.egressBytesPerSec
                               : 0.0;
  std::printf("egress reduction at steady state (n=%zu): %.2fx\n", fullTop.users, reduction);

  std::printf("\n# codec   n_max@25Mbit/s   egress_B_per_user@n_max\n");
  constexpr double kLink = 25e6 / 8;
  const std::size_t fullNMax = bwModel.nMaxForLink(kLink);
  const std::size_t deltaNMax = deltaModel.nMaxForLink(kLink);
  std::printf("  full    %14zu   %23.1f\n", fullNMax,
              bwModel.egressBytesPerUser(static_cast<double>(fullNMax)));
  std::printf("  delta   %14zu   %23.1f\n", deltaNMax,
              deltaModel.egressBytesPerUser(static_cast<double>(deltaNMax)));
  std::printf("delta n_max gain at 25 Mbit/s: %.2fx\n",
              fullNMax > 0 ? static_cast<double>(deltaNMax) / static_cast<double>(fullNMax)
                           : 0.0);

  int failures = 0;
  failures += check("delta egress reduction at n=280 >= 2.0x", reduction >= 2.0, reduction);
  failures += check("delta n_max at 25 Mbit/s > full n_max", deltaNMax > fullNMax,
                    static_cast<double>(deltaNMax));
  return failures;
}
