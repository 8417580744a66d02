// Extension experiment: the NPC term of the model.
//
// Eq. (1) carries an m/l * t_npc(n) term that the paper's evaluation
// neglects ("this parameter is included in our model, but will be neglected
// in the remainder of this paper for brevity"). This harness exercises it:
// sessions run with computer-controlled NPCs in the zone, t_npc is measured
// and fitted like every other parameter, and the capacity loss n_max(l, m)
// is quantified for growing NPC counts — including how replication dilutes
// the NPC load (each replica only updates m/l NPCs).
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "model/estimator.hpp"
#include "model/thresholds.hpp"

int main() {
  using namespace roia;
  using benchharness::printHeader;
  using benchharness::printParamTable;

  printHeader("Extension — the NPC term of Eq. (1): m/l * t_npc(n)");

  // Calibrate WITH NPCs so t_npc is actually measured.
  game::CalibrationConfig config;
  config.measurement.npcs = 100;
  config.replicationPopulations = {50, 100, 150, 200, 250, 300};
  config.migrationPopulations = {80, 160, 240};
  const game::CalibrationResult calibration = game::calibrateModel(config);
  const model::TickModel tickModel(calibration.parameters);

  printParamTable("t_npc", calibration.replicationSamples.series(rtf::Phase::kNpc),
                  calibration.parameters.at(model::ParamKind::kNpc));

  printHeader("capacity vs. NPC count (U = 40 ms)");
  std::printf("\n# m(NPCs)   n_max(l=1)   n_max(l=2)   n_max(l=4)\n");
  for (const std::size_t m : {0u, 100u, 250u, 500u, 1000u}) {
    std::printf("  %7zu   %10zu   %10zu   %10zu\n", m,
                model::nMax(tickModel, 1, m, 40000.0), model::nMax(tickModel, 2, m, 40000.0),
                model::nMax(tickModel, 4, m, 40000.0));
  }
  std::printf(
      "\nexpected shape: NPCs cost capacity on a single server, but the m/l term means\n"
      "replication recovers most of it — the per-replica NPC share shrinks with l.\n");

  printHeader("model vs. measurement with NPCs (validation)");
  game::MeasurementConfig mConfig;
  mConfig.npcs = 100;
  mConfig.warmup = SimDuration::seconds(2);
  mConfig.measure = SimDuration::seconds(2);
  const std::vector<std::pair<std::size_t, std::size_t>> pairs{
      {100, 1}, {150, 1}, {150, 2}, {250, 2}};
  const std::vector<game::SteadyStateResult> measurements =
      par::runSweep<game::SteadyStateResult>(pairs, [&](const auto& pair) {
        return game::measureSteadyState(mConfig, pair.first, pair.second);
      });
  std::printf("\n# n     l   predicted_ms   measured_ms\n");
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [n, l] = pairs[i];
    const double predicted = tickModel.tickMillis(static_cast<double>(l),
                                                  static_cast<double>(n), 100);
    std::printf("  %4zu   %zu   %12.2f   %11.2f\n", n, l, predicted, measurements[i].tickAvgMs);
  }
  return 0;
}
