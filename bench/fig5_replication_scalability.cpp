// Reproduces paper Fig. 5: "The effect of replication on scalability of the
// RTFDemo application" — the maximum user number n_max(l) for each replica
// count l up to l_max (Eq. 2/3), plus the 80 % replication-trigger line
// (the dashed line in the figure) that RTF-RMS uses for replication
// enactment.
//
// Paper anchors: a single server computes ~235 users; the trigger for the
// second replica is at 188 users (80 %); with c = 0.15 the model yields
// l_max = 8, with c = 0.05 a large l_max (48 in the paper), with c -> 1
// l_max = 1.
//
// We additionally *validate* each n_max prediction against the running
// system: a session with n_max(l) users on l replicas must stay below the
// 40 ms threshold, and one with 120 % of n_max(l) must violate it.
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "game/measurement.hpp"
#include "model/report.hpp"
#include "model/thresholds.hpp"

int main() {
  using namespace roia;
  using benchharness::printHeader;

  printHeader("Fig. 5 — effect of replication on scalability (U = 40 ms, c = 0.15)");
  const game::CalibrationResult calibration = benchharness::runCalibration();
  const model::TickModel tickModel(calibration.parameters);
  const model::ThresholdReport report = model::buildReport(tickModel, 40.0, 0.15);

  std::printf("\n# replicas   n_max   trigger(80%%)   modeled_tick_at_nmax_ms\n");
  for (std::size_t l = 1; l <= report.lMax; ++l) {
    const std::size_t nMax = report.nMaxPerReplica[l - 1];
    std::printf("  %8zu   %5zu   %12zu   %10.2f\n", l, nMax, report.replicationTriggers[l - 1],
                tickModel.tickMillis(static_cast<double>(l), static_cast<double>(nMax), 0));
  }
  std::printf("\nl_max(c=0.15) = %zu   (paper: 8)\n", report.lMax);
  std::printf("l_max(c=0.05) = %zu   (paper: 48; same large-regime shape)\n",
              model::lMax(tickModel, 0, 40000.0, 0.05).lMax);
  std::printf("l_max(c=1.00) = %zu   (paper: 1)\n",
              model::lMax(tickModel, 0, 40000.0, 1.0).lMax);
  std::printf("single-server capacity n_max(1) = %zu users (paper: ~235, trigger 188)\n",
              report.nMaxPerReplica[0]);

  printHeader("validation: does the real system respect the predicted n_max?");
  game::MeasurementConfig mConfig;
  mConfig.warmup = SimDuration::seconds(2);
  mConfig.measure = SimDuration::seconds(2);

  // Each (l, frac) cell is an independent session: fan out the grid across
  // the sweep pool, then print in the legacy order.
  struct Cell {
    std::size_t l;
    double frac;
    std::size_t n;
  };
  std::vector<Cell> cells;
  for (std::size_t l = 1; l <= std::min<std::size_t>(4, report.lMax); ++l) {
    const std::size_t nMax = report.nMaxPerReplica[l - 1];
    for (const double frac : {0.8, 1.0, 1.2}) {
      cells.push_back({l, frac, static_cast<std::size_t>(static_cast<double>(nMax) * frac)});
    }
  }
  const std::vector<game::SteadyStateResult> measurements =
      par::runSweep<game::SteadyStateResult>(cells, [&](const Cell& cell) {
        return game::measureSteadyState(mConfig, cell.n, cell.l);
      });

  std::printf("\n# l   n      load     predicted_ms   measured_ms   note\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const game::SteadyStateResult& measured = measurements[i];
    const double predicted =
        tickModel.tickMillis(static_cast<double>(cell.l), static_cast<double>(cell.n), 0);
    const char* note =
        cell.frac < 0.9   ? (measured.tickAvgMs < 40.0 ? "ok (below)" : "UNEXPECTED")
        : cell.frac > 1.1 ? (measured.tickAvgMs > 40.0 ? "ok (violates as predicted)"
                                                       : "UNEXPECTED")
                          : "boundary (~40 ms expected)";
    std::printf("  %zu   %5zu   %3.0f%%   %12.2f   %11.2f   %s\n", cell.l, cell.n,
                cell.frac * 100, predicted, measured.tickAvgMs, note);
  }
  return 0;
}
