// Reproduces paper Fig. 7: "Scalability model output: number of user
// migrations for the RTFDemo application" — how many migrations can be
// initiated (x_max_ini) and received (x_max_rcv) per second for a given
// observed tick duration without violating the 40 ms threshold (Eq. 5).
//
// Paper worked example: a server with 180 users at a 35 ms tick may
// initiate 3 migrations/s while its 80-user peer at 15 ms may receive 34;
// RTF-RMS performs min{ini, rcv}. After some balancing (160 users, 30 ms)
// the initiator budget rises to ~5.
#include "bench_common.hpp"
#include "model/thresholds.hpp"

int main() {
  using namespace roia;
  using benchharness::printHeader;

  printHeader("Fig. 7 — migration budgets vs. tick duration (Eq. 5, U = 40 ms)");
  const game::CalibrationResult calibration = benchharness::runCalibration();
  const model::TickModel tickModel(calibration.parameters);
  constexpr double kU = 40000.0;

  // The budgets depend on the migration cost at the zone population; the
  // paper's example plays out around n = 260 (180 + 80).
  const double n = 260;
  const double tMigIni = tickModel.migInitiateMicros(n);
  const double tMigRcv = tickModel.migReceiveMicros(n);
  std::printf("\nzone population n = %.0f: t_mig_ini = %.0f us, t_mig_rcv = %.0f us\n", n,
              tMigIni, tMigRcv);

  std::printf("\n# tick_ms   x_max_ini/s   x_max_rcv/s\n");
  for (double tickMs = 0.0; tickMs <= 42.0; tickMs += 2.0) {
    std::printf("  %7.0f   %11zu   %11zu\n", tickMs,
                model::xMaxFromObservedTick(tickMs * 1000.0, tMigIni, kU),
                model::xMaxFromObservedTick(tickMs * 1000.0, tMigRcv, kU));
  }

  printHeader("paper worked example (section V-A)");
  const std::size_t iniHeavy = model::xMaxFromObservedTick(35000.0, tMigIni, kU);
  const std::size_t rcvLight = model::xMaxFromObservedTick(15000.0, tMigRcv, kU);
  std::printf("server A: 180 users, 35 ms tick -> x_max_ini = %zu   (paper: 3)\n", iniHeavy);
  std::printf("server B:  80 users, 15 ms tick -> x_max_rcv = %zu   (paper: 34)\n", rcvLight);
  std::printf("RTF-RMS performs min{%zu, %zu} = %zu migrations/s (paper: 3)\n", iniHeavy,
              rcvLight, std::min(iniHeavy, rcvLight));
  const std::size_t iniRelaxed = model::xMaxFromObservedTick(30000.0, tMigIni, kU);
  std::printf("after balancing, 160 users at 30 ms -> x_max_ini = %zu   (paper: 5)\n",
              iniRelaxed);

  printHeader("model-form budgets (Eq. 4 + Eq. 5, modeled tick instead of observed)");
  std::printf("\n# actives_a   modeled_tick_ms   x_max_ini/s   x_max_rcv/s\n");
  for (std::size_t a = 20; a <= 240; a += 20) {
    const double tick = tickModel.tickMillis(2, n, 0, static_cast<double>(a));
    std::printf("  %9zu   %15.1f   %11zu   %11zu\n", a, tick,
                model::xMaxInitiate(tickModel, 2, static_cast<std::size_t>(n), 0, a, kU),
                model::xMaxReceive(tickModel, 2, static_cast<std::size_t>(n), 0, a, kU));
  }
  return 0;
}
