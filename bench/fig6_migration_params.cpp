// Reproduces paper Fig. 6: "Model parameters for user migration in the
// RTFDemo application" — measured CPU time for initiating (t_mig_ini) and
// receiving (t_mig_rcv) one user migration against the user count, with the
// linear approximation functions fitted over the samples.
//
// Expected shape (paper): both grow almost linearly with the user count and
// initiating a migration is more expensive than receiving one.
#include "bench_common.hpp"
#include "model/estimator.hpp"

int main() {
  using namespace roia;
  using benchharness::printHeader;
  using benchharness::printParamTable;

  printHeader("Fig. 6 — model parameters for user migration (ping-pong between 2 replicas)");
  const game::CalibrationResult calibration = benchharness::runCalibration();
  const model::ModelParameters& params = calibration.parameters;

  printParamTable("t_mig_ini",
                  calibration.migrationSamples.series(rtf::Phase::kMigIni),
                  params.at(model::ParamKind::kMigIni));
  printParamTable("t_mig_rcv",
                  calibration.migrationSamples.series(rtf::Phase::kMigRcv),
                  params.at(model::ParamKind::kMigRcv));

  printHeader("shape summary");
  bool initiatingCostlier = true;
  std::printf("\n# n    t_mig_ini_us   t_mig_rcv_us   ini/rcv\n");
  for (double n = 50; n <= 300; n += 50) {
    const double ini = params.eval(model::ParamKind::kMigIni, n);
    const double rcv = params.eval(model::ParamKind::kMigRcv, n);
    std::printf("  %4.0f   %10.1f   %10.1f   %6.2f\n", n, ini, rcv, rcv > 0 ? ini / rcv : 0.0);
    initiatingCostlier = initiatingCostlier && ini > rcv;
  }
  std::printf("\ninitiating costlier than receiving at every n: %s (paper: yes)\n",
              initiatingCostlier ? "yes" : "NO");
  return 0;
}
