// Reproduces paper Fig. 4: "Model parameters for replication in the RTFDemo
// application" — measured per-user CPU times for t_ua, t_ua_dser, t_aoi and
// t_su against the user count, with the Levenberg-Marquardt approximation
// functions fitted over them. (The paper omits t_fa / t_fa_dser from the
// figure because they are tiny; we print them anyway for completeness.)
//
// Expected shape (paper section V-A): t_ua and t_aoi quadratic, t_ua_dser
// and t_su linear, forwarded-input parameters much smaller than the rest.
#include "bench_common.hpp"
#include "model/estimator.hpp"

int main() {
  using namespace roia;
  using benchharness::printHeader;
  using benchharness::printParamTable;

  printHeader(
      "Fig. 4 — model parameters for replication (up to 300 bots, 2 replicas)");
  std::printf("workload: randomly interacting bots, split equally on two replicas\n");
  std::printf("measured: per-user / per-shadow CPU microseconds per real-time-loop phase\n");

  const game::CalibrationResult calibration = benchharness::runCalibration();
  const model::ModelParameters& params = calibration.parameters;

  const struct {
    model::ParamKind kind;
    const char* note;
  } figureParams[] = {
      {model::ParamKind::kUa, "validate+apply user inputs (quadratic: attack scan over all users)"},
      {model::ParamKind::kUaDser, "deserialize user inputs (linear: attack share grows with n)"},
      {model::ParamKind::kAoi, "area of interest, Euclidean Distance Algorithm (quadratic)"},
      {model::ParamKind::kSu, "compute+serialize state updates (linear)"},
      {model::ParamKind::kFaDser, "deserialize forwarded/shadow inputs (small, omitted in paper)"},
      {model::ParamKind::kFa, "apply forwarded/shadow inputs (small, omitted in paper)"},
  };

  for (const auto& p : figureParams) {
    const rtf::Phase phase = model::phaseForParamKind(p.kind);
    std::printf("\n--- %s: %s\n", model::paramName(p.kind), p.note);
    printParamTable(model::paramName(p.kind), calibration.replicationSamples.series(phase),
                    params.at(p.kind));
  }

  // Shape checks mirroring the paper's analysis.
  printHeader("shape summary (paper section V-A expectations)");
  const auto& ua = params.at(model::ParamKind::kUa);
  const auto& aoi = params.at(model::ParamKind::kAoi);
  std::printf("t_ua   quadratic coefficient: %.3g (> 0 expected)   R^2 = %.3f\n", ua.coeffs[2],
              ua.gof.r2);
  std::printf("t_aoi  quadratic coefficient: %.3g (> 0 expected)   R^2 = %.3f\n", aoi.coeffs[2],
              aoi.gof.r2);
  std::printf("t_fa + t_fa_dser at n=300: %.2f us vs t_ua + t_aoi: %.2f us (small, as in paper)\n",
              params.eval(model::ParamKind::kFa, 300) +
                  params.eval(model::ParamKind::kFaDser, 300),
              params.eval(model::ParamKind::kUa, 300) +
                  params.eval(model::ParamKind::kAoi, 300));
  return 0;
}
