// Extension experiment: which fitted coefficients actually drive the
// thresholds? Every coefficient of the calibrated model is perturbed by
// +/-10 % and n_max(1) / l_max recomputed — quantifying how much
// measurement error in each of the paper's parameters a provider can
// tolerate before the derived thresholds move.
#include "bench_common.hpp"
#include "model/sensitivity.hpp"

int main() {
  using namespace roia;
  using benchharness::printHeader;

  printHeader("Extension — sensitivity of the thresholds to fitted coefficients");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);

  const model::SensitivityReport report =
      model::analyzeSensitivity(calibration.parameters, 40000.0, 0.15, 0.10);
  std::printf("\n%s", report.toString().c_str());

  printHeader("reading the ranking");
  const auto ranked = report.rankedByImpact();
  if (!ranked.empty()) {
    const auto& top = ranked.front();
    std::printf(
        "\nmost capacity-critical coefficient: %s[c%zu] — a 10%% fit error moves n_max(1)\n"
        "by %.1f%%. The per-user interest-management and input-processing terms dominate;\n"
        "the forwarded-input terms barely move n_max(1) but shift l_max, matching the\n"
        "model's structure: Eq. (2) is driven by the n/l active term, Eq. (3) by the\n"
        "shadow-overhead term.\n",
        model::paramName(top.kind), top.coeffIndex, top.nMaxDeltaPct);
  }
  return 0;
}
