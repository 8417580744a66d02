// Extension experiment: interest-management algorithms and the model.
//
// RTFDemo uses the Euclidean Distance Algorithm; the paper cites Boulanger
// et al.'s comparison of IM algorithms. Here the same game is calibrated
// twice — once with the paper's Euclidean scan and once with the
// incremental flat-grid policy — and the scalability model is refitted for
// each. The experiment shows that the choice of IM algorithm changes the
// *form* of t_aoi (quadratic aggregate cost vs ~linear), and with it every
// threshold of the model: n_max(1), the 80 % trigger, and l_max. The grid
// leg is fitted with automatic AICc form selection so the flattened shape
// is discovered from the samples rather than assumed.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "fit/form_select.hpp"
#include "fit/gof.hpp"
#include "fit/levmar.hpp"
#include "fit/polyfit.hpp"
#include "game/calibrate.hpp"
#include "game/fps_app.hpp"
#include "model/estimator.hpp"
#include "model/report.hpp"

namespace {

using roia::SampleSeries;
using roia::StatAccumulator;

/// Mean y per exact population value (the sweep populations are discrete,
/// so no binning is needed).
std::map<double, double> meansByPopulation(const SampleSeries& series) {
  std::map<double, StatAccumulator> acc;
  for (std::size_t i = 0; i < series.size(); ++i) acc[series.x[i]].add(series.y[i]);
  std::map<double, double> out;
  for (const auto& [n, a] : acc) out[n] = a.mean();
  return out;
}

/// Aggregate per-tick AOI series: the samples are per-user microseconds, so
/// the whole-phase cost at population n is n * mean(t_aoi_per_user(n)).
roia::fit::PowerLawFit aggregatePowerLaw(const SampleSeries& perUser) {
  std::vector<double> x;
  std::vector<double> y;
  for (const auto& [n, mean] : meansByPopulation(perUser)) {
    x.push_back(n);
    y.push_back(n * mean);
  }
  return roia::fit::fitPowerLaw(x, y);
}

/// One row of the form-selection table: AICc of both candidate forms,
/// scored on the per-population means exactly like the adaptive estimator,
/// plus the form the calibration actually chose.
void printFormRow(const char* policy, const char* param, const SampleSeries& s,
                  const roia::model::ParamFunction& chosen) {
  namespace fit = roia::fit;
  std::vector<double> mx;
  std::vector<double> my;
  for (const auto& [n, mean] : meansByPopulation(s)) {
    mx.push_back(n);
    my.push_back(mean);
  }
  const std::vector<double> lin = fit::polyFit(s.x, s.y, 1);
  const std::vector<double> quad = fit::polyFit(s.x, s.y, 2);
  const double aiccLin =
      fit::aicc(fit::evaluateFit(fit::models::polynomial(1), mx, my, lin).sse, mx.size(), 2);
  const double aiccQuad =
      fit::aicc(fit::evaluateFit(fit::models::polynomial(2), mx, my, quad).sse, mx.size(), 3);
  std::printf("  %-10s %-6s %12.1f %12.1f   %s\n", policy, param, aiccLin, aiccQuad,
              roia::model::formName(chosen.form));
}

}  // namespace

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::check;
  using benchharness::printHeader;

  printHeader("Extension — interest-management algorithms vs. the model");

  // Quick campaign shared by both legs: same populations, same seeds, only
  // the interest policy (and its charge profile) differs.
  game::CalibrationConfig campaign;
  campaign.replicationPopulations = {50, 100, 150, 200, 250, 300};
  campaign.migrationPopulations = {60, 120, 180, 240};

  // Euclidean baseline: the paper's fixed-form calibration, unchanged.
  const game::CalibrationResult euclid = game::calibrateModel(campaign);
  const model::TickModel euclidModel(euclid.parameters);
  const model::ThresholdReport euclidReport = model::buildReport(euclidModel, 40.0, 0.15);

  // Grid: identical campaign under the flat-grid profile; AICc picks the
  // functional form of t_ua / t_aoi from the data.
  game::CalibrationConfig gridCampaign = campaign;
  game::applyGridInterestProfile(gridCampaign.measurement.fps);
  const game::CalibrationResult grid =
      game::calibrateModel(gridCampaign, model::FitPlan::adaptive());
  const model::TickModel gridModel(grid.parameters);
  const model::ThresholdReport gridReport = model::buildReport(gridModel, 40.0, 0.15);

  const SampleSeries& euclidAoi = euclid.replicationSamples.series(rtf::Phase::kAoi);
  const SampleSeries& gridAoi = grid.replicationSamples.series(rtf::Phase::kAoi);
  const SampleSeries& euclidUa = euclid.replicationSamples.series(rtf::Phase::kUa);
  const SampleSeries& gridUa = grid.replicationSamples.series(rtf::Phase::kUa);

  std::printf("\n# per-user t_aoi (us), measured at steady state\n");
  std::printf("# n      euclidean      grid\n");
  const std::map<double, double> euclidMeans = meansByPopulation(euclidAoi);
  const std::map<double, double> gridMeans = meansByPopulation(gridAoi);
  for (const auto& [n, mean] : euclidMeans) {
    const auto g = gridMeans.find(n);
    std::printf("  %4.0f   %9.2f   %9.2f\n", n, mean, g != gridMeans.end() ? g->second : 0.0);
  }

  // Aggregate per-tick AOI cost, fitted as amplitude * n^exponent. The
  // Euclidean pairwise scan is ~n^2; the incremental grid should be ~n^1.
  const fit::PowerLawFit euclidPower = aggregatePowerLaw(euclidAoi);
  const fit::PowerLawFit gridPower = aggregatePowerLaw(gridAoi);
  std::printf("\n# aggregate t_aoi power law (whole phase per tick, y = a * n^e)\n");
  std::printf("# algorithm    exponent   amplitude     log-log R^2\n");
  std::printf("  euclidean    %8.3f   %9.4g   %13.4f\n", euclidPower.exponent,
              euclidPower.amplitude, euclidPower.r2);
  std::printf("  grid         %8.3f   %9.4g   %13.4f\n", gridPower.exponent, gridPower.amplitude,
              gridPower.r2);

  std::printf("\n# form selection (corrected AIC, lower is better; quadratic must win\n");
  std::printf("# by > 2 units). The euclidean leg pins the paper's forms; the grid\n");
  std::printf("# leg lets AICc choose.\n");
  std::printf("  %-10s %-6s %12s %12s   chosen\n", "algorithm", "param", "AICc(lin)",
              "AICc(quad)");
  printFormRow("euclidean", "t_ua", euclidUa, euclid.parameters.at(model::ParamKind::kUa));
  printFormRow("euclidean", "t_aoi", euclidAoi, euclid.parameters.at(model::ParamKind::kAoi));
  printFormRow("grid", "t_ua", gridUa, grid.parameters.at(model::ParamKind::kUa));
  printFormRow("grid", "t_aoi", gridAoi, grid.parameters.at(model::ParamKind::kAoi));

  printHeader("thresholds per IM algorithm (U = 40 ms, c = 0.15)");
  std::printf("\n# algorithm    n_max(1)   trigger(80%%)   l_max\n");
  std::printf("  euclidean    %7zu   %12zu   %5zu\n", euclidReport.nMaxPerReplica[0],
              euclidReport.replicationTriggers[0], euclidReport.lMax);
  std::printf("  grid         %7zu   %12zu   %5zu\n", gridReport.nMaxPerReplica[0],
              gridReport.replicationTriggers[0], gridReport.lMax);
  std::printf("\n# n_max(1) gain from switching IM algorithm: %.2fx\n",
              static_cast<double>(gridReport.nMaxPerReplica[0]) /
                  static_cast<double>(euclidReport.nMaxPerReplica[0]));

  std::printf("\n");
  int failures = 0;
  failures += check("euclidean n_max(1) == 239 (paper baseline)",
                    euclidReport.nMaxPerReplica[0] == 239,
                    static_cast<double>(euclidReport.nMaxPerReplica[0]));
  failures += check("euclidean aggregate t_aoi exponent >= 1.8",
                    euclidPower.valid() && euclidPower.exponent >= 1.8, euclidPower.exponent);
  failures += check("grid aggregate t_aoi exponent <= 1.2",
                    gridPower.valid() && gridPower.exponent <= 1.2, gridPower.exponent);
  failures += check("grid n_max(1) >= 478 (2x euclidean)", gridReport.nMaxPerReplica[0] >= 478,
                    static_cast<double>(gridReport.nMaxPerReplica[0]));

  std::printf(
      "\nexpected shape: the grid replaces the O(n) scan per user with a few cell\n"
      "lookups, so aggregate t_aoi flattens from ~n^2 to ~n^1, single-server\n"
      "capacity roughly triples, and the model recalibrates every threshold\n"
      "automatically — the point of keeping parameters application-measured.\n");
  return failures;
}
