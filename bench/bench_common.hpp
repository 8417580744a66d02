// Shared helpers for the figure-reproduction harnesses: a standard
// calibration run (the paper's section V-A campaign), small table printers
// and the `check:` line of harnesses that gate their own claims. Each
// harness prints the same series the corresponding paper figure plots, so
// the output can be piped straight into gnuplot.
#pragma once

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "game/calibrate.hpp"
#include "model/tick_model.hpp"
#include "obs/telemetry.hpp"

namespace roia::benchharness {

/// Activates the process-global telemetry context when ROIA_TELEMETRY_DIR
/// names a directory, and writes every sidecar there when the harness exits:
///   trace.json     Chrome/Perfetto trace-event JSON (simulated time)
///   metrics.jsonl  metrics registry snapshot
///   audit.jsonl    RMS decision audit log
///   slo.jsonl      SLO compliance/burn-rate + protocol summary (the
///                  default objectives are installed when none are set)
///   drift.jsonl    Eq.2/Eq.4 model-drift residual summary
///   flight.jsonl   flight-recorder dumps (breach/crash rings)
/// ROIA_TRACE_SAMPLE synthesizes tick spans every Nth tick (default 1).
/// The directory is created and every file opened before the run starts;
/// any failure to create, open or write one exits the harness nonzero.
/// With the knob unset, telemetry stays off and the run is bit-identical to
/// one without this scope.
class TelemetryScope {
 public:
  TelemetryScope() {
    const char* dir = std::getenv("ROIA_TELEMETRY_DIR");
    if (dir == nullptr || *dir == '\0') return;
    dir_ = dir;
    std::error_code error;
    std::filesystem::create_directories(dir_, error);
    if (error) fail(dir_, error.message().c_str());
    for (std::size_t i = 0; i < kFileCount; ++i) {
      files_[i].open(dir_ / kFileNames[i]);
      if (!files_[i]) fail(dir_ / kFileNames[i], std::strerror(errno));
    }
    obs::Telemetry& telemetry = obs::Telemetry::global();
    telemetry.setActive(true);
    telemetry.tracer.setEnabled(true);
    telemetry.audit.setEnabled(true);
    if (telemetry.slo.objectiveCount() == 0) obs::installDefaultObjectives(telemetry.slo);
    if (const char* sample = std::getenv("ROIA_TRACE_SAMPLE")) {
      const long every = std::strtol(sample, nullptr, 10);
      if (every > 0) telemetry.traceTickSampleEvery = static_cast<std::size_t>(every);
    }
  }

  ~TelemetryScope() { flush(); }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  /// Writes the sidecars; idempotent, also runs at scope exit.
  void flush() {
    if (dir_.empty() || flushed_) return;
    flushed_ = true;
    const obs::Telemetry& telemetry = obs::Telemetry::global();
    telemetry.tracer.writeJson(files_[kTrace]);
    telemetry.metrics.writeJsonl(files_[kMetrics]);
    telemetry.audit.writeJsonl(files_[kAudit]);
    telemetry.slo.writeJsonl(files_[kSlo]);
    telemetry.protocols.writeJsonl(files_[kSlo]);
    telemetry.drift.writeJsonl(files_[kDrift]);
    telemetry.flight.writeJsonl(files_[kFlight]);
    for (std::size_t i = 0; i < kFileCount; ++i) {
      files_[i].close();
      if (!files_[i]) fail(dir_ / kFileNames[i], std::strerror(errno));
    }
    std::fprintf(stderr,
                 "telemetry: %zu trace events, %zu metrics, %zu audit records, "
                 "%zu slo objectives, %zu breaches, %zu drift events, %zu flight dumps -> %s\n",
                 telemetry.tracer.eventCount(), telemetry.metrics.size(),
                 telemetry.audit.size(), telemetry.slo.objectiveCount(),
                 telemetry.slo.breachCount(), telemetry.drift.driftEventCount(),
                 telemetry.flight.dumpCount(), dir_.c_str());
  }

 private:
  enum File : std::size_t { kTrace, kMetrics, kAudit, kSlo, kDrift, kFlight, kFileCount };
  static constexpr std::array<const char*, kFileCount> kFileNames = {
      "trace.json", "metrics.jsonl", "audit.jsonl", "slo.jsonl", "drift.jsonl", "flight.jsonl"};

  [[noreturn]] static void fail(const std::filesystem::path& path, const char* reason) {
    std::fprintf(stderr, "telemetry: cannot write %s: %s\n", path.c_str(), reason);
    std::exit(EXIT_FAILURE);
  }

  std::filesystem::path dir_;
  std::array<std::ofstream, kFileCount> files_;
  bool flushed_{false};
};

/// Full-strength calibration campaign (matches the paper: up to 300 bots on
/// two replicas of one zone, plus a migration sweep).
inline game::CalibrationResult runCalibration(bool quick = false) {
  game::CalibrationConfig config;
  if (quick) {
    config.replicationPopulations = {50, 100, 150, 200, 250, 300};
    config.migrationPopulations = {60, 120, 180, 240};
  }
  return game::calibrateModel(config);
}

/// Bins scattered (x, y) samples by x and returns per-bin mean — the
/// "measured" series shown next to each fitted curve.
inline std::vector<std::pair<double, double>> binnedMeans(const SampleSeries& series,
                                                          double binWidth = 25.0) {
  std::map<long, StatAccumulator> bins;
  for (std::size_t i = 0; i < series.size(); ++i) {
    bins[static_cast<long>(series.x[i] / binWidth)].add(series.y[i]);
  }
  std::vector<std::pair<double, double>> out;
  out.reserve(bins.size());
  for (const auto& [bin, acc] : bins) {
    out.emplace_back((static_cast<double>(bin) + 0.5) * binWidth, acc.mean());
  }
  return out;
}

inline void printHeader(const std::string& title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================================\n");
}

inline void printParamTable(const char* name, const SampleSeries& samples,
                            const model::ParamFunction& fitted) {
  std::printf("\n# %s : %s fit, R^2 = %.4f (%zu samples)\n", name,
              model::formName(fitted.form), fitted.gof.r2, fitted.sampleCount);
  std::printf("#   coefficients (ascending powers):");
  for (const double c : fitted.coeffs) std::printf(" %.6g", c);
  std::printf("\n#   n    measured_us   fitted_us\n");
  for (const auto& [n, mean] : binnedMeans(samples)) {
    std::printf("  %6.0f   %10.4f  %10.4f\n", n, mean, fitted.eval(n));
  }
}

/// Prints one self-check line of a harness claim; returns 1 on failure, so
/// a harness can sum the results and return the failure count from main().
inline int check(const char* what, bool pass, double got) {
  std::printf("check: %-46s %s (%.2f)\n", what, pass ? "PASS" : "FAIL", got);
  return pass ? 0 : 1;
}

}  // namespace roia::benchharness
