// The four end-to-end workloads: how each calibrates the model, which
// session runner it drives with which configuration, and the canonical
// text of its simulated result (the input of the golden digest).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "model/parameters.hpp"
#include "model/tick_model.hpp"
#include "rms/overload_session.hpp"
#include "rms/session.hpp"
#include "rms/sharded_session.hpp"

namespace roia::e2e {

/// Full size is what the benchmark measures; smoke shortens every scenario
/// and the calibration sweep so all four workloads finish in seconds.
enum class Size { kFull, kSmoke };

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// One calibration campaign and the host time of its three steps.
struct Calibration {
  model::ModelParameters parameters;
  double measureReplS{0.0};
  double measureMigS{0.0};
  double fitS{0.0};
  [[nodiscard]] double totalS() const { return measureReplS + measureMigS + fitS; }
};

/// Runs the workload's calibration campaign: the replication and migration
/// sweeps, then the Levenberg-Marquardt fit, each timed on the host.
[[nodiscard]] Calibration calibrate(const std::string& workload, std::uint64_t seed, Size size);

/// A fully built session configuration for exactly one of the three runners.
struct SessionPlan {
  std::variant<rms::ManagedSessionConfig, rms::ShardedSessionConfig, rms::OverloadSessionConfig>
      config;
  model::TickModel model;
  /// Simulated seconds the session advances.
  double simSeconds{0.0};
};

[[nodiscard]] SessionPlan planSession(const std::string& workload, std::uint64_t seed, Size size,
                                      const model::ModelParameters& parameters);

using Summary =
    std::variant<rms::SessionSummary, rms::ShardedSessionSummary, rms::OverloadSessionSummary>;

/// Runs the plan through the library's own session runner.
[[nodiscard]] Summary runLibrary(const SessionPlan& plan);

/// False when a sharded or overload session failed its conservation audit.
[[nodiscard]] bool conserved(const Summary& summary);

/// Every field of the calibrated parameters and of the summary, timeline
/// included, one `name=value` line each, doubles printed with %.17g.
[[nodiscard]] std::string canonicalText(const model::ModelParameters& parameters,
                                        const Summary& summary);

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

}  // namespace roia::e2e
