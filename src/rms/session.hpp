// End-to-end managed session runner: a full RTFDemo-style session with a
// time-varying bot population, managed by RTF-RMS under a chosen strategy.
// Produces the timeline of paper Fig. 8 and the summary numbers of the
// policy-ablation experiment.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "game/calibrate.hpp"
#include "game/scenario.hpp"
#include "net/fault.hpp"
#include "rms/manager.hpp"
#include "rms/model_strategy.hpp"
#include "rms/strategy.hpp"

namespace roia::rms {

struct ManagedSessionConfig;

/// Builds the strategy a managed session runs under. The factory replaces
/// the old PolicyKind enum: any Strategy implementation can be plugged in,
/// and the three canonical policies are provided as factories below.
using StrategyFactory = std::function<std::unique_ptr<Strategy>(const ManagedSessionConfig&,
                                                                const model::TickModel&)>;

/// The paper's contribution: model-driven thresholds + Eq. (5) budgets.
[[nodiscard]] StrategyFactory makeModelDrivenFactory();
/// The "initial RTF-RMS": reactive thresholds, full equalization, no model.
[[nodiscard]] StrategyFactory makeStaticIntervalFactory();
/// Model thresholds + unbounded migrations (budget-ablation baseline).
[[nodiscard]] StrategyFactory makeUnthrottledFactory();

/// Network/crash fault plan for chaos sessions. The injector seed and the
/// plan fully determine the fault schedule: same config, same seed → same
/// timeline, bit for bit.
struct SessionFaultPlan {
  /// Faults applied to every link of the cluster (loss, dup, jitter, ...).
  net::FaultParams link{};
  /// Crash the most-loaded replica of the managed zone at this session time
  /// (skipped, with a warning, while the zone has fewer than two replicas).
  std::optional<SimDuration> crashAt{};
  /// Fault-injector seed; 0 derives it from the session seed.
  std::uint64_t faultSeed{0};
};

struct ManagedSessionConfig {
  game::FpsConfig fps{};
  rtf::ServerConfig server{};
  game::BotConfig bots{};
  game::WorkloadScenario scenario = game::WorkloadScenario::paperSession();
  /// Extra time to keep managing after the scenario ends (drain tail).
  SimDuration tail{SimDuration::seconds(10)};
  RmsConfig rms{};
  ModelStrategyConfig modelStrategy{};
  /// Strategy the manager runs; defaults to the model-driven policy.
  StrategyFactory strategyFactory{makeModelDrivenFactory()};
  std::size_t initialReplicas{1};
  std::uint64_t seed{42};
  /// Chaos mode: inject network faults and optionally a mid-session crash.
  std::optional<SessionFaultPlan> faults{};
  /// Telemetry context handed to the cluster; nullptr keeps telemetry off.
  obs::Telemetry* telemetry{nullptr};
};

struct SessionSummary {
  std::string policy;
  std::vector<TimelinePoint> timeline;
  std::size_t peakUsers{0};
  std::size_t peakServers{0};
  double maxTickMs{0.0};
  std::size_t violationPeriods{0};
  double violationFraction{0.0};
  std::uint64_t migrations{0};
  std::uint64_t replicasAdded{0};
  std::uint64_t replicasRemoved{0};
  std::uint64_t substitutions{0};
  double serverSeconds{0.0};
  double resourceCost{0.0};

  // Client-side QoE: update rates observed at the receiving end (the paper
  // ties the 40 ms tick bound to users needing >= 25 updates/s).
  double clientUpdateRateAvgHz{0.0};
  double clientUpdateRateMinHz{0.0};
  double clientWorstGapMs{0.0};

  // Chaos sessions: crash-failure recovery outcomes.
  std::uint64_t crashesInjected{0};
  std::uint64_t crashesDetected{0};
  std::uint64_t clientsRehomed{0};
  std::uint64_t clientsLost{0};
  std::vector<RecoveryRecord> recoveries;
};

/// Runs the session. The tick model for model-based policies is calibrated
/// by the caller (so one calibration can serve many policy runs).
[[nodiscard]] SessionSummary runManagedSession(const ManagedSessionConfig& config,
                                               const model::TickModel& tickModel);

}  // namespace roia::rms
