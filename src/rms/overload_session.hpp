// Overload-survival session runner: a single zone with a fixed replica
// group, a flash-crowd workload driven far past the Eq. 2 capacity, and the
// three survival mechanisms under test — the per-server degradation ladder,
// Eq. 2 admission control at the cluster edge, and preemption notices
// answered by the RMS graceful drain. This is the harness behind the
// ext_overload_degradation bench and the `overload` test label; like the
// sharded harness it audits entity conservation at session end.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "game/scenario.hpp"
#include "model/tick_model.hpp"
#include "net/fault.hpp"
#include "obs/telemetry.hpp"
#include "rtf/server.hpp"

namespace roia::rms {

struct OverloadSessionConfig {
  game::FpsConfig fps{};
  rtf::ServerConfig server{};
  game::ChurnDriver::Config churn{};

  /// Fixed replica group of the single zone (the RMS runs a hold strategy:
  /// overload survival is the servers' job here, not elastic scaling).
  std::size_t replicas{2};
  std::size_t npcs{0};
  Vec2 zoneExtent{1000.0, 1000.0};

  /// Tick-deadline budget, ms. Feeds the degradation ladder
  /// (server.overload.budgetMs), the Eq. 2 admission check and the
  /// deadline-miss accounting of the timeline.
  double budgetMs{40.0};
  /// Enables the per-server degradation ladder (rtf/overload.hpp).
  bool ladder{true};
  /// Enables admission control at the cluster edge.
  bool admission{true};
  /// Plain per-server admission cap for model-free runs (0 = none). With a
  /// model, the Eq. 2 check applies as well; both veto independently.
  std::size_t maxUsersPerServer{0};

  /// Calibrated scalability model. When set, servers get an Eq. 4 tick
  /// predictor (the ladder reacts one tick early) and the admission gate
  /// vetoes joins whose predicted zone tick at n+1 exceeds the budget.
  /// When empty, the ladder falls back to measured tick cost only.
  std::optional<model::TickModel> model{};

  /// Flash-crowd workload (piecewise-linear user target over time).
  game::WorkloadScenario scenario{};

  /// Preemption notices to inject: at `notice` (absolute sim time) the
  /// busiest live replica not already under notice is preempted with the
  /// given grace window. The RMS answers with a graceful drain.
  struct PreemptionPlan {
    SimDuration notice{SimDuration::zero()};
    SimDuration window{SimDuration::seconds(4)};
  };
  std::vector<PreemptionPlan> preemptions{};

  /// Optional link faults (loss/dup/jitter on every link) for chaos runs.
  std::optional<net::FaultParams> linkFaults{};

  /// Quiescence window after the scenario ends, before the audit.
  SimDuration settle{SimDuration::seconds(3)};
  /// Timeline sample cadence.
  SimDuration samplePeriod{SimDuration::milliseconds(500)};

  std::uint64_t seed{42};
  obs::Telemetry* telemetry{nullptr};
};

/// One timeline sample (the data behind the bench's degradation plot).
struct OverloadSample {
  double timeSec{0.0};
  std::size_t users{0};
  std::size_t servers{0};
  double worstP95TickMs{0.0};
  double worstMaxTickMs{0.0};
  /// Deepest degradation-ladder level across live replicas.
  std::size_t maxLevel{0};
  std::size_t shedObservers{0};
  bool deadlineMiss{false};
};

struct OverloadSessionSummary {
  std::size_t users{0};
  std::size_t peakUsers{0};
  std::size_t servers{0};

  std::vector<OverloadSample> timeline;
  /// Samples whose worst-replica p95 tick exceeded the budget.
  std::size_t deadlineMissPeriods{0};
  std::size_t samples{0};

  // Degradation-ladder activity, summed over all replicas.
  std::size_t maxDegradationLevel{0};
  std::uint64_t stepDowns{0};
  std::uint64_t stepUps{0};
  std::uint64_t shedEvents{0};
  std::uint64_t readmitEvents{0};

  // Admission control / scenario-layer retry.
  std::uint64_t admissionVetoes{0};
  std::uint64_t joinsVetoed{0};
  std::uint64_t joinRetries{0};
  std::uint64_t totalJoins{0};

  // Preemption handling.
  std::uint64_t preemptionsInjected{0};
  std::uint64_t gracefulDrains{0};
  std::uint64_t drainFallbacks{0};
  std::uint64_t migrationsOrdered{0};

  // Entity conservation at session end (rtf::Cluster::auditConservation).
  std::size_t duplicateAvatars{0};
  std::size_t missingAvatars{0};

  [[nodiscard]] bool conserved() const {
    return duplicateAvatars == 0 && missingAvatars == 0;
  }
};

/// Runs an overload session: replica group, flash-crowd churn, preemption
/// storm, timeline sampling and the conservation audit.
[[nodiscard]] OverloadSessionSummary runOverloadSession(const OverloadSessionConfig& config);

}  // namespace roia::rms
