// Workload scenarios: piecewise-linear target user counts over time, plus a
// churn driver that connects/disconnects bot clients to track the target —
// the "continuously changing number of users" of the paper's Fig. 8.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "game/bots.hpp"
#include "rtf/cluster.hpp"
#include "sim/simulation.hpp"

namespace roia::game {

/// Piecewise-linear workload: each segment ramps linearly from the previous
/// segment's target to its own target over its duration.
class WorkloadScenario {
 public:
  struct Segment {
    SimDuration duration;
    std::size_t targetUsers;
  };

  WorkloadScenario() = default;
  explicit WorkloadScenario(std::vector<Segment> segments) : segments_(std::move(segments)) {}

  WorkloadScenario& then(SimDuration duration, std::size_t targetUsers) {
    segments_.push_back({duration, targetUsers});
    return *this;
  }

  /// Target user count at absolute time `t` (holds the last target after the
  /// final segment).
  [[nodiscard]] std::size_t targetAt(SimTime t) const;

  [[nodiscard]] SimDuration totalDuration() const;
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// The paper's Fig. 8 shape: ramp to 300 users, hold, and drain again.
  static WorkloadScenario paperSession(std::size_t peakUsers = 300,
                                       SimDuration rampUp = SimDuration::seconds(60),
                                       SimDuration hold = SimDuration::seconds(30),
                                       SimDuration rampDown = SimDuration::seconds(60));

  /// Constant population (for parameter-measurement runs).
  static WorkloadScenario constant(std::size_t users, SimDuration duration);

 private:
  std::vector<Segment> segments_;
};

/// Connects/disconnects bot clients on a fixed cadence so the live user
/// count tracks the scenario target.
class ChurnDriver {
 public:
  struct Config {
    SimDuration period{SimDuration::milliseconds(200)};
    /// Upper bound of joins/leaves per period (connection-rate limit).
    std::size_t maxChangePerPeriod{5};
    BotConfig bots{};
    std::uint64_t seed{7};
    /// Retry backoff after the cluster's admission gate vetoes a join:
    /// base * 2^k with k = consecutive vetoed waves (exponent capped), plus
    /// seeded jitter, bounded by backoffCap. Jitter draws RNG only on a
    /// veto, so runs without admission control are byte-identical.
    SimDuration backoffBase{SimDuration::milliseconds(400)};
    SimDuration backoffCap{SimDuration::seconds(5)};
    /// Multiplicative jitter in [0, backoffJitter] on each backoff delay.
    double backoffJitter{0.25};
  };

  /// Multi-zone form (sharded worlds): joins go to the zone with the fewest
  /// users (earliest zone wins ties), leaves pick uniformly over all
  /// clients. Deterministic for a given seed.
  ChurnDriver(rtf::Cluster& cluster, std::vector<ZoneId> zones, WorkloadScenario scenario,
              Config config);
  ChurnDriver(rtf::Cluster& cluster, ZoneId zone, WorkloadScenario scenario, Config config)
      : ChurnDriver(cluster, std::vector<ZoneId>{zone}, std::move(scenario), config) {}
  ChurnDriver(rtf::Cluster& cluster, ZoneId zone, WorkloadScenario scenario)
      : ChurnDriver(cluster, zone, std::move(scenario), Config{}) {}

  /// Starts driving; runs until stop() or forever (scenario holds last value).
  void start();
  void stop();

  [[nodiscard]] std::uint64_t totalJoins() const { return joins_; }
  [[nodiscard]] std::uint64_t totalLeaves() const { return leaves_; }
  /// Joins refused by the cluster's admission gate.
  [[nodiscard]] std::uint64_t totalVetoedJoins() const { return joinsVetoed_; }
  /// Join waves re-attempted after a backoff window expired.
  [[nodiscard]] std::uint64_t totalJoinRetries() const { return joinRetries_; }

 private:
  bool step(SimTime now);
  void enterBackoff(SimTime now);

  rtf::Cluster& cluster_;
  std::vector<ZoneId> zones_;
  WorkloadScenario scenario_;
  Config config_;
  Rng rng_;
  sim::Simulation::PeriodicToken token_;
  bool runningFlag_{false};
  std::uint64_t joins_{0};
  std::uint64_t leaves_{0};
  std::uint64_t joinsVetoed_{0};
  std::uint64_t joinRetries_{0};
  std::size_t vetoStreak_{0};
  SimTime backoffUntil_{SimTime::zero()};
  /// Trace id of the open admission refuse+backoff protocol instance
  /// (0 = none); spans first veto → first successful re-admission.
  std::uint64_t admissionTrace_{0};
};

}  // namespace roia::game
