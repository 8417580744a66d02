// Deterministic network fault injection.
//
// A FaultInjector attached to the Network perturbs every send according to a
// seeded random stream: frames can be dropped, duplicated, delayed by jitter
// and (when jittered) reordered past earlier traffic on the same link.
// Named partitions cut groups of nodes off from the rest of the cluster
// between a start and a heal time. All randomness comes from one xoshiro
// stream seeded at construction, so a fixed seed plus a fixed fault plan
// yields bit-identical simulations — fault experiments stay reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace roia::net {

/// Fault characteristics applied to every link of the network.
struct FaultParams {
  /// Probability that a frame is silently lost.
  double dropProbability{0.0};
  /// Probability that a frame is delivered twice (the copy takes an
  /// independent jitter draw, so it may trail the original arbitrarily).
  double duplicateProbability{0.0};
  /// Extra latency drawn uniformly from [0, jitterMax] per frame.
  SimDuration jitterMax{SimDuration::zero()};
  /// Probability that a jittered frame may overtake earlier frames on the
  /// same link (i.e. the per-link FIFO clamp is skipped for it).
  double reorderProbability{0.0};

  [[nodiscard]] bool inert() const {
    return dropProbability <= 0.0 && duplicateProbability <= 0.0 &&
           jitterMax <= SimDuration::zero() && reorderProbability <= 0.0;
  }
};

/// Cumulative injector activity, for reporting and assertions.
struct FaultStats {
  std::uint64_t framesJudged{0};
  std::uint64_t framesDropped{0};
  std::uint64_t framesDuplicated{0};
  std::uint64_t framesDelayed{0};
  std::uint64_t framesReordered{0};
  std::uint64_t framesPartitioned{0};
};

class FaultInjector {
 public:
  /// Verdict for one frame about to be put on the wire.
  struct Verdict {
    bool drop{false};
    bool duplicate{false};
    /// Whether the frame (or its duplicate) may skip the FIFO clamp.
    bool reorder{false};
    SimDuration extraDelay{SimDuration::zero()};
    SimDuration duplicateExtraDelay{SimDuration::zero()};
  };

  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Faults applied to every link.
  void setDefaultFaults(FaultParams params) { defaultFaults_ = params; }

  /// Declares a named partition: between `start` (inclusive) and `end`
  /// (exclusive) every frame crossing between `group` and the rest of the
  /// network is dropped. Re-declaring a name replaces the partition.
  void partition(std::string name, const std::vector<NodeId>& nodes, SimTime start,
                 SimTime end = SimTime::max());
  /// Moves the heal time of partition `name` to `at` (no-op if unknown).
  void heal(const std::string& name, SimTime at);
  /// True when `from` -> `to` traffic is currently cut by any partition.
  [[nodiscard]] bool isPartitioned(NodeId from, NodeId to, SimTime now) const;

  /// Judges one frame; consumes randomness deterministically per call.
  Verdict judge(NodeId from, NodeId to, SimTime now);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // --- scheduled preemptions (cloud-style preemptible nodes) ---
  // A preemption is a data-only fault: at `notice` the provider announces
  // that `server` will be reclaimed `window` later. The management plane
  // polls claimDuePreemptions() and must drain the server before the window
  // expires (whatever remains is handled as a crash). The facility consumes
  // no randomness, so scheduling preemptions never perturbs the drop/
  // jitter/reorder stream.

  struct Preemption {
    ServerId server;
    /// When the preemption notice is delivered to the management plane.
    SimTime notice{};
    /// Grace window between notice and forced termination.
    SimDuration window{SimDuration::zero()};
  };

  /// Schedules a preemption notice; multiple servers may be pending at once.
  void schedulePreemption(ServerId server, SimTime notice, SimDuration window);
  /// Removes and returns every preemption whose notice time has arrived,
  /// ordered by (notice, server) so consumers act deterministically.
  [[nodiscard]] std::vector<Preemption> claimDuePreemptions(SimTime now);

  /// Mirrors injector activity into counters (roia_fault_*_total); nullptr
  /// detaches. Consumes no randomness, so attaching telemetry never
  /// changes the fault schedule.
  void setMetrics(obs::MetricsRegistry* registry);

 private:
  struct Partition {
    std::unordered_set<std::uint64_t> group;  // NodeId values
    SimTime start;
    SimTime end;
  };

  Rng rng_;
  FaultParams defaultFaults_{};
  // Ordered by name: isPartitioned() walks this on the frame-judging path
  // that also drives the seeded RNG, so iteration order must be stable.
  std::map<std::string, Partition> partitions_;
  /// Pending preemption notices, kept sorted by (notice, server).
  std::vector<Preemption> preemptions_;
  FaultStats stats_;

  /// Cached instrument pointers (registry references are stable).
  struct MetricSet {
    obs::Counter* judged;
    obs::Counter* dropped;
    obs::Counter* duplicated;
    obs::Counter* delayed;
    obs::Counter* reordered;
    obs::Counter* partitioned;
  };
  std::optional<MetricSet> metrics_;
};

}  // namespace roia::net
