// Pluggable interest management.
//
// The paper's RTFDemo uses the Euclidean Distance Algorithm (citing
// Boulanger et al., "Comparing Interest Management Algorithms for Massively
// Multiplayer Games"); that comparison motivates this module: the same game
// can run with different IM algorithms, and the scalability model simply
// recalibrates — the fitted t_aoi changes form and every threshold shifts.
//
// Two algorithms are provided:
//  * EuclideanInterest — the paper's baseline: for user U every entity is
//    distance-tested and every subscription scans the update list for
//    duplicates (the quadratic t_aoi of Fig. 4).
//  * GridInterest — a persistent flat uniform grid in CSR layout
//    (cell-start offsets + one slot array grouped by cell, built by
//    counting sort and incrementally patched as entities move between
//    cells); queries visit only the cells overlapping the interest circle,
//    making the per-user cost nearly independent of the arena population
//    outside the radius.
//
// Queries traffic in world *slots* (indices into the SoA columns, ascending
// slot order == ascending id order), so downstream consumers gather state
// straight from the columns without per-id hash lookups. Slot-keyed grid
// state is validated against World::structuralEpoch(): a query that runs
// after an unseen spawn/despawn lazily rebuilds (and charges for it).
//
// Thread-model note: one policy instance may serve several servers because
// the simulation executes each server tick as one atomic event; prepare()
// is called at the start of a tick and queries only happen within that same
// tick. A shared grid sees each replica's world in turn, and structural
// epochs are per world: two worlds can reach the same epoch with different
// slot counts. So the grid also treats its layout as stale when the slot
// count differs; at equal counts prepare()'s incremental sweep re-files
// every slot from the live positions, so the layout is exact either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "rtf/entity.hpp"
#include "rtf/probes.hpp"
#include "rtf/world.hpp"

namespace roia::game {

/// Cost constants of the IM algorithms (reference microseconds).
struct InterestCosts {
  /// Euclidean: one distance test per candidate entity.
  double pairTestCost{0.45};
  /// Euclidean: duplicate check per update-list entry already subscribed.
  double subscribeScanCost{0.011};
  /// Grid: indexing one entity during a full (counting-sort) rebuild; also
  /// charged per *relocated* entity on the incremental path.
  double rebuildPerEntityCost{0.08};
  /// Grid: detecting whether one entity changed cells during the per-tick
  /// incremental position sweep.
  double sweepPerEntityCost{0.004};
  /// Grid: visiting one cell during a query.
  double cellVisitCost{0.15};
  /// Grid: distance test per candidate pulled from a visited cell.
  double candidateTestCost{0.05};
};

class InterestPolicy {
 public:
  virtual ~InterestPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once at the start of each server tick (phase kAoi); index
  /// structures are (re)built or incrementally maintained here.
  virtual void prepare(const rtf::World& world, rtf::CostMeter& meter) = 0;

  /// Slots of entities within `radius` of the viewer, excluding the viewer,
  /// in ascending slot (== id) order, written into `out` (cleared first) so
  /// per-tick callers can reuse one scratch allocation. Charges the query
  /// cost to the meter. Returned slots stay valid until the next structural
  /// world mutation.
  virtual void query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
                     rtf::CostMeter& meter, std::vector<std::uint32_t>& out) = 0;

  /// Charged candidate count for an application-level radius scan around
  /// `center` (NPC target acquisition, shadow re-indexing): how many
  /// entities the algorithm would have to consider. Euclidean has no index,
  /// so every avatar is a candidate; the grid only counts occupancy of the
  /// cells overlapping the circle. Pure accounting — no allocation, no
  /// meter charge (callers fold the count into their own cost terms).
  [[nodiscard]] virtual std::size_t scanCandidates(const rtf::World& world, Vec2 center,
                                                   double radius) const = 0;
};

/// The paper's Euclidean Distance Algorithm (section V-A).
class EuclideanInterest final : public InterestPolicy {
 public:
  explicit EuclideanInterest(InterestCosts costs = {}) : costs_(costs) {}

  [[nodiscard]] std::string name() const override { return "euclidean"; }
  void prepare(const rtf::World& world, rtf::CostMeter& meter) override;
  void query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
             rtf::CostMeter& meter, std::vector<std::uint32_t>& out) override;
  [[nodiscard]] std::size_t scanCandidates(const rtf::World& world, Vec2 center,
                                           double radius) const override;

 private:
  InterestCosts costs_;
};

/// Persistent flat uniform grid, CSR layout.
///
/// `cellStart_[c]..cellStart_[c+1]` indexes `entries_`, the slots whose
/// (clamped) position falls in cell c, ascending within each cell. The grid
/// rect is sized on rebuild to the entity bounding box plus a two-cell
/// margin (capped at kMaxAxisCells per axis); positions outside the rect
/// clamp into edge cells. Queries compute both the cell range and the
/// circle/cell culling against the *clamped* viewer position — clamping
/// both endpoints of a segment into the same interval never increases a
/// per-axis distance, so no cell holding an in-range entity is ever
/// skipped; the actual distance tests use live positions, keeping visible
/// sets exactly equal to the Euclidean algorithm's.
class GridInterest final : public InterestPolicy {
 public:
  /// `cellSize` should be on the order of half the interest radius.
  explicit GridInterest(double cellSize, InterestCosts costs = {})
      : cellSize_(cellSize), costs_(costs) {}

  [[nodiscard]] std::string name() const override { return "grid"; }
  void prepare(const rtf::World& world, rtf::CostMeter& meter) override;
  void query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
             rtf::CostMeter& meter, std::vector<std::uint32_t>& out) override;
  [[nodiscard]] std::size_t scanCandidates(const rtf::World& world, Vec2 center,
                                           double radius) const override;

  /// Cells in the current grid rect (allocated, not merely occupied).
  [[nodiscard]] std::size_t cellCount() const { return cols_ * rows_; }

 private:
  static constexpr std::size_t kMaxAxisCells = 1024;

  /// Whether the layout cannot serve `world` as it stands: never built,
  /// built before the world's last spawn or despawn, or built for a world
  /// with a different slot count (see the thread-model note).
  [[nodiscard]] bool stale(const rtf::World& world) const {
    return !valid_ || epoch_ != world.structuralEpoch() || cellOf_.size() != world.size();
  }
  void rebuild(const rtf::World& world);
  void relocate(std::uint32_t slot, std::uint32_t toCell);
  [[nodiscard]] std::uint32_t cellIndexOf(Vec2 p) const;
  [[nodiscard]] std::size_t axisCells(double extent) const;

  double cellSize_;
  InterestCosts costs_;
  bool valid_{false};
  std::uint64_t epoch_{0};  ///< World::structuralEpoch the layout reflects
  double originX_{0.0};
  double originY_{0.0};
  std::size_t cols_{1};
  std::size_t rows_{1};
  std::vector<std::uint32_t> cellStart_;  ///< cols_*rows_ + 1 prefix offsets
  std::vector<std::uint32_t> entries_;    ///< slots grouped by cell, ascending
  std::vector<std::uint32_t> cellOf_;     ///< slot -> current cell
  std::vector<std::uint32_t> cursor_;     ///< counting-sort scratch
  std::vector<std::pair<std::uint32_t, std::uint32_t>> moved_;  ///< sweep scratch
};

/// Fidelity-scaled wrapper: multiplies every query radius by the world's
/// current interest scale before delegating to the wrapped algorithm. The
/// scale lives in the World (1:1 with a server), set by that server's
/// overload degradation ladder, so one overloaded replica narrows only its
/// own users' AOI — peers sharing the same policy object are unaffected.
class FidelityScaledInterest final : public InterestPolicy {
 public:
  explicit FidelityScaledInterest(std::unique_ptr<InterestPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return "fidelity(" + inner_->name() + ")"; }
  void prepare(const rtf::World& world, rtf::CostMeter& meter) override {
    inner_->prepare(world, meter);
  }
  void query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
             rtf::CostMeter& meter, std::vector<std::uint32_t>& out) override {
    inner_->query(world, viewer, radius * world.interestScale(), meter, out);
  }
  [[nodiscard]] std::size_t scanCandidates(const rtf::World& world, Vec2 center,
                                           double radius) const override {
    return inner_->scanCandidates(world, center, radius * world.interestScale());
  }

  [[nodiscard]] InterestPolicy& inner() { return *inner_; }

 private:
  std::unique_ptr<InterestPolicy> inner_;
};

}  // namespace roia::game
