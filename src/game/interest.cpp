#include "game/interest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

namespace roia::game {
namespace {

/// Axis-distance from x to the interval [lo, lo + len].
double axisDistance(double x, double lo, double len) {
  if (x < lo) return lo - x;
  if (x > lo + len) return x - lo - len;
  return 0.0;
}

std::size_t clampCell(double raw, std::size_t cells) {
  if (raw <= 0.0) return 0;
  const auto c = static_cast<std::size_t>(raw);
  return c >= cells ? cells - 1 : c;
}

}  // namespace

void EuclideanInterest::prepare(const rtf::World& world, rtf::CostMeter& meter) {
  // No index: the Euclidean Distance Algorithm scans the world per query.
  (void)world;
  (void)meter;
}

// roia-hot
void EuclideanInterest::query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
                              rtf::CostMeter& meter, std::vector<std::uint32_t>& visible) {
  visible.clear();
  const double radiusSq = radius * radius;
  double cost = 0.0;
  const std::span<const std::uint64_t> ids = world.ids();
  const std::span<const Vec2> positions = world.positions();
  const std::uint64_t viewerId = viewer.id.value;
  const Vec2 viewerPos = viewer.position;
  const std::size_t n = ids.size();
  for (std::uint32_t s = 0; s < n; ++s) {
    if (ids[s] == viewerId) continue;
    cost += costs_.pairTestCost;
    if (positions[s].distanceSq(viewerPos) <= radiusSq) {
      // The paper's duplicate check scans the update list so far (the
      // source of its quadratic t_aoi). It is charged, not run: each slot
      // is visited once, in ascending order, so `s` is never in the list
      // yet (DESIGN §15).
      cost += costs_.subscribeScanCost * static_cast<double>(visible.size());
      visible.push_back(s);
    }
  }
  meter.charge(cost);
  // Slot iteration is id-ordered already, so `visible` is too.
}

std::size_t EuclideanInterest::scanCandidates(const rtf::World& world, Vec2 center,
                                              double radius) const {
  // No index: an application-level radius scan must distance-test every
  // avatar regardless of where the circle sits.
  (void)center;
  (void)radius;
  return world.avatarCount();
}

std::size_t GridInterest::axisCells(double extent) const {
  // Cover the extent plus a two-cell margin on the high side (the low-side
  // margin is folded into the origin).
  const auto cells = static_cast<std::size_t>(std::floor(extent / cellSize_)) + 3;
  return std::min(std::max<std::size_t>(cells, 1), kMaxAxisCells);
}

// roia-hot
std::uint32_t GridInterest::cellIndexOf(Vec2 p) const {
  const std::size_t cx = clampCell(std::floor((p.x - originX_) / cellSize_), cols_);
  const std::size_t cy = clampCell(std::floor((p.y - originY_) / cellSize_), rows_);
  return static_cast<std::uint32_t>(cy * cols_ + cx);
}

void GridInterest::rebuild(const rtf::World& world) {
  const std::span<const Vec2> positions = world.positions();
  const std::size_t n = positions.size();
  double minX = 0.0;
  double minY = 0.0;
  double maxX = 0.0;
  double maxY = 0.0;
  if (n > 0) {
    minX = maxX = positions[0].x;
    minY = maxY = positions[0].y;
    for (const Vec2& p : positions) {
      minX = std::min(minX, p.x);
      maxX = std::max(maxX, p.x);
      minY = std::min(minY, p.y);
      maxY = std::max(maxY, p.y);
    }
  }
  // Two spare cells of margin per side keep ordinary movement inside the
  // rect between rebuilds; anything escaping clamps into an edge cell
  // (queries stay exact — see the class comment).
  originX_ = minX - 2.0 * cellSize_;
  originY_ = minY - 2.0 * cellSize_;
  cols_ = axisCells(maxX - originX_);
  rows_ = axisCells(maxY - originY_);
  cellStart_.assign(cols_ * rows_ + 1, 0);
  cellOf_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t c = cellIndexOf(positions[s]);
    cellOf_[s] = c;
    ++cellStart_[c + 1];
  }
  for (std::size_t c = 1; c < cellStart_.size(); ++c) cellStart_[c] += cellStart_[c - 1];
  // Counting sort: slots placed in ascending order within each cell.
  entries_.resize(n);
  cursor_.assign(cellStart_.begin(), cellStart_.end() - 1);
  for (std::uint32_t s = 0; s < n; ++s) entries_[cursor_[cellOf_[s]]++] = s;
  // The query bitmap only grows, so a policy shared by replicas of
  // different sizes stops allocating once it has seen the largest.
  if (hits_.size() * 64 < n) hits_.resize((n + 63) / 64);
  epoch_ = world.structuralEpoch();
  valid_ = true;
}

void GridInterest::relocate(std::uint32_t slot, std::uint32_t toCell) {
  const std::uint32_t fromCell = cellOf_[slot];
  const auto begin = entries_.begin();
  const auto pos = std::lower_bound(begin + cellStart_[fromCell], begin + cellStart_[fromCell + 1],
                                    slot);
  const auto target = std::lower_bound(begin + cellStart_[toCell], begin + cellStart_[toCell + 1],
                                       slot);
  if (fromCell < toCell) {
    std::rotate(pos, pos + 1, target);
    for (std::uint32_t c = fromCell + 1; c <= toCell; ++c) --cellStart_[c];
  } else {
    std::rotate(target, pos, pos + 1);
    for (std::uint32_t c = toCell + 1; c <= fromCell; ++c) ++cellStart_[c];
  }
  cellOf_[slot] = toCell;
}

void GridInterest::prepare(const rtf::World& world, rtf::CostMeter& meter) {
  const std::size_t n = world.size();
  if (stale(world)) {
    rebuild(world);
    meter.charge(costs_.rebuildPerEntityCost * static_cast<double>(n));
    return;
  }
  // Incremental maintenance: one sweep of the position column finds the
  // slots whose cell changed; each is spliced to its new cell in place.
  moved_.clear();
  const std::span<const Vec2> positions = world.positions();
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t c = cellIndexOf(positions[s]);
    if (c != cellOf_[s]) moved_.emplace_back(s, c);
  }
  if (moved_.size() * 4 > n) {
    // Mass movement (teleport storms, arena-wide churn): splicing is no
    // cheaper than a counting-sort rebuild, so rebuild.
    rebuild(world);
    meter.charge(costs_.rebuildPerEntityCost * static_cast<double>(n));
    return;
  }
  for (const auto& [slot, cell] : moved_) relocate(slot, cell);
  meter.charge(costs_.sweepPerEntityCost * static_cast<double>(n) +
               costs_.rebuildPerEntityCost * static_cast<double>(moved_.size()));
}

// roia-hot
void GridInterest::query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
                         rtf::CostMeter& meter, std::vector<std::uint32_t>& visible) {
  visible.clear();
  double cost = 0.0;
  if (stale(world)) {
    // Entities arrived or left after prepare (e.g. migration arrivals land
    // between tick begin and the AOI pass): rebuild lazily, charged here.
    rebuild(world);
    cost += costs_.rebuildPerEntityCost * static_cast<double>(world.size());
  }
  // A slot is hit at most once. Reserving before the first bit is set
  // means nothing below can throw and leave the bitmap dirty.
  const std::size_t n = world.size();
  visible.reserve(n);
  const std::span<const std::uint64_t> ids = world.ids();
  const std::span<const Vec2> positions = world.positions();
  const double radiusSq = radius * radius;
  // Cell range and circle/cell culling run against the viewer position
  // clamped into the grid rect (see the class comment); distance tests use
  // live positions.
  const double cvx = std::clamp(viewer.position.x, originX_,
                                originX_ + cellSize_ * static_cast<double>(cols_));
  const double cvy = std::clamp(viewer.position.y, originY_,
                                originY_ + cellSize_ * static_cast<double>(rows_));
  const std::size_t loX = clampCell(std::floor((cvx - radius - originX_) / cellSize_), cols_);
  const std::size_t hiX = clampCell(std::floor((cvx + radius - originX_) / cellSize_), cols_);
  const std::size_t loY = clampCell(std::floor((cvy - radius - originY_) / cellSize_), rows_);
  const std::size_t hiY = clampCell(std::floor((cvy + radius - originY_) / cellSize_), rows_);
  const std::uint64_t viewerId = viewer.id.value;
  const Vec2 viewerPos = viewer.position;
  std::uint64_t* const hits = hits_.data();
  std::size_t hitCount = 0;
  for (std::size_t cy = loY; cy <= hiY; ++cy) {
    const double dy = axisDistance(cvy, originY_ + cellSize_ * static_cast<double>(cy), cellSize_);
    for (std::size_t cx = loX; cx <= hiX; ++cx) {
      cost += costs_.cellVisitCost;
      const double dx =
          axisDistance(cvx, originX_ + cellSize_ * static_cast<double>(cx), cellSize_);
      if (dx * dx + dy * dy > radiusSq) continue;  // cell entirely out of range
      const std::size_t c = cy * cols_ + cx;
      // Whether a candidate passes the circle test follows no pattern, so a
      // branch on it would mispredict often: the viewer check and the test
      // form a 0/1 mask that sets the candidate's bit.
      std::uint32_t tested = 0;
      for (std::uint32_t i = cellStart_[c]; i < cellStart_[c + 1]; ++i) {
        const std::uint32_t s = entries_[i];
        const std::uint64_t other = ids[s] != viewerId ? 1 : 0;
        const std::uint64_t inRange = positions[s].distanceSq(viewerPos) <= radiusSq ? 1 : 0;
        hits[s >> 6] |= (other & inRange) << (s & 63);
        hitCount += other & inRange;
        tested += static_cast<std::uint32_t>(other);
      }
      // One add per tested candidate, in the same order as a per-candidate
      // charge: the charged double keeps its bits.
      for (; tested > 0; --tested) cost += costs_.candidateTestCost;
    }
  }
  meter.charge(cost);
  // Set bits in ascending order are ascending slots, i.e. ascending ids:
  // the order every IM algorithm returns, without a sort. Each word is
  // cleared as it is read, leaving the bitmap all-zero for the next query.
  // Entities live in exactly one cell, so no slot is met twice.
  visible.resize(hitCount);
  std::uint32_t* out = visible.data();
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = hits[w]; bits != 0; bits &= bits - 1) {
      *out++ = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
    }
    hits[w] = 0;
  }
}

std::size_t GridInterest::scanCandidates(const rtf::World& world, Vec2 center,
                                         double radius) const {
  if (stale(world)) return world.size();
  const double radiusSq = radius * radius;
  const double ccx =
      std::clamp(center.x, originX_, originX_ + cellSize_ * static_cast<double>(cols_));
  const double ccy =
      std::clamp(center.y, originY_, originY_ + cellSize_ * static_cast<double>(rows_));
  const std::size_t loX = clampCell(std::floor((ccx - radius - originX_) / cellSize_), cols_);
  const std::size_t hiX = clampCell(std::floor((ccx + radius - originX_) / cellSize_), cols_);
  const std::size_t loY = clampCell(std::floor((ccy - radius - originY_) / cellSize_), rows_);
  const std::size_t hiY = clampCell(std::floor((ccy + radius - originY_) / cellSize_), rows_);
  std::size_t candidates = 0;
  for (std::size_t cy = loY; cy <= hiY; ++cy) {
    const double dy = axisDistance(ccy, originY_ + cellSize_ * static_cast<double>(cy), cellSize_);
    const auto culled = [&](std::size_t cx) {
      const double dx =
          axisDistance(ccx, originX_ + cellSize_ * static_cast<double>(cx), cellSize_);
      return dx * dx + dy * dy > radiusSq;
    };
    // Along a row the axis distance falls to its minimum and rises again,
    // so the cells that overlap the circle form one run, and so do their
    // CSR entries: the row's occupancy is one difference of offsets.
    std::size_t x0 = loX;
    std::size_t x1 = hiX;
    while (x0 <= x1 && culled(x0)) ++x0;
    if (x0 > x1) continue;
    while (culled(x1)) --x1;
    const std::size_t row = cy * cols_;
    candidates += cellStart_[row + x1 + 1] - cellStart_[row + x0];
  }
  return candidates;
}

}  // namespace roia::game
