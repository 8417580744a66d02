#include "game/interest.hpp"

#include <algorithm>
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
  const std::span<const std::uint64_t> ids = world.ids();
  const std::span<const Vec2> positions = world.positions();
  const double radiusSq = radius * radius;
  // Cell range and circle/cell culling run against the viewer position
  // clamped into the grid rect (exactness argument in the class comment);
  // distance tests use live positions.
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
  for (std::size_t cy = loY; cy <= hiY; ++cy) {
    const double dy = axisDistance(cvy, originY_ + cellSize_ * static_cast<double>(cy), cellSize_);
    for (std::size_t cx = loX; cx <= hiX; ++cx) {
      cost += costs_.cellVisitCost;
      const double dx =
          axisDistance(cvx, originX_ + cellSize_ * static_cast<double>(cx), cellSize_);
      if (dx * dx + dy * dy > radiusSq) continue;  // cell entirely out of range
      const std::uint32_t c = static_cast<std::uint32_t>(cy * cols_ + cx);
      for (std::uint32_t i = cellStart_[c]; i < cellStart_[c + 1]; ++i) {
        const std::uint32_t s = entries_[i];
        if (ids[s] == viewerId) continue;
        cost += costs_.candidateTestCost;
        if (positions[s].distanceSq(viewerPos) <= radiusSq) visible.push_back(s);
      }
    }
  }
  meter.charge(cost);
  // Cells are visited in spatial order; slot order == id order, so one sort
  // restores the id-ordered contract shared by all IM algorithms. Entities
  // live in exactly one cell, so no duplicate pass is needed.
  std::sort(visible.begin(), visible.end());
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
    for (std::size_t cx = loX; cx <= hiX; ++cx) {
      const double dx =
          axisDistance(ccx, originX_ + cellSize_ * static_cast<double>(cx), cellSize_);
      if (dx * dx + dy * dy > radiusSq) continue;
      const std::size_t c = cy * cols_ + cx;
      candidates += cellStart_[c + 1] - cellStart_[c];
    }
  }
  return candidates;
}

}  // namespace roia::game
