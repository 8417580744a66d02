// Property tests for the interest-management subsystem.
//
// 1. Equivalence: across seeds x populations x radii x interest scale, the
//    flat grid returns exactly the Euclidean visible sets — the grid is an
//    exact index, never an approximation — and the encoded state updates
//    are byte-identical, so switching the IM algorithm can never change
//    what a client receives.
// 2. Churn oracle: a grid maintained incrementally across arbitrary
//    move / spawn / despawn / handoff churn answers every query exactly
//    like a grid rebuilt from scratch, with the Euclidean scan as the
//    independent ground truth.
// 3. Reference grid: GridInterest's bitmap-ordered query and row-span
//    scanCandidates return the same slots, charge the same double bit for
//    bit and count the same candidates as the grid in its straightforward
//    form, including the entities a query misses because they moved after
//    prepare().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "game/fps_app.hpp"
#include "game/interest.hpp"
#include "rtf/world.hpp"

namespace roia::game {
namespace {

struct PropertyFixture {
  rtf::World world{ZoneId{1}};
  sim::CpuCostModel cpu;
  rtf::CostMeter meter{cpu};
  rtf::TickProbes probes;

  PropertyFixture() { meter.beginTick(probes); }

  void populate(std::size_t n, std::uint64_t seed, Vec2 extent = {1000, 1000}) {
    Rng rng(seed);
    for (std::uint64_t id = 1; id <= n; ++id) {
      rtf::EntityRecord e;
      e.id = EntityId{id};
      e.kind = id % 4 == 0 ? rtf::EntityKind::kNpc : rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      e.client = ClientId{id};
      e.position = {rng.uniform(0, extent.x), rng.uniform(0, extent.y)};
      world.upsert(e);
    }
  }
};

std::vector<EntityId> idsOfSlots(const rtf::World& world, std::span<const std::uint32_t> slots) {
  std::vector<EntityId> ids;
  ids.reserve(slots.size());
  for (const std::uint32_t slot : slots) ids.push_back(EntityId{world.ids()[slot]});
  return ids;
}

std::vector<EntityId> queryOf(InterestPolicy& policy, PropertyFixture& f,
                              rtf::ConstEntityRef viewer, double radius) {
  std::vector<std::uint32_t> out;
  policy.query(f.world, viewer, radius, f.meter, out);
  return idsOfSlots(f.world, out);
}

TEST(InterestProperty, GridMatchesEuclideanAcrossSeedsPopulationsRadiiAndScale) {
  for (const std::uint64_t seed : {11ULL, 97ULL}) {
    for (const std::size_t population : {std::size_t{3}, std::size_t{40}, std::size_t{150}}) {
      for (const double radius : {40.0, 110.0, 300.0}) {
        for (const double scale : {1.0, 0.55}) {
          PropertyFixture f;
          f.populate(population, seed);
          f.world.setInterestScale(scale);

          // Fidelity wrappers so the world's interest scale is honored the
          // same way the overload ladder applies it in production.
          FidelityScaledInterest euclid(std::make_unique<EuclideanInterest>());
          FidelityScaledInterest grid(std::make_unique<GridInterest>(radius * 0.5));
          euclid.prepare(f.world, f.meter);
          grid.prepare(f.world, f.meter);

          f.world.forEach([&](rtf::ConstEntityRef viewer) {
            ASSERT_EQ(queryOf(euclid, f, viewer, radius), queryOf(grid, f, viewer, radius))
                << "seed=" << seed << " n=" << population << " r=" << radius
                << " scale=" << scale << " viewer=" << viewer.id.value;
          });
        }
      }
    }
  }
}

TEST(InterestProperty, StateUpdatesByteIdenticalAcrossPolicies) {
  for (const std::uint64_t seed : {5ULL, 23ULL}) {
    PropertyFixture f;
    f.populate(60, seed);

    FpsConfig euclidConfig;
    FpsConfig gridConfig;
    applyGridInterestProfile(gridConfig);
    FpsApplication euclidApp(euclidConfig);
    FpsApplication gridApp(gridConfig);
    euclidApp.onTickBegin(f.world, f.meter);
    gridApp.onTickBegin(f.world, f.meter);

    f.world.forEach([&](rtf::ConstEntityRef viewer) {
      if (viewer.kind != rtf::EntityKind::kAvatar) return;
      std::vector<std::uint32_t> visibleEuclid;
      std::vector<std::uint32_t> visibleGrid;
      euclidApp.computeAreaOfInterest(f.world, viewer, f.meter, visibleEuclid);
      gridApp.computeAreaOfInterest(f.world, viewer, f.meter, visibleGrid);
      ASSERT_EQ(visibleEuclid, visibleGrid) << "seed=" << seed << " viewer=" << viewer.id.value;

      std::vector<std::uint8_t> bytesEuclid;
      std::vector<std::uint8_t> bytesGrid;
      euclidApp.buildStateUpdate(f.world, viewer, visibleEuclid, f.meter, bytesEuclid);
      gridApp.buildStateUpdate(f.world, viewer, visibleGrid, f.meter, bytesGrid);
      ASSERT_EQ(bytesEuclid, bytesGrid) << "seed=" << seed << " viewer=" << viewer.id.value;
    });
  }
}

TEST(InterestProperty, IncrementalGridMatchesFreshGridUnderChurn) {
  constexpr double kRadius = 110.0;
  constexpr double kCell = 55.0;
  constexpr Vec2 kExtent{1000, 1000};

  PropertyFixture f;
  f.populate(80, 1234);
  Rng rng(4321);
  GridInterest incremental(kCell);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; id <= 80; ++id) ids.push_back(id);
  std::uint64_t nextId = 81;

  for (int round = 0; round < 40; ++round) {
    // Mutate: per-entity jitter moves plus occasional teleports exercise
    // the incremental relocation path; every tenth round teleports most of
    // the world, tripping the moved*4 > n full-rebuild heuristic.
    const bool shuffleRound = round % 10 == 9;
    for (const std::uint64_t id : ids) {
      auto entity = f.world.find(EntityId{id});
      ASSERT_TRUE(entity.has_value());
      const double roll = rng.uniform(0.0, 1.0);
      if (shuffleRound ? roll < 0.6 : roll < 0.05) {
        entity->position = {rng.uniform(0, kExtent.x), rng.uniform(0, kExtent.y)};
      } else if (roll < 0.55) {
        entity->position.x += rng.uniform(-30, 30);
        entity->position.y += rng.uniform(-30, 30);
      }
      if (rng.uniform(0.0, 1.0) < 0.3) {  // handoff: ownership must not matter
        entity->owner = ServerId{rng.uniformInt(1, 4)};
      }
    }
    if (rng.uniform(0.0, 1.0) < 0.4) {  // spawn (bumps the structural epoch)
      rtf::EntityRecord e;
      e.id = EntityId{nextId};
      e.kind = nextId % 3 == 0 ? rtf::EntityKind::kNpc : rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      e.client = ClientId{nextId};
      e.position = {rng.uniform(0, kExtent.x), rng.uniform(0, kExtent.y)};
      f.world.upsert(e);
      ids.push_back(nextId);
      ++nextId;
    }
    if (!ids.empty() && rng.uniform(0.0, 1.0) < 0.3) {  // despawn
      const std::size_t victim = rng.uniformInt(0, ids.size() - 1);
      ASSERT_TRUE(f.world.remove(EntityId{ids[victim]}));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    incremental.prepare(f.world, f.meter);
    GridInterest fresh(kCell);
    fresh.prepare(f.world, f.meter);
    EuclideanInterest oracle;
    oracle.prepare(f.world, f.meter);

    f.world.forEach([&](rtf::ConstEntityRef viewer) {
      const auto truth = queryOf(oracle, f, viewer, kRadius);
      ASSERT_EQ(truth, queryOf(incremental, f, viewer, kRadius))
          << "round=" << round << " viewer=" << viewer.id.value;
      ASSERT_EQ(truth, queryOf(fresh, f, viewer, kRadius))
          << "round=" << round << " viewer=" << viewer.id.value;
    });
  }
}

/// GridInterest in its straightforward form: the same CSR layout and upkeep,
/// a query that appends each hit, adds each candidate's charge inside the
/// candidate loop and sorts once at the end, and a per-cell occupancy sum
/// for scanCandidates. Charges are returned, not charged.
class ReferenceGrid {
 public:
  explicit ReferenceGrid(double cellSize, InterestCosts costs = {})
      : cellSize_(cellSize), costs_(costs) {}

  double prepare(const rtf::World& world) {
    const std::size_t n = world.size();
    if (stale(world)) {
      rebuild(world);
      return costs_.rebuildPerEntityCost * static_cast<double>(n);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> moved;
    const std::span<const Vec2> positions = world.positions();
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint32_t c = cellIndexOf(positions[s]);
      if (c != cellOf_[s]) moved.emplace_back(s, c);
    }
    if (moved.size() * 4 > n) {
      rebuild(world);
      return costs_.rebuildPerEntityCost * static_cast<double>(n);
    }
    for (const auto& [slot, cell] : moved) relocate(slot, cell);
    return costs_.sweepPerEntityCost * static_cast<double>(n) +
           costs_.rebuildPerEntityCost * static_cast<double>(moved.size());
  }

  double query(const rtf::World& world, rtf::ConstEntityRef viewer, double radius,
               std::vector<std::uint32_t>& visible) {
    visible.clear();
    double cost = 0.0;
    if (stale(world)) {
      rebuild(world);
      cost += costs_.rebuildPerEntityCost * static_cast<double>(world.size());
    }
    const std::span<const std::uint64_t> ids = world.ids();
    const std::span<const Vec2> positions = world.positions();
    const double radiusSq = radius * radius;
    const Range r = range(viewer.position, radius);
    for (std::size_t cy = r.loY; cy <= r.hiY; ++cy) {
      const double dy = axisDistance(r.cy, originY_ + cellSize_ * static_cast<double>(cy));
      for (std::size_t cx = r.loX; cx <= r.hiX; ++cx) {
        cost += costs_.cellVisitCost;
        const double dx = axisDistance(r.cx, originX_ + cellSize_ * static_cast<double>(cx));
        if (dx * dx + dy * dy > radiusSq) continue;
        const std::size_t c = cy * cols_ + cx;
        for (std::uint32_t i = cellStart_[c]; i < cellStart_[c + 1]; ++i) {
          const std::uint32_t s = entries_[i];
          if (ids[s] == viewer.id.value) continue;
          cost += costs_.candidateTestCost;
          if (positions[s].distanceSq(viewer.position) <= radiusSq) visible.push_back(s);
        }
      }
    }
    std::sort(visible.begin(), visible.end());
    return cost;
  }

  [[nodiscard]] std::size_t scanCandidates(const rtf::World& world, Vec2 center,
                                           double radius) const {
    if (stale(world)) return world.size();
    const double radiusSq = radius * radius;
    const Range r = range(center, radius);
    std::size_t candidates = 0;
    for (std::size_t cy = r.loY; cy <= r.hiY; ++cy) {
      const double dy = axisDistance(r.cy, originY_ + cellSize_ * static_cast<double>(cy));
      for (std::size_t cx = r.loX; cx <= r.hiX; ++cx) {
        const double dx = axisDistance(r.cx, originX_ + cellSize_ * static_cast<double>(cx));
        if (dx * dx + dy * dy > radiusSq) continue;
        const std::size_t c = cy * cols_ + cx;
        candidates += cellStart_[c + 1] - cellStart_[c];
      }
    }
    return candidates;
  }

 private:
  /// The clamped center and the cell range a circle spans.
  struct Range {
    double cx;
    double cy;
    std::size_t loX;
    std::size_t hiX;
    std::size_t loY;
    std::size_t hiY;
  };

  [[nodiscard]] double axisDistance(double x, double lo) const {
    if (x < lo) return lo - x;
    if (x > lo + cellSize_) return x - lo - cellSize_;
    return 0.0;
  }
  static std::size_t clampCell(double raw, std::size_t cells) {
    if (raw <= 0.0) return 0;
    const auto c = static_cast<std::size_t>(raw);
    return c >= cells ? cells - 1 : c;
  }
  [[nodiscard]] Range range(Vec2 center, double radius) const {
    Range r{};
    r.cx = std::clamp(center.x, originX_, originX_ + cellSize_ * static_cast<double>(cols_));
    r.cy = std::clamp(center.y, originY_, originY_ + cellSize_ * static_cast<double>(rows_));
    r.loX = clampCell(std::floor((r.cx - radius - originX_) / cellSize_), cols_);
    r.hiX = clampCell(std::floor((r.cx + radius - originX_) / cellSize_), cols_);
    r.loY = clampCell(std::floor((r.cy - radius - originY_) / cellSize_), rows_);
    r.hiY = clampCell(std::floor((r.cy + radius - originY_) / cellSize_), rows_);
    return r;
  }
  [[nodiscard]] bool stale(const rtf::World& world) const {
    return !valid_ || epoch_ != world.structuralEpoch() || cellOf_.size() != world.size();
  }
  [[nodiscard]] std::uint32_t cellIndexOf(Vec2 p) const {
    const std::size_t cx = clampCell(std::floor((p.x - originX_) / cellSize_), cols_);
    const std::size_t cy = clampCell(std::floor((p.y - originY_) / cellSize_), rows_);
    return static_cast<std::uint32_t>(cy * cols_ + cx);
  }
  [[nodiscard]] std::size_t axisCells(double extent) const {
    const auto cells = static_cast<std::size_t>(std::floor(extent / cellSize_)) + 3;
    return std::min<std::size_t>(std::max<std::size_t>(cells, 1), 1024);
  }
  void rebuild(const rtf::World& world) {
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
    originX_ = minX - 2.0 * cellSize_;
    originY_ = minY - 2.0 * cellSize_;
    cols_ = axisCells(maxX - originX_);
    rows_ = axisCells(maxY - originY_);
    cellStart_.assign(cols_ * rows_ + 1, 0);
    cellOf_.resize(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      cellOf_[s] = cellIndexOf(positions[s]);
      ++cellStart_[cellOf_[s] + 1];
    }
    for (std::size_t c = 1; c < cellStart_.size(); ++c) cellStart_[c] += cellStart_[c - 1];
    entries_.resize(n);
    std::vector<std::uint32_t> cursor(cellStart_.begin(), cellStart_.end() - 1);
    for (std::uint32_t s = 0; s < n; ++s) entries_[cursor[cellOf_[s]]++] = s;
    epoch_ = world.structuralEpoch();
    valid_ = true;
  }
  void relocate(std::uint32_t slot, std::uint32_t toCell) {
    const std::uint32_t fromCell = cellOf_[slot];
    const auto begin = entries_.begin();
    const auto pos = std::lower_bound(begin + cellStart_[fromCell],
                                      begin + cellStart_[fromCell + 1], slot);
    const auto target =
        std::lower_bound(begin + cellStart_[toCell], begin + cellStart_[toCell + 1], slot);
    if (fromCell < toCell) {
      std::rotate(pos, pos + 1, target);
      for (std::uint32_t c = fromCell + 1; c <= toCell; ++c) --cellStart_[c];
    } else {
      std::rotate(target, pos, pos + 1);
      for (std::uint32_t c = toCell + 1; c <= fromCell; ++c) ++cellStart_[c];
    }
    cellOf_[slot] = toCell;
  }

  double cellSize_;
  InterestCosts costs_;
  bool valid_{false};
  std::uint64_t epoch_{0};
  double originX_{0.0};
  double originY_{0.0};
  std::size_t cols_{1};
  std::size_t rows_{1};
  std::vector<std::uint32_t> cellStart_;
  std::vector<std::uint32_t> entries_;
  std::vector<std::uint32_t> cellOf_;
};

/// The double that `charge(meter)` charged, read back exactly. With speed
/// factor 2^-k the meter records llround(units * 2^k) micros, and k puts
/// `expected` in [2^61, 2^62). Doubles from 2^53 up are integers, so a
/// charge within [expected / 256, 2 * expected) reads back unchanged, and
/// one outside that range cannot read back as `expected`.
template <class Charge>
double chargedUnits(double expected, Charge&& charge) {
  int exponent = 0;
  std::frexp(expected, &exponent);
  sim::CpuCostModel cpu({.speedFactor = std::ldexp(1.0, exponent - 62)});
  rtf::CostMeter meter(cpu);
  rtf::TickProbes probes;
  meter.beginTick(probes);
  charge(meter);
  return std::ldexp(probes.phase(rtf::Phase::kOther), exponent - 62);
}

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

/// n entities, every fourth an NPC: spread over the arena, or packed into
/// a few tight blobs whose cells hold dozens of candidates each.
void populateWorld(rtf::World& world, std::size_t n, bool clustered, Rng& rng) {
  std::vector<Vec2> blobs;
  for (int b = 0; b < 4; ++b) blobs.push_back({rng.uniform(100, 900), rng.uniform(100, 900)});
  for (std::uint64_t id = 1; id <= n; ++id) {
    rtf::EntityRecord e;
    e.id = EntityId{id};
    e.kind = id % 4 == 0 ? rtf::EntityKind::kNpc : rtf::EntityKind::kAvatar;
    e.owner = ServerId{1};
    e.client = ClientId{id};
    if (clustered) {
      const Vec2 blob = blobs[id % blobs.size()];
      e.position = {blob.x + rng.normal(0.0, 20.0), blob.y + rng.normal(0.0, 20.0)};
    } else {
      e.position = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    }
    world.upsert(e);
  }
}

/// Moves entities after prepare() as a tick does: a third step a little, and
/// a few teleport, some of them far outside the grid rect.
void moveAfterPrepare(rtf::World& world, Rng& rng) {
  for (std::uint64_t id = 1; id <= world.size(); ++id) {
    auto entity = world.find(EntityId{id});
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.33) {
      entity->position.x += rng.uniform(-40, 40);
      entity->position.y += rng.uniform(-40, 40);
    } else if (roll < 0.36) {
      entity->position = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    } else if (roll < 0.37) {
      entity->position = {rng.uniform(-3000, 4000), rng.uniform(-3000, 4000)};
    }
  }
}

TEST(InterestProperty, GridMatchesReferenceGridSlotsChargeBitsAndCandidates) {
  constexpr double kCell = 110.0;
  // One pair of policies serves every world, as one policy serves every
  // replica: the bitmap grows with the largest world and must stay clean
  // when a smaller one follows.
  FidelityScaledInterest grid(std::make_unique<GridInterest>(kCell));
  ReferenceGrid reference(kCell);
  Rng rng(2024);
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  std::size_t queries = 0;
  std::size_t hits = 0;
  for (const std::size_t n : {1, 2, 7, 63, 64, 65, 128, 300, 517, 700, 64}) {
    for (const bool clustered : {false, true}) {
      rtf::World world(ZoneId{1});
      populateWorld(world, n, clustered, rng);
      for (const double scale : {1.0, 0.55}) {
        world.setInterestScale(scale);
        for (int round = 0; round < 2; ++round) {
          const double prepared = reference.prepare(world);
          ASSERT_EQ(bitsOf(chargedUnits(prepared, [&](rtf::CostMeter& m) {
                      grid.prepare(world, m);
                    })),
                    bitsOf(prepared))
              << "n=" << n;
          moveAfterPrepare(world, rng);

          const auto check = [&](rtf::ConstEntityRef viewer, double radius) {
            const double expected = reference.query(world, viewer, radius * scale, want);
            const double charged = chargedUnits(
                expected, [&](rtf::CostMeter& m) { grid.query(world, viewer, radius, m, got); });
            ASSERT_EQ(got, want) << "n=" << n << " viewer=" << viewer.id.value << " r=" << radius;
            ASSERT_EQ(bitsOf(charged), bitsOf(expected))
                << "n=" << n << " viewer=" << viewer.id.value << " r=" << radius;
            ++queries;
            hits += got.size();
          };
          for (const double radius : {40.0, 110.0, 220.0, 450.0}) {
            world.forEach([&](rtf::ConstEntityRef viewer) { check(viewer, radius); });
            rtf::EntityRecord outsider;  // outside the grid rect, not in the world
            outsider.id = EntityId{1'000'000};
            outsider.position = {-2500.0, 1800.0};
            check(outsider, radius);
            rtf::EntityRecord absent;  // an id the world does not hold, amid the entities
            absent.id = EntityId{2'000'000};
            absent.position = world.positions()[0];
            check(absent, radius);
            for (int i = 0; i < 20; ++i) {
              const Vec2 center{rng.uniform(-300, 1300), rng.uniform(-300, 1300)};
              ASSERT_EQ(grid.scanCandidates(world, center, radius),
                        reference.scanCandidates(world, center, radius * scale))
                  << "n=" << n << " r=" << radius << " center=" << center.x << "," << center.y;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(queries, 50'000u);
  EXPECT_GT(hits, queries);  // the worlds are dense enough to see something
}

}  // namespace
}  // namespace roia::game
