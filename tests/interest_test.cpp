// Tests for the interest-management module: both algorithms must return
// identical visibility sets (the grid is an exact index, not an
// approximation), while their costs scale differently with population.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "game/fps_app.hpp"
#include "game/interest.hpp"
#include "rtf/world.hpp"

namespace roia::game {
namespace {

struct Fixture {
  rtf::World world{ZoneId{1}};
  sim::CpuCostModel cpu;
  rtf::CostMeter meter{cpu};
  rtf::TickProbes probes;

  Fixture() { meter.beginTick(probes); }

  void populate(std::size_t n, std::uint64_t seed, Vec2 extent = {1000, 1000}) {
    Rng rng(seed);
    for (std::uint64_t id = 1; id <= n; ++id) {
      rtf::EntityRecord e;
      e.id = EntityId{id};
      e.kind = rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      e.client = ClientId{id};
      e.position = {rng.uniform(0, extent.x), rng.uniform(0, extent.y)};
      world.upsert(e);
    }
  }

  double chargedCost() {
    double total = 0.0;
    for (const double v : probes.phaseMicros) total += v;
    return total;
  }
};

std::vector<EntityId> idsOfSlots(const rtf::World& world, std::span<const std::uint32_t> slots) {
  std::vector<EntityId> ids;
  ids.reserve(slots.size());
  for (const std::uint32_t slot : slots) ids.push_back(EntityId{world.ids()[slot]});
  return ids;
}

std::vector<EntityId> queryOf(InterestPolicy& policy, Fixture& f, rtf::ConstEntityRef viewer,
                              double radius) {
  std::vector<std::uint32_t> out;
  policy.query(f.world, viewer, radius, f.meter, out);
  return idsOfSlots(f.world, out);
}

class InterestEquivalence : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(InterestEquivalence, GridMatchesEuclideanExactly) {
  const auto [population, radius] = GetParam();
  Fixture f;
  f.populate(population, 40 + population);

  EuclideanInterest euclid;
  GridInterest grid(radius);  // cell size = radius
  euclid.prepare(f.world, f.meter);
  grid.prepare(f.world, f.meter);

  f.world.forEach([&](rtf::ConstEntityRef viewer) {
    const auto fromEuclid = queryOf(euclid, f, viewer, radius);
    const auto fromGrid = queryOf(grid, f, viewer, radius);
    ASSERT_EQ(fromEuclid, fromGrid) << "viewer " << viewer.id.value << " n=" << population
                                    << " r=" << radius;
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, InterestEquivalence,
                         ::testing::Combine(::testing::Values(10u, 60u, 150u),
                                            ::testing::Values(50.0, 220.0, 500.0)));

TEST(InterestTest, RandomizedWorldsGridMatchesEuclidean) {
  // Property test: on worlds with random extents, radii, clustering and a
  // mix of avatars and NPCs, both policies must return the same visible set
  // for every viewer — while reusing their output buffers across calls.
  Rng scenarioRng(20260805);
  for (int round = 0; round < 12; ++round) {
    Fixture f;
    const std::size_t n = 5 + static_cast<std::size_t>(scenarioRng.uniform(0, 120));
    const Vec2 extent{scenarioRng.uniform(100, 1500), scenarioRng.uniform(100, 1500)};
    const double radius = scenarioRng.uniform(10, 600);
    Rng rng(1000 + static_cast<std::uint64_t>(round));
    for (std::uint64_t id = 1; id <= n; ++id) {
      rtf::EntityRecord e;
      e.id = EntityId{id};
      e.kind = (id % 4 == 0) ? rtf::EntityKind::kNpc : rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      if (e.isAvatar()) e.client = ClientId{id};
      // Half the population clusters into a corner blob to stress dense cells.
      e.position = (id % 2 == 0)
                       ? Vec2{rng.uniform(0, extent.x * 0.2), rng.uniform(0, extent.y * 0.2)}
                       : Vec2{rng.uniform(0, extent.x), rng.uniform(0, extent.y)};
      f.world.upsert(e);
    }

    EuclideanInterest euclid;
    GridInterest grid(radius);
    euclid.prepare(f.world, f.meter);
    grid.prepare(f.world, f.meter);

    std::vector<std::uint32_t> euclidOut;
    std::vector<std::uint32_t> gridOut;
    f.world.forEach([&](rtf::ConstEntityRef viewer) {
      euclid.query(f.world, viewer, radius, f.meter, euclidOut);
      grid.query(f.world, viewer, radius, f.meter, gridOut);
      ASSERT_EQ(euclidOut, gridOut)
          << "round " << round << " viewer " << viewer.id.value << " n=" << n << " r=" << radius;
    });
  }
}

TEST(InterestTest, QueryCostIndependentOfBufferReuse) {
  // The scratch-buffer API must charge the same simulated cost whether the
  // caller reuses one vector across calls or hands over a fresh one each
  // time — cost models the work, not the allocation pattern.
  Fixture reuseFixture;
  reuseFixture.populate(80, 11);
  Fixture freshFixture;
  freshFixture.populate(80, 11);

  for (const bool useGrid : {false, true}) {
    std::unique_ptr<InterestPolicy> reusePolicy;
    std::unique_ptr<InterestPolicy> freshPolicy;
    if (useGrid) {
      reusePolicy = std::make_unique<GridInterest>(220.0);
      freshPolicy = std::make_unique<GridInterest>(220.0);
    } else {
      reusePolicy = std::make_unique<EuclideanInterest>();
      freshPolicy = std::make_unique<EuclideanInterest>();
    }
    reusePolicy->prepare(reuseFixture.world, reuseFixture.meter);
    freshPolicy->prepare(freshFixture.world, freshFixture.meter);
    std::vector<std::uint32_t> scratch;
    reuseFixture.world.forEach([&](rtf::ConstEntityRef viewer) {
      reusePolicy->query(reuseFixture.world, viewer, 220.0, reuseFixture.meter, scratch);
    });
    freshFixture.world.forEach([&](rtf::ConstEntityRef viewer) {
      std::vector<std::uint32_t> fresh;
      freshPolicy->query(freshFixture.world, viewer, 220.0, freshFixture.meter, fresh);
    });
  }
  EXPECT_DOUBLE_EQ(reuseFixture.chargedCost(), freshFixture.chargedCost());
}

TEST(InterestTest, GridHandlesEdgePositions) {
  Fixture f;
  // Entities exactly on cell boundaries and arena corners.
  std::uint64_t id = 1;
  for (const Vec2 pos : {Vec2{0, 0}, Vec2{220, 220}, Vec2{440, 0}, Vec2{999.99, 999.99},
                         Vec2{220, 0}, Vec2{0, 220}}) {
    rtf::EntityRecord e;
    e.id = EntityId{id++};
    e.kind = rtf::EntityKind::kAvatar;
    e.owner = ServerId{1};
    e.position = pos;
    f.world.upsert(e);
  }
  EuclideanInterest euclid;
  GridInterest grid(220.0);
  grid.prepare(f.world, f.meter);
  f.world.forEach([&](rtf::ConstEntityRef viewer) {
    ASSERT_EQ(queryOf(euclid, f, viewer, 220.0), queryOf(grid, f, viewer, 220.0));
  });
}

TEST(InterestTest, GridQueryCheaperAtScaleWithLocalClusters) {
  // Viewer in one corner, the mass of the population in the opposite one:
  // the grid touches only nearby cells while Euclidean scans everyone.
  auto costOf = [](bool useGrid) {
    Fixture f;
    rtf::EntityRecord viewer;
    viewer.id = EntityId{1};
    viewer.kind = rtf::EntityKind::kAvatar;
    viewer.owner = ServerId{1};
    viewer.position = {10, 10};
    f.world.upsert(viewer);
    Rng rng(3);
    for (std::uint64_t id = 2; id <= 400; ++id) {
      rtf::EntityRecord e;
      e.id = EntityId{id};
      e.kind = rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      e.position = {rng.uniform(800, 1000), rng.uniform(800, 1000)};
      f.world.upsert(e);
    }
    std::unique_ptr<InterestPolicy> policy;
    if (useGrid) {
      policy = std::make_unique<GridInterest>(220.0);
    } else {
      policy = std::make_unique<EuclideanInterest>();
    }
    policy->prepare(f.world, f.meter);
    const double costBefore = f.chargedCost();
    std::vector<std::uint32_t> out;
    policy->query(f.world, *f.world.find(EntityId{1}), 220.0, f.meter, out);
    return f.chargedCost() - costBefore;  // query cost only
  };
  EXPECT_LT(costOf(true), 0.25 * costOf(false));
}

TEST(InterestTest, GridPrepareCostScalesWithPopulation) {
  auto prepareCost = [](std::size_t n) {
    Fixture f;
    f.populate(n, 7);
    GridInterest grid(220.0);
    grid.prepare(f.world, f.meter);
    return f.chargedCost();
  };
  EXPECT_NEAR(prepareCost(200), 2.0 * prepareCost(100), prepareCost(100) * 0.1);
}

TEST(InterestTest, FpsApplicationSwapsPolicies) {
  FpsConfig config;
  FpsApplication app(config);
  EXPECT_EQ(app.interestPolicy().name(), "euclidean");
  app.setInterestPolicy(std::make_unique<GridInterest>(config.aoiRadius));
  EXPECT_EQ(app.interestPolicy().name(), "grid");
  app.setInterestPolicy(nullptr);  // ignored
  EXPECT_EQ(app.interestPolicy().name(), "grid");

  // AOI queries through the app now go through the grid and still work.
  Fixture f;
  f.populate(50, 9);
  app.onTickBegin(f.world, f.meter);
  std::vector<std::uint32_t> visible;
  app.computeAreaOfInterest(f.world, *f.world.find(EntityId{1}), f.meter, visible);
  FpsApplication euclidApp(config);
  euclidApp.onTickBegin(f.world, f.meter);
  std::vector<std::uint32_t> fromEuclid;
  euclidApp.computeAreaOfInterest(f.world, *f.world.find(EntityId{1}), f.meter, fromEuclid);
  EXPECT_EQ(visible, fromEuclid);
}

TEST(InterestTest, SharedGridRebuildsForAnotherWorldAtTheSameEpoch) {
  // One GridInterest serves every replica of a zone, and structural epochs
  // are per world. World a (30 spawns, 20 removes) and world b (50 spawns)
  // both sit at epoch 50 with different slot counts: a layout built for one
  // must not be patched incrementally for the other.
  Fixture a;
  a.populate(30, 7);
  for (std::uint64_t id = 1; id <= 20; ++id) a.world.remove(EntityId{id});
  Fixture b;
  b.populate(50, 8);
  ASSERT_EQ(a.world.structuralEpoch(), b.world.structuralEpoch());
  ASSERT_NE(a.world.size(), b.world.size());

  constexpr double kRadius = 220.0;
  for (const bool smallerFirst : {true, false}) {
    Fixture& first = smallerFirst ? a : b;
    Fixture& second = smallerFirst ? b : a;
    GridInterest grid(kRadius);
    EuclideanInterest euclid;
    grid.prepare(first.world, first.meter);
    grid.prepare(second.world, second.meter);
    second.world.forEach([&](rtf::ConstEntityRef viewer) {
      ASSERT_EQ(queryOf(euclid, second, viewer, kRadius), queryOf(grid, second, viewer, kRadius))
          << "viewer " << viewer.id.value << (smallerFirst ? " (a then b)" : " (b then a)");
    });
  }
}

TEST(InterestTest, EmptyWorldQueriesAreSafe) {
  Fixture f;
  rtf::EntityRecord lonely;
  lonely.id = EntityId{1};
  lonely.kind = rtf::EntityKind::kAvatar;
  lonely.owner = ServerId{1};
  lonely.position = {500, 500};
  f.world.upsert(lonely);
  EuclideanInterest euclid;
  GridInterest grid(220.0);
  grid.prepare(f.world, f.meter);
  EXPECT_TRUE(queryOf(euclid, f, lonely, 220.0).empty());
  EXPECT_TRUE(queryOf(grid, f, lonely, 220.0).empty());
}

}  // namespace
}  // namespace roia::game
