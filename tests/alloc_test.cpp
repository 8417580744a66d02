// Steady-state hot paths allocate nothing. This binary replaces global
// operator new/delete with malloc/free plus a counter that is armed only
// inside the measured scope, so it lives apart from roia_tests.
//
// Delta replication: each round is one link tick: move ~20% of the
// entities, encode the view into a reused ByteWriter, decode it, and ack
// it. After a short warm-up (the link ends fill their retained-view
// buffers) every round must run without a single heap allocation, on a
// client link (at W = 1 and at the default window) and on a replica link.
//
// The event queue at a steady depth of pending events, the full-codec
// receive path of a bot (frame decode, then the update's ids), and a tick
// of grid interest queries must not allocate either once warmed up.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "game/bots.hpp"
#include "game/interest.hpp"
#include "game/state_update.hpp"
#include "rtf/snapshot_codec.hpp"
#include "rtf/world.hpp"
#include "serialize/byte_buffer.hpp"
#include "sim/event_queue.hpp"

namespace {

bool gArmed = false;
std::size_t gAllocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (gArmed) ++gAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace roia::rtf {
namespace {

/// Counts the allocations made while it is alive.
class AllocationScope {
 public:
  AllocationScope() {
    gAllocations = 0;
    gArmed = true;
  }
  ~AllocationScope() { gArmed = false; }
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  [[nodiscard]] std::size_t count() const { return gAllocations; }
};

struct LinkRun {
  std::size_t allocations{0};
  std::size_t applied{0};
};

/// Runs 3 warm-up rounds, then counts the allocations of 100 more.
LinkRun runLink(const ReplicationProfile& profile, FieldMask fields, SnapshotView view) {
  const SnapshotCodec codec{profile};
  BaselineSender sender{codec, fields};
  BaselineReceiver receiver{codec};
  ser::ByteWriter out;
  out.reserve(64 * 1024);
  std::uint64_t tick = 0;
  std::size_t applied = 0;
  auto round = [&] {
    ++tick;
    // A fifth of the entities move each round, back and forth, so the
    // encoded sizes stay bounded.
    for (std::size_t i = 0; i < view.size(); ++i) {
      if ((i + tick) % 5 != 0) continue;
      const float step = (tick / 5) % 2 == 0 ? 1.0f : -1.0f;
      view[i].x += step;
      view[i].y -= step;
      view[i].version += 1;
    }
    out.clear();
    sender.encodeView(tick, view, {}, out);
    const auto decoded = receiver.decodeView(out.bytes());
    if (!decoded) return;
    ++applied;
    sender.onAck(decoded->serverTick);
  };

  for (int i = 0; i < 3; ++i) round();
  LinkRun run;
  {
    const AllocationScope scope;
    for (int i = 0; i < 100; ++i) round();
    run.allocations = scope.count();
  }
  run.applied = applied;
  return run;
}

SnapshotView makeView(std::size_t entities, std::size_t appDataBytes) {
  SnapshotView view(entities);
  for (std::size_t i = 0; i < entities; ++i) {
    EntitySnapshot& s = view[i];
    s.id = EntityId{3 * i + 1};
    s.owner = ServerId{1};
    s.client = ClientId{static_cast<std::uint32_t>(100 + i)};
    s.x = 10.0f + static_cast<float>(i);
    s.y = 20.0f - static_cast<float>(i);
    s.vx = 0.5f;
    s.vy = -0.25f;
    s.health = 100.0f;
    s.version = i;
    s.appData.assign(appDataBytes, static_cast<std::uint8_t>(i));
  }
  return view;
}

// Acked every round, a receiver holds the view its last delta named and the
// newest, and decodes the next into a third slot: three view buffers,
// filled one per round in the warm-up. W = 1 caps it there even without
// the floor (W+1 views and one more slot).
ReplicationProfile deltaProfile() {
  ReplicationProfile profile;
  profile.codec = ReplicationCodec::kDelta;
  profile.baselineAckWindow = 1;
  return profile;
}

TEST(AllocationTest, ClientLinkSteadyStateAllocatesNothing) {
  const LinkRun run = runLink(deltaProfile(), kClientViewFields, makeView(64, 0));
  EXPECT_EQ(run.applied, 103u);
  EXPECT_EQ(run.allocations, 0u);
}

// The default window, W = 16: the floor alone keeps the receiver at three
// slots. A periodic keyframe keeps one more view for a round (a fourth
// slot), so keyframes are pushed past the run.
TEST(AllocationTest, ClientLinkAtTheDefaultWindowAllocatesNothing) {
  ReplicationProfile profile;
  profile.codec = ReplicationCodec::kDelta;
  profile.keyframeInterval = 1000;
  ASSERT_EQ(profile.baselineAckWindow, 16u);
  const LinkRun run = runLink(profile, kClientViewFields, makeView(64, 0));
  EXPECT_EQ(run.applied, 103u);
  EXPECT_EQ(run.allocations, 0u);
}

TEST(AllocationTest, ReplicaLinkSteadyStateAllocatesNothing) {
  ReplicationProfile profile = deltaProfile();
  profile.positionScale = 0.0;
  profile.velocityScale = 0.0;
  const LinkRun run = runLink(profile, kAllFields, makeView(64, 3));
  EXPECT_EQ(run.applied, 103u);
  EXPECT_EQ(run.allocations, 0u);
}

// ~500 pending events, as in a managed session (its queue peaks at
// 503-1445). Each round pops 500 and schedules a replacement for each; every
// 20th replacement is cancelled and scheduled again, so the depth holds.
TEST(AllocationTest, EventQueueSteadyDepthAllocatesNothing) {
  constexpr std::size_t kDepth = 500;
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  // The size of the simulator's `[this]` callbacks.
  const auto callback = [counter = &fired] { ++*counter; };
  static_assert(sizeof(callback) == sizeof(void*));
  SimTime at;
  std::uint64_t scheduled = 0;
  auto scheduleOne = [&] {
    ++scheduled;
    const auto delay = static_cast<std::int64_t>(1 + (scheduled * 37) % 997);
    return queue.schedule(SimTime{at.micros + delay}, callback);
  };
  for (std::size_t i = 0; i < kDepth; ++i) scheduleOne();
  auto round = [&] {
    for (std::size_t i = 0; i < kDepth; ++i) {
      queue.pop(at)();
      const sim::EventHandle handle = scheduleOne();
      if (i % 20 == 0) {
        queue.cancel(handle);
        scheduleOne();
      }
    }
  };

  for (int i = 0; i < 3; ++i) round();
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    for (int i = 0; i < 100; ++i) round();
    allocations = scope.count();
  }
  EXPECT_EQ(fired, 103u * kDepth);
  EXPECT_EQ(queue.size(), kDepth);
  EXPECT_EQ(allocations, 0u);
}

// A bot's receive path under the full codec: the frame's update is read in
// place and only the visible ids are decoded, into the bot's own list.
// Visible sets vary in size; the warm-up includes the largest.
TEST(AllocationTest, FullCodecReceivePathAllocatesNothing) {
  std::vector<ser::Frame> frames;
  std::vector<std::size_t> sizes;
  {
    game::StateUpdatePayload payload;
    payload.self = {EntityId{1}, 10.0f, 20.0f, 100.0f};
    std::vector<std::uint8_t> update;
    for (const std::size_t n : {12, 40, 0, 25, 7, 33}) {
      payload.visible.clear();
      for (std::size_t i = 0; i < n; ++i) {
        payload.visible.push_back({EntityId{2 + 3 * i}, static_cast<float>(i),
                                   -static_cast<float>(i), 90.0f});
      }
      game::encodeStateUpdate(payload, update);
      frames.push_back(SnapshotCodec::encodeStateUpdate(frames.size() + 1, update));
      sizes.push_back(n);
    }
  }
  game::BotProvider bot;
  std::size_t seen = 0;
  auto round = [&](std::size_t r) {
    const StateUpdateMsg msg = SnapshotCodec::decodeStateUpdate(frames[r % frames.size()]);
    bot.onStateUpdate(msg.update);
    seen += bot.lastVisibleCount();
  };

  for (std::size_t r = 0; r < frames.size(); ++r) round(r);
  seen = 0;
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    for (std::size_t r = 0; r < 100; ++r) round(r);
    allocations = scope.count();
  }
  std::size_t expected = 0;
  for (std::size_t r = 0; r < 100; ++r) expected += sizes[r % sizes.size()];
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(allocations, 0u);
}

// A grid-interest tick: prepare, then one query per entity, over a world
// where a fifth of the entities walk 15 units a round, four rounds one
// way and four back, some of them across cell edges (prepare relocates
// them). Positions are whole numbers plus a half, so the walk returns to
// exactly the same world every 8 rounds, and the warm-up covers one period.
TEST(AllocationTest, GridQuerySteadyStateAllocatesNothing) {
  constexpr std::uint64_t kEntities = 300;
  World world(ZoneId{1});
  Rng rng(3);
  for (std::uint64_t id = 1; id <= kEntities; ++id) {
    EntityRecord e;
    e.id = EntityId{id};
    e.owner = ServerId{1};
    e.client = ClientId{id};
    e.position = {static_cast<double>(rng.uniformInt(0, 1000)) + 0.5,
                  static_cast<double>(rng.uniformInt(0, 1000)) + 0.5};
    world.upsert(e);
  }
  // The session's geometry: radius 220 over cells of 110.
  game::GridInterest grid(110.0);
  sim::CpuCostModel cpu;
  CostMeter meter(cpu);
  TickProbes probes;
  meter.beginTick(probes);
  std::vector<std::uint32_t> visible;
  std::size_t seen = 0;
  std::uint64_t tick = 0;
  auto round = [&] {
    const double step = (tick / 4) % 2 == 0 ? 15.0 : -15.0;
    ++tick;
    for (std::uint64_t id = 5; id <= kEntities; id += 5) {
      world.find(EntityId{id})->position.x += step;
    }
    grid.prepare(world, meter);
    world.forEach([&](ConstEntityRef viewer) {
      grid.query(world, viewer, 220.0, meter, visible);
      seen += visible.size();
    });
  };

  for (int i = 0; i < 8; ++i) round();
  seen = 0;
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    for (int i = 0; i < 100; ++i) round();
    allocations = scope.count();
  }
  EXPECT_GT(seen, 100u * kEntities);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace roia::rtf
