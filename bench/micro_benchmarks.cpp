// google-benchmark microbenchmarks of the substrate hot paths: framing and
// serialization, delta view replication, the FPS application's AOI / attack
// scans, tick-model and threshold evaluation, and the fitting pipeline.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "fit/levmar.hpp"
#include "fit/polyfit.hpp"
#include "game/commands.hpp"
#include "game/fps_app.hpp"
#include "game/interest.hpp"
#include "game/state_update.hpp"
#include "model/thresholds.hpp"
#include "model/tick_model.hpp"
#include "rtf/messages.hpp"
#include "rtf/snapshot_codec.hpp"
#include "serialize/byte_buffer.hpp"
#include "serialize/message.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace roia;

void BM_FrameEncodeDecode(benchmark::State& state) {
  ser::Frame frame;
  frame.type = ser::MessageType::kStateUpdate;
  frame.payload.assign(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    const auto bytes = ser::encodeFrame(frame);
    const ser::Frame decoded = ser::decodeFrame(bytes);
    benchmark::DoNotOptimize(decoded.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CommandBatchRoundTrip(benchmark::State& state) {
  game::CommandBatch batch;
  batch.move = game::MoveCommand{{0.7, -0.7}};
  batch.attack = game::AttackCommand{EntityId{123456}, {1, 0}};
  for (auto _ : state) {
    const auto bytes = game::encodeCommands(batch);
    const auto decoded = game::decodeCommands(bytes);
    benchmark::DoNotOptimize(&decoded);
  }
}
BENCHMARK(BM_CommandBatchRoundTrip);

void BM_StateUpdateEncode(benchmark::State& state) {
  game::StateUpdatePayload payload;
  payload.self = {EntityId{1}, 0, 0, 100};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    payload.visible.push_back(
        {EntityId{static_cast<std::uint64_t>(i + 2)}, 1.0f, 2.0f, 100.0f});
  }
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes;
    game::encodeStateUpdate(payload, bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_StateUpdateEncode)->Arg(16)->Arg(64)->Arg(256);

void BM_ReplicationMessage(benchmark::State& state) {
  rtf::EntityReplicationMsg msg;
  msg.serverTick = 1;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    rtf::EntitySnapshot snap;
    snap.id = EntityId{static_cast<std::uint64_t>(i)};
    snap.owner = ServerId{1};
    msg.entities.push_back(snap);
  }
  for (auto _ : state) {
    const auto frame = rtf::encode(msg);
    const auto decoded = rtf::decodeEntityReplication(frame);
    benchmark::DoNotOptimize(decoded.entities.data());
  }
}
BENCHMARK(BM_ReplicationMessage)->Arg(32)->Arg(128)->Arg(512);

/// A client-link view of n entities as the server gathers it: ascending
/// ids, pose, health and client, no appData.
rtf::SnapshotView clientView(std::size_t n) {
  Rng rng(3);
  rtf::SnapshotView view(n);
  for (std::size_t i = 0; i < n; ++i) {
    rtf::EntitySnapshot& s = view[i];
    s.id = EntityId{2 * i + 1};
    s.owner = ServerId{1};
    s.client = ClientId{static_cast<std::uint32_t>(i + 1)};
    s.x = static_cast<float>(rng.uniform(400, 600));
    s.y = static_cast<float>(rng.uniform(400, 600));
    s.health = 100.0f;
  }
  return view;
}

/// One steady-state tick: a fifth of the entities move, back and forth so
/// encoded sizes stay bounded however long the benchmark runs.
void moveFifth(rtf::SnapshotView& view, std::uint64_t tick) {
  const float step = (tick / 5) % 2 == 0 ? 0.5f : -0.5f;
  for (std::size_t i = tick % 5; i < view.size(); i += 5) {
    view[i].x += step;
    view[i].y -= step;
  }
}

rtf::ReplicationProfile deltaProfile() {
  rtf::ReplicationProfile profile;
  profile.codec = rtf::ReplicationCodec::kDelta;
  return profile;
}

// One client link in steady state: every view is acked before the next, so
// each encode diffs against the previous tick (plus the periodic keyframe).
void BM_DeltaEncodeView(benchmark::State& state) {
  const rtf::SnapshotCodec codec{deltaProfile()};
  rtf::BaselineSender sender{codec, rtf::kClientViewFields};
  rtf::SnapshotView view = clientView(static_cast<std::size_t>(state.range(0)));
  ser::ByteWriter out;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    moveFifth(view, ++tick);
    out.clear();
    const bool keyframe = sender.encodeView(tick, view, {}, out);
    sender.onAck(tick);
    benchmark::DoNotOptimize(keyframe);
    benchmark::DoNotOptimize(out.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DeltaEncodeView)->Arg(16)->Arg(64)->Arg(256);

// The receiving end of the same link: two keyframe intervals of frames,
// decoded in order and replayed from the first keyframe after a reset.
void BM_DeltaDecodeView(benchmark::State& state) {
  const rtf::SnapshotCodec codec{deltaProfile()};
  std::vector<std::vector<std::uint8_t>> frames;
  {
    rtf::BaselineSender sender{codec, rtf::kClientViewFields};
    rtf::SnapshotView view = clientView(static_cast<std::size_t>(state.range(0)));
    for (std::uint64_t tick = 1; tick <= 2 * codec.profile().keyframeInterval; ++tick) {
      moveFifth(view, tick);
      ser::ByteWriter out;
      sender.encodeView(tick, view, {}, out);
      sender.onAck(tick);
      frames.push_back(std::move(out).take());
    }
  }
  rtf::BaselineReceiver receiver{codec};
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == frames.size()) {
      receiver.reset();
      next = 0;
    }
    auto decoded = receiver.decodeView(frames[next++]);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DeltaDecodeView)->Arg(16)->Arg(64)->Arg(256);

/// World populated with n avatars spread uniformly over the whole
/// 1000x1000 arena (see spreadWorld below).
rtf::World spreadWorld(std::size_t n);

// A server's client links as a session serves them: one link per avatar
// of the n-entity spread arena, each seeing the entities within the AOI
// radius (~45 at n = 300, the calibration density), served round-robin.
// One iteration is one link-tick: move, encode, decode, ack. The working
// set is every link's retained views, so time per link-tick tracks how
// many views each end keeps; `live_views` is the mean a receiver holds at
// the end.
void BM_DeltaLinkSession(benchmark::State& state) {
  const rtf::SnapshotCodec codec{deltaProfile()};
  const rtf::World world = spreadWorld(static_cast<std::size_t>(state.range(0)));
  const double radius = game::FpsConfig{}.aoiRadius;
  struct ClientLink {
    rtf::SnapshotView view;
    rtf::BaselineSender sender;
    rtf::BaselineReceiver receiver;
    std::uint64_t tick{0};
  };
  std::vector<ClientLink> links;
  world.forEach([&](rtf::ConstEntityRef viewer) {
    ClientLink& link = links.emplace_back(
        ClientLink{{}, {codec, rtf::kClientViewFields}, rtf::BaselineReceiver{codec}});
    world.forEach([&](rtf::ConstEntityRef e) {  // ascending ids
      if (viewer.position.distance(e.position) > radius) return;
      rtf::EntitySnapshot& s = link.view.emplace_back();
      s.id = e.id;
      s.owner = e.owner;
      s.client = e.client;
      s.x = static_cast<float>(e.position.x);
      s.y = static_cast<float>(e.position.y);
      s.health = 100.0f;
    });
  });
  ser::ByteWriter out;
  std::size_t next = 0;
  for (auto _ : state) {
    ClientLink& link = links[next];
    next = next + 1 == links.size() ? 0 : next + 1;
    moveFifth(link.view, ++link.tick);
    out.clear();
    link.sender.encodeView(link.tick, link.view, {}, out);
    auto decoded = link.receiver.decodeView(out.bytes());
    if (decoded) link.sender.onAck(decoded->serverTick);
    benchmark::DoNotOptimize(decoded);
  }
  std::size_t live = 0;
  for (const ClientLink& link : links) {
    for (const rtf::RetainedView& slot : link.receiver.retained()) live += slot.live ? 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["live_views"] = static_cast<double>(live) / static_cast<double>(links.size());
}
BENCHMARK(BM_DeltaLinkSession)->Arg(300);

/// World populated with n avatars clustered for maximum AOI work.
rtf::World denseWorld(std::size_t n) {
  rtf::World world(ZoneId{1});
  Rng rng(1);
  for (std::uint64_t id = 1; id <= n; ++id) {
    rtf::EntityRecord e;
    e.id = EntityId{id};
    e.kind = rtf::EntityKind::kAvatar;
    e.owner = ServerId{1};
    e.client = ClientId{id};
    e.position = {rng.uniform(400, 600), rng.uniform(400, 600)};
    world.upsert(e);
  }
  return world;
}

void BM_AreaOfInterest(benchmark::State& state) {
  game::FpsApplication app;
  rtf::World world = denseWorld(static_cast<std::size_t>(state.range(0)));
  sim::CpuCostModel cpu;
  rtf::CostMeter meter(cpu);
  const auto viewer = *world.find(EntityId{1});
  std::vector<std::uint32_t> visible;
  for (auto _ : state) {
    app.computeAreaOfInterest(world, viewer, meter, visible);
    benchmark::DoNotOptimize(visible.data());
  }
}
BENCHMARK(BM_AreaOfInterest)->Arg(50)->Arg(150)->Arg(300);

void BM_AttackResolution(benchmark::State& state) {
  game::FpsApplication app;
  rtf::World world = denseWorld(static_cast<std::size_t>(state.range(0)));
  sim::CpuCostModel cpu;
  rtf::CostMeter meter(cpu);
  Rng rng(2);
  struct NullSink : rtf::ForwardSink {
    void forwardInteraction(EntityId, EntityId, std::vector<std::uint8_t>) override {}
  } sink;
  const auto attacker = *world.find(EntityId{1});
  game::CommandBatch batch;
  batch.attack = game::AttackCommand{EntityId{2}, {1, 0}};
  const auto commands = game::encodeCommands(batch);
  for (auto _ : state) {
    app.applyUserInput(world, attacker, commands, meter, sink, rng);
  }
}
BENCHMARK(BM_AttackResolution)->Arg(50)->Arg(150)->Arg(300);

model::ModelParameters benchParameters() {
  model::ModelParameters params;
  params.set(model::ParamKind::kUaDser, model::ParamFunction::linear(1.0, 0.0015));
  params.set(model::ParamKind::kUa, model::ParamFunction::quadratic(1.2, 0.009, 1.2e-4));
  params.set(model::ParamKind::kAoi, model::ParamFunction::quadratic(0.1, 0.45, 0.8e-4));
  params.set(model::ParamKind::kSu, model::ParamFunction::linear(1.5, 0.2));
  params.set(model::ParamKind::kFaDser, model::ParamFunction::linear(0.55, 0.0007));
  params.set(model::ParamKind::kFa, model::ParamFunction::linear(0.9, 0.0023));
  params.set(model::ParamKind::kMigIni, model::ParamFunction::linear(150.0, 5.0));
  params.set(model::ParamKind::kMigRcv, model::ParamFunction::linear(80.0, 2.2));
  return params;
}

void BM_TickModelEval(benchmark::State& state) {
  const model::TickModel model(benchParameters());
  double n = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.tickMicros(4, n, 100, n / 4));
    n = n < 600 ? n + 1 : 50;
  }
}
BENCHMARK(BM_TickModelEval);

void BM_NMaxSearch(benchmark::State& state) {
  const model::TickModel model(benchParameters());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::nMax(model, 4, 0, 40000.0));
  }
}
BENCHMARK(BM_NMaxSearch);

void BM_LMaxDerivation(benchmark::State& state) {
  const model::TickModel model(benchParameters());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::lMax(model, 0, 40000.0, 0.15).lMax);
  }
}
BENCHMARK(BM_LMaxDerivation);

void BM_PolyFitQuadratic(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> x, y;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double xi = rng.uniform(10, 300);
    x.push_back(xi);
    y.push_back(1.0 + 0.01 * xi + 4e-4 * xi * xi + rng.normal(0, 0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit::polyFit(x, y, 2));
  }
}
BENCHMARK(BM_PolyFitQuadratic)->Arg(256)->Arg(4096);

void BM_LevenbergMarquardt(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> x, y;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double xi = rng.uniform(10, 300);
    x.push_back(xi);
    y.push_back(1.0 + 0.01 * xi + 4e-4 * xi * xi + rng.normal(0, 0.5));
  }
  const auto model = fit::models::quadratic();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit::levenbergMarquardt(model, x, y, {0.0, 0.0, 0.0}));
  }
}
BENCHMARK(BM_LevenbergMarquardt)->Arg(256)->Arg(1024);

void BM_StateUpdateEncodeReuse(benchmark::State& state) {
  game::StateUpdatePayload payload;
  payload.self = {EntityId{1}, 0, 0, 100};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    payload.visible.push_back(
        {EntityId{static_cast<std::uint64_t>(i + 2)}, 1.0f, 2.0f, 100.0f});
  }
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    game::encodeStateUpdate(payload, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StateUpdateEncodeReuse)->Arg(16)->Arg(64)->Arg(256);

void BM_ByteWriterBulkAppend(benchmark::State& state) {
  const std::vector<std::uint8_t> chunk(static_cast<std::size_t>(state.range(0)), 0xA5);
  std::vector<std::uint8_t> reuse;
  for (auto _ : state) {
    ser::ByteWriter writer(std::move(reuse));
    writer.reserve(chunk.size() + 16);
    writer.writeU32(static_cast<std::uint32_t>(chunk.size()));
    writer.appendRaw(chunk.data(), chunk.size());
    reuse = std::move(writer).take();
    benchmark::DoNotOptimize(reuse.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ByteWriterBulkAppend)->Arg(64)->Arg(1024)->Arg(16384);

void BM_WorldForEach(benchmark::State& state) {
  const rtf::World world = denseWorld(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double sum = 0.0;
    world.forEach([&sum](rtf::ConstEntityRef e) { sum += e.position.x; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorldForEach)->Arg(50)->Arg(300)->Arg(1000);

void BM_WorldCensus(benchmark::State& state) {
  const rtf::World world = denseWorld(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const rtf::World::Census census = world.census(ServerId{1});
    benchmark::DoNotOptimize(census.totalAvatars);
  }
}
BENCHMARK(BM_WorldCensus)->Arg(50)->Arg(300)->Arg(1000);

void BM_WorldUpsertRemove(benchmark::State& state) {
  // Churn at the id tail — the common case (spawn new entities, despawn
  // recent ones) hits the append/pop fast path of the slot vector.
  rtf::World world = denseWorld(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t base = static_cast<std::uint64_t>(state.range(0)) + 1;
  for (auto _ : state) {
    rtf::EntityRecord e;
    e.id = EntityId{base};
    e.kind = rtf::EntityKind::kAvatar;
    e.owner = ServerId{1};
    world.upsert(e);
    world.remove(EntityId{base});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldUpsertRemove)->Arg(50)->Arg(300)->Arg(1000);

void BM_GridInterestQuery(benchmark::State& state) {
  rtf::World world = denseWorld(static_cast<std::size_t>(state.range(0)));
  game::GridInterest grid(60.0);
  sim::CpuCostModel cpu;
  rtf::CostMeter meter(cpu);
  grid.prepare(world, meter);  // measure queries against a built index
  const auto viewer = *world.find(EntityId{1});
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    grid.query(world, viewer, 60.0, meter, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GridInterestQuery)->Arg(50)->Arg(150)->Arg(300);

/// World spread uniformly over the whole 1000x1000 arena: the regime the
/// flat grid targets. (denseWorld's 200x200 blob collapses into a handful
/// of cells and measures nothing but the dense-cell scan.)
rtf::World spreadWorld(std::size_t n) {
  rtf::World world(ZoneId{1});
  Rng rng(6);
  for (std::uint64_t id = 1; id <= n; ++id) {
    rtf::EntityRecord e;
    e.id = EntityId{id};
    e.kind = rtf::EntityKind::kAvatar;
    e.owner = ServerId{1};
    e.client = ClientId{id};
    e.position = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    world.upsert(e);
  }
  return world;
}

// The BM_AoiQuerySpread pair is the CI speedup gate for this optimization:
// perf_report.py compares grid against euclidean at n=300 and fails the
// build if the real (wall-clock) ratio drops below its floor.
void BM_AoiQuerySpreadEuclid(benchmark::State& state) {
  rtf::World world = spreadWorld(static_cast<std::size_t>(state.range(0)));
  game::EuclideanInterest euclid;
  sim::CpuCostModel cpu;
  rtf::CostMeter meter(cpu);
  const auto viewer = *world.find(EntityId{1});
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    euclid.query(world, viewer, 110.0, meter, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AoiQuerySpreadEuclid)->Arg(50)->Arg(300);

void BM_AoiQuerySpreadGrid(benchmark::State& state) {
  rtf::World world = spreadWorld(static_cast<std::size_t>(state.range(0)));
  game::GridInterest grid(110.0);
  sim::CpuCostModel cpu;
  rtf::CostMeter meter(cpu);
  grid.prepare(world, meter);
  const auto viewer = *world.find(EntityId{1});
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    grid.query(world, viewer, 110.0, meter, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AoiQuerySpreadGrid)->Arg(50)->Arg(300);

// AOI queries as the paper's session runs them: the FpsConfig AOI radius
// (220) over the spread arena, which sees ~35 of 300 entities against ~10
// at the gate pair's radius 110, and every entity in turn the viewer, as
// in a server tick. One fixed viewer would let the branch predictor learn
// a candidate pattern that a session never repeats. `visible` is the mean
// set size.
void runSessionQueries(benchmark::State& state, game::InterestPolicy& policy) {
  const rtf::World world = spreadWorld(static_cast<std::size_t>(state.range(0)));
  sim::CpuCostModel cpu;
  rtf::CostMeter meter(cpu);
  policy.prepare(world, meter);
  std::vector<rtf::ConstEntityRef> viewers;
  world.forEach([&viewers](rtf::ConstEntityRef e) { viewers.push_back(e); });
  const double radius = game::FpsConfig{}.aoiRadius;
  std::vector<std::uint32_t> out;
  std::size_t next = 0;
  std::size_t visible = 0;
  for (auto _ : state) {
    policy.query(world, viewers[next], radius, meter, out);
    next = next + 1 == viewers.size() ? 0 : next + 1;
    visible += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["visible"] =
      static_cast<double>(visible) / static_cast<double>(state.iterations());
}

void BM_AoiQuerySessionEuclid(benchmark::State& state) {
  game::EuclideanInterest euclid;
  runSessionQueries(state, euclid);
}
BENCHMARK(BM_AoiQuerySessionEuclid)->Arg(300);

// applyGridInterestProfile's geometry: cells of half the radius, so a
// query spans up to 5x5 cells. perf_report.py --require-aoi-speedup also
// requires it to be no slower than BM_AoiQuerySessionEuclid.
void BM_AoiQuerySessionGrid(benchmark::State& state) {
  game::GridInterest grid(game::FpsConfig{}.aoiRadius * 0.5);
  runSessionQueries(state, grid);
}
BENCHMARK(BM_AoiQuerySessionGrid)->Arg(300);

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(SimTime{(i * 37) % 997}, [] {});
    }
    SimTime at;
    while (!queue.empty()) {
      queue.pop(at)();
    }
    benchmark::DoNotOptimize(at);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleDrain);

// A session's queue in steady state: ~500 pending events (the e2e
// sim.queue_peak is 503-1445); each pop is followed by one schedule, and
// every 20th schedule is cancelled and made again (~5% cancels).
void BM_EventQueueSteadyState(benchmark::State& state) {
  constexpr std::size_t kDepth = 500;
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  const auto callback = [counter = &fired] { ++*counter; };
  SimTime at;
  std::uint64_t scheduled = 0;
  auto scheduleOne = [&] {
    ++scheduled;
    const auto delay = static_cast<std::int64_t>(1 + (scheduled * 37) % 997);
    return queue.schedule(SimTime{at.micros + delay}, callback);
  };
  for (std::size_t i = 0; i < kDepth; ++i) scheduleOne();
  std::uint64_t step = 0;
  for (auto _ : state) {
    queue.pop(at)();
    const sim::EventHandle handle = scheduleOne();
    if (++step % 20 == 0) {
      queue.cancel(handle);
      scheduleOne();
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyState);

}  // namespace

BENCHMARK_MAIN();
