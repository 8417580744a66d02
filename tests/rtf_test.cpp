// Tests for the RTF substrate: world storage, wire-message codecs, the
// monitoring window, and the cost meter / probes plumbing.
#include <gtest/gtest.h>

#include "rtf/messages.hpp"
#include "rtf/monitoring.hpp"
#include "rtf/probes.hpp"
#include "rtf/world.hpp"

namespace roia::rtf {
namespace {

EntityRecord makeAvatar(std::uint64_t id, std::uint64_t owner, Vec2 pos = {0, 0}) {
  EntityRecord e;
  e.id = EntityId{id};
  e.kind = EntityKind::kAvatar;
  e.zone = ZoneId{1};
  e.owner = ServerId{owner};
  e.client = ClientId{id + 1000};
  e.position = pos;
  e.version = 1;
  return e;
}

// ---------- world ----------

TEST(WorldTest, UpsertFindRemove) {
  World world(ZoneId{1});
  world.upsert(makeAvatar(1, 1));
  world.upsert(makeAvatar(2, 1));
  EXPECT_EQ(world.size(), 2u);
  EXPECT_TRUE(world.contains(EntityId{1}));
  ASSERT_TRUE(world.find(EntityId{2}).has_value());
  EXPECT_EQ(world.find(EntityId{2})->client, ClientId{1002});
  EXPECT_TRUE(world.remove(EntityId{1}));
  EXPECT_FALSE(world.remove(EntityId{1}));
  EXPECT_EQ(world.size(), 1u);
  EXPECT_FALSE(world.find(EntityId{1}).has_value());
}

TEST(WorldTest, UpsertReplacesExisting) {
  World world(ZoneId{1});
  world.upsert(makeAvatar(5, 1));
  EntityRecord updated = makeAvatar(5, 2, {9, 9});
  world.upsert(updated);
  EXPECT_EQ(world.size(), 1u);
  EXPECT_EQ(world.find(EntityId{5})->owner, ServerId{2});
  EXPECT_DOUBLE_EQ(world.find(EntityId{5})->position.x, 9.0);
}

TEST(WorldTest, IterationIsAscendingById) {
  World world(ZoneId{1});
  for (std::uint64_t id : {9, 3, 7, 1, 5}) world.upsert(makeAvatar(id, 1));
  std::vector<std::uint64_t> seen;
  world.forEach([&](ConstEntityRef e) { seen.push_back(e.id.value); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 3, 5, 7, 9}));
}

TEST(WorldTest, CountsByOwnerAndKind) {
  World world(ZoneId{1});
  world.upsert(makeAvatar(1, 1));
  world.upsert(makeAvatar(2, 1));
  world.upsert(makeAvatar(3, 2));
  EntityRecord npc = makeAvatar(4, 1);
  npc.kind = EntityKind::kNpc;
  npc.client = ClientId{};
  world.upsert(npc);

  EXPECT_EQ(world.activeCount(ServerId{1}), 3u);
  EXPECT_EQ(world.activeCount(ServerId{2}), 1u);
  EXPECT_EQ(world.avatarCount(), 3u);
  EXPECT_EQ(world.npcCount(), 1u);
  EXPECT_EQ(world.activeIds(ServerId{1}), (std::vector<EntityId>{EntityId{1}, EntityId{2},
                                                                 EntityId{4}}));
}

TEST(EntityRecordTest, ActiveShadowPredicate) {
  const EntityRecord e = makeAvatar(1, 3);
  EXPECT_TRUE(e.activeOn(ServerId{3}));
  EXPECT_FALSE(e.activeOn(ServerId{4}));
  EXPECT_TRUE(e.isAvatar());
  EXPECT_FALSE(e.isNpc());
}

TEST(EntitySnapshotTest, RoundTripThroughRecord) {
  EntityRecord e = makeAvatar(42, 7, {3.5, -2.25});
  e.velocity = {1.0, -1.0};
  e.health = 61.5;
  e.version = 99;
  const EntitySnapshot snap = EntitySnapshot::of(e);
  EntityRecord restored;
  restored.id = snap.id;
  snap.applyTo(restored);
  EXPECT_EQ(restored.owner, e.owner);
  EXPECT_EQ(restored.client, e.client);
  EXPECT_NEAR(restored.position.x, 3.5, 1e-6);
  EXPECT_NEAR(restored.health, 61.5, 1e-6);
  EXPECT_EQ(restored.version, 99u);
}

// ---------- messages ----------

TEST(MessagesTest, ClientInputRoundTrip) {
  ClientInputMsg msg{ClientId{7}, 123, {1, 2, 3}};
  const ClientInputMsg decoded = decodeClientInput(encode(msg));
  EXPECT_EQ(decoded.client, ClientId{7});
  EXPECT_EQ(decoded.clientTick, 123u);
  EXPECT_EQ(decoded.commands, msg.commands);
}

TEST(MessagesTest, StateUpdateRoundTrip) {
  const std::vector<std::uint8_t> update{9, 9, 9, 9};
  // The decoded update views the frame's payload, so the frame must outlive it.
  const ser::Frame frame = SnapshotCodec::encodeStateUpdate(55, update);
  const StateUpdateMsg decoded = SnapshotCodec::decodeStateUpdate(frame);
  EXPECT_EQ(decoded.serverTick, 55u);
  EXPECT_EQ(std::vector<std::uint8_t>(decoded.update.begin(), decoded.update.end()), update);
}

TEST(MessagesTest, ForwardedInputRoundTrip) {
  ForwardedInputMsg msg{EntityId{10}, EntityId{20}, {0xAA}};
  const ForwardedInputMsg decoded = decodeForwardedInput(encode(msg));
  EXPECT_EQ(decoded.target, EntityId{10});
  EXPECT_EQ(decoded.source, EntityId{20});
  EXPECT_EQ(decoded.interaction, msg.interaction);
}

TEST(MessagesTest, EntityReplicationRoundTrip) {
  EntityReplicationMsg msg;
  msg.serverTick = 9;
  msg.entities.push_back(EntitySnapshot::of(makeAvatar(1, 2, {1, 2})));
  msg.entities.push_back(EntitySnapshot::of(makeAvatar(3, 2, {4, 5})));
  msg.removed = {EntityId{77}, EntityId{88}};
  const EntityReplicationMsg decoded = decodeEntityReplication(encode(msg));
  ASSERT_EQ(decoded.entities.size(), 2u);
  EXPECT_EQ(decoded.entities[1].id, EntityId{3});
  EXPECT_EQ(decoded.removed, msg.removed);
  EXPECT_EQ(decoded.serverTick, 9u);
}

TEST(MessagesTest, MigrationRoundTrip) {
  MigrationDataMsg msg;
  msg.client = ClientId{5};
  msg.clientNode = NodeId{17};
  msg.entity = EntitySnapshot::of(makeAvatar(8, 2));
  msg.appState = {1, 2, 3, 4};
  msg.source = ServerId{1};
  const MigrationDataMsg decoded = decodeMigrationData(encode(msg));
  EXPECT_EQ(decoded.client, ClientId{5});
  EXPECT_EQ(decoded.clientNode, NodeId{17});
  EXPECT_EQ(decoded.entity.id, EntityId{8});
  EXPECT_EQ(decoded.appState, msg.appState);
  EXPECT_EQ(decoded.source, ServerId{1});

  MigrationAckMsg ack{ClientId{5}, EntityId{8}, ServerId{2}};
  const MigrationAckMsg decodedAck = decodeMigrationAck(encode(ack));
  EXPECT_EQ(decodedAck.client, ClientId{5});
  EXPECT_EQ(decodedAck.entity, EntityId{8});
  EXPECT_EQ(decodedAck.newOwner, ServerId{2});
}

TEST(MessagesTest, WrongTypeRejected) {
  ClientInputMsg msg{ClientId{1}, 0, {}};
  const ser::Frame frame = encode(msg);
  EXPECT_THROW((void)SnapshotCodec::decodeStateUpdate(frame), ser::DecodeError);
  EXPECT_THROW(decodeMigrationData(frame), ser::DecodeError);
}

// ---------- probes & meter ----------

TEST(CostMeterTest, ChargesCurrentPhase) {
  sim::CpuCostModel cpu;
  CostMeter meter(cpu);
  TickProbes probes;
  meter.beginTick(probes);
  meter.setPhase(Phase::kUa);
  meter.charge(10.0);
  meter.charge(5.0);
  meter.chargeTo(Phase::kAoi, 3.0);
  meter.endTick();
  EXPECT_DOUBLE_EQ(probes.phase(Phase::kUa), 15.0);
  EXPECT_DOUBLE_EQ(probes.phase(Phase::kAoi), 3.0);
  EXPECT_DOUBLE_EQ(probes.totalMicros(), 18.0);
}

TEST(CostMeterTest, NoTickNoCrash) {
  sim::CpuCostModel cpu;
  CostMeter meter(cpu);
  EXPECT_EQ(meter.charge(10.0).micros, 10);  // charges time, records nowhere
}

TEST(CostMeterTest, PhaseScopeRestores) {
  sim::CpuCostModel cpu;
  CostMeter meter(cpu);
  meter.setPhase(Phase::kSu);
  {
    PhaseScope scope(meter, Phase::kMigIni);
    EXPECT_EQ(meter.phase(), Phase::kMigIni);
  }
  EXPECT_EQ(meter.phase(), Phase::kSu);
}

TEST(TickProbesTest, TotalsAndNames) {
  TickProbes probes;
  probes.phaseMicros[static_cast<std::size_t>(Phase::kUa)] = 100.0;
  probes.phaseMicros[static_cast<std::size_t>(Phase::kSu)] = 50.0;
  EXPECT_DOUBLE_EQ(probes.totalMicros(), 150.0);
  EXPECT_EQ(probes.totalDuration().micros, 150);
  EXPECT_STREQ(phaseName(Phase::kUaDser), "t_ua_dser");
  EXPECT_STREQ(phaseName(Phase::kMigRcv), "t_mig_rcv");
}

TEST(MonitoringWindowTest, AveragesOverWindow) {
  MonitoringWindow window(SimDuration::seconds(1));
  for (int i = 0; i < 5; ++i) {
    TickProbes probes;
    probes.start = SimTime{i * 40000};
    probes.phaseMicros[static_cast<std::size_t>(Phase::kUa)] = 1000.0 * (i + 1);
    window.record(probes);
  }
  MonitoringSnapshot snapshot;
  window.fill(snapshot);
  EXPECT_NEAR(snapshot.tickAvgMs, 3.0, 1e-9);   // mean of 1..5 ms
  EXPECT_NEAR(snapshot.tickMaxMs, 5.0, 1e-9);
  EXPECT_NEAR(snapshot.phaseAvgMicros[static_cast<std::size_t>(Phase::kUa)], 3000.0, 1e-9);
}

TEST(MonitoringWindowTest, EvictsOldTicks) {
  MonitoringWindow window(SimDuration::milliseconds(100));
  TickProbes old;
  old.start = SimTime{0};
  old.phaseMicros[0] = 99000.0;
  window.record(old);
  TickProbes recent;
  recent.start = SimTime{1000000};
  recent.phaseMicros[0] = 1000.0;
  window.record(recent);
  MonitoringSnapshot snapshot;
  window.fill(snapshot);
  EXPECT_NEAR(snapshot.tickAvgMs, 1.0, 1e-9);
  EXPECT_EQ(window.sampleCount(), 1u);
}

TEST(MonitoringWindowTest, EmptyWindowSafe) {
  MonitoringWindow window;
  MonitoringSnapshot snapshot;
  window.fill(snapshot);
  EXPECT_DOUBLE_EQ(snapshot.tickAvgMs, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.tickMaxMs, 0.0);
}

}  // namespace
}  // namespace roia::rtf
