// Golden bytes for every walked wire layout. Each struct with a wire()
// field walker gets one fixed instance with every field set to a
// non-default value; its encoding must equal hex captured from the
// hand-written encoders the walkers replaced, and decoding those bytes must
// give back an equal value. Equality is checked on the wire image: the
// decoded value must encode to the golden bytes again, which it cannot if
// a field came back wrong or default. Serialization cost is charged per
// encoded byte, so a layout that moves by one byte moves every measured
// result.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "game/commands.hpp"
#include "game/player_stats.hpp"
#include "game/state_update.hpp"
#include "rtf/messages.hpp"
#include "rtf/monitoring.hpp"
#include "rtf/snapshot_codec.hpp"
#include "serialize/byte_buffer.hpp"

namespace roia {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

rtf::EntitySnapshot snapshot(std::uint64_t id) {
  rtf::EntitySnapshot s;
  s.id = EntityId{id};
  s.kind = rtf::EntityKind::kNpc;
  s.owner = ServerId{3};
  s.client = ClientId{7};
  s.x = 123.625f;
  s.y = -45.0f;
  s.vx = 1.5f;
  s.vy = -2.25f;
  s.health = 87.5f;
  s.version = 19;
  s.appData = {0xde, 0xad, 0xbe};
  return s;
}

/// Encodes `value` as a frame of `type`, checks the payload against
/// `golden`, then decodes it and encodes the decoded value again.
template <class Msg, class Decode>
void expectFrame(const Msg& value, ser::MessageType type, Decode decode,
                 const std::string& golden) {
  const ser::Frame frame = rtf::encode(value);
  EXPECT_EQ(frame.type, type);
  EXPECT_EQ(hex(frame.payload), golden);
  EXPECT_EQ(hex(rtf::encode(decode(frame)).payload), golden);
}

TEST(WireLayoutTest, EveryWalkedLayoutMatchesGoldenBytes) {
  using ser::MessageType;

  {
    SCOPED_TRACE("EntitySnapshot");
    ser::ByteWriter writer;
    rtf::SnapshotCodec::writeSnapshot(writer, snapshot(42));
    EXPECT_EQ(hex(writer.bytes()), "2a0103070040f742000034c20000c03f000010c00000af421303deadbe");
    ser::ByteReader reader(writer.bytes());
    ser::ByteWriter again;
    rtf::SnapshotCodec::writeSnapshot(again, rtf::SnapshotCodec::readSnapshot(reader));
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(hex(again.bytes()), hex(writer.bytes()));
  }
  {
    SCOPED_TRACE("delta entry");
    const rtf::SnapshotCodec codec{rtf::ReplicationProfile{}};
    rtf::EntitySnapshot base;
    base.id = EntityId{42};
    base.owner = ServerId{1};
    base.client = ClientId{2};
    base.x = 100.0f;
    base.y = -50.0f;
    base.vx = 0.5f;
    base.vy = -0.5f;
    base.version = 10;
    const rtf::EntitySnapshot now = snapshot(42);  // on both lattices
    ser::ByteWriter writer;
    codec.writeEntry(writer, &base, now, rtf::kAllFields);
    EXPECT_EQ(hex(writer.bytes()), "ff07010307f405a001101b0000af421203deadbe");
    const rtf::SnapshotView baseline{{base.id, base}};
    ser::ByteReader reader(writer.bytes());
    const rtf::EntitySnapshot decoded = codec.readEntry(reader, base.id, &baseline);
    EXPECT_TRUE(reader.atEnd());
    ser::ByteWriter again;
    rtf::SnapshotCodec::writeSnapshot(again, decoded);
    ser::ByteWriter expected;
    rtf::SnapshotCodec::writeSnapshot(expected, now);
    EXPECT_EQ(hex(again.bytes()), hex(expected.bytes()));
  }

  // Full snapshots inside messages: 2a...be is snapshot(42), ac02...be
  // snapshot(300).
  expectFrame(rtf::ClientInputMsg{ClientId{11}, 1234, {1, 2, 3}, 77}, MessageType::kClientInput,
              rtf::decodeClientInput, "0bd209030102034d");
  expectFrame(rtf::ForwardedInputMsg{EntityId{21}, EntityId{22}, {9, 8}},
              MessageType::kForwardedInput, rtf::decodeForwardedInput, "1516020908");
  expectFrame(rtf::EntityReplicationMsg{500, {snapshot(42), snapshot(300)},
                                        {EntityId{5}, EntityId{300}}},
              MessageType::kEntityReplication, rtf::decodeEntityReplication,
              "f40302"
              "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"
              "ac020103070040f742000034c20000c03f000010c00000af421303deadbe"
              "0205ac02");
  expectFrame(rtf::MigrationDataMsg{ClientId{31}, NodeId{32}, snapshot(42), {4, 5, 6}, ServerId{2},
                                    0x1234567890},
              MessageType::kMigrationData, rtf::decodeMigrationData,
              "1f20"
              "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"
              "030405060290f1d9a2a302");
  expectFrame(rtf::MigrationAckMsg{ClientId{41}, EntityId{42}, ServerId{43}, 44},
              MessageType::kMigrationAck, rtf::decodeMigrationAck, "292a2b2c");
  expectFrame(rtf::ZoneHandoffMsg{ClientId{51}, NodeId{52}, ZoneId{1}, ZoneId{2}, snapshot(42),
                                  {7}, ServerId{53}, NodeId{54}, 55},
              MessageType::kZoneHandoff, rtf::decodeZoneHandoff,
              "33340102"
              "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"
              "0107353637");
  expectFrame(rtf::ZoneHandoffAckMsg{ClientId{61}, EntityId{62}, ServerId{63}, ZoneId{64}, 65, 66},
              MessageType::kZoneHandoffAck, rtf::decodeZoneHandoffAck, "3d3e3f404142");
  expectFrame(rtf::BorderSyncMsg{700, ZoneId{3}, ServerId{4}, {snapshot(42)}},
              MessageType::kBorderSync, rtf::decodeBorderSync,
              "bc05030401"
              "2a0103070040f742000034c20000c03f000010c00000af421303deadbe");
  expectFrame(rtf::HeartbeatMsg{ServerId{5}, 99, SimTime{7654321}}, MessageType::kHeartbeat,
              rtf::decodeHeartbeat, "0563e2aea607");
  expectFrame(rtf::ViewReplicationMsg{800, ServerId{6}, {0xaa, 0xbb}},
              MessageType::kViewReplication, rtf::decodeViewReplication, "a0060602aabb");
  expectFrame(rtf::ReplicationAckMsg{ServerId{7}, 801}, MessageType::kReplicationAck,
              rtf::decodeReplicationAck, "07a106");

  {
    SCOPED_TRACE("MonitoringSnapshot");
    rtf::MonitoringSnapshot m;
    m.server = ServerId{8};
    m.zone = ZoneId{2};
    m.takenAt = SimTime{5000000};
    m.activeUsers = 120;
    m.totalAvatars = 130;
    m.npcs = 40;
    m.tickAvgMs = 12.5;
    m.tickP95Ms = 20.25;
    m.tickMaxMs = 33.0;
    m.cpuLoad = 0.75;
    for (std::size_t p = 0; p < m.phaseAvgMicros.size(); ++p) {
      m.phaseAvgMicros[p] = 100.5 + static_cast<double>(p);  // exact in F32
    }
    m.ticksObserved = 25;
    m.migrationsInitiated = 3;
    m.migrationsReceived = 4;
    m.borderShadows = 5;
    m.handoffsInitiated = 6;
    m.handoffsReceived = 7;
    m.degradationLevel = 2;
    m.shedObservers = 9;
    const ser::Frame frame = rtf::encodeMonitoring(m);
    EXPECT_EQ(frame.type, MessageType::kMonitoring);
    EXPECT_EQ(hex(frame.payload),
              "080280ade20478820128"
              "0000000000002940" "0000000000403440" "0000000000804040" "000000000000e83f"
              "0000c9420000cb420000cd420000cf420000d1420000d3420000d5420000d7420000d9420000db42"
              "1903040506070209");
    EXPECT_EQ(hex(rtf::encodeMonitoring(rtf::decodeMonitoring(frame)).payload), hex(frame.payload));
  }
  {
    SCOPED_TRACE("PlayerStats");
    const game::PlayerStats stats{3, 4, 1500};
    const std::vector<std::uint8_t> bytes = game::encodeStats(stats);
    EXPECT_EQ(hex(bytes), "0304dc0b");
    EXPECT_EQ(game::decodeStats(bytes), stats);
  }
  {
    SCOPED_TRACE("Interaction");
    const game::Interaction interaction{game::Interaction::Kind::kKillCredit, 12.5};
    const std::vector<std::uint8_t> bytes = game::encodeInteraction(interaction);
    EXPECT_EQ(hex(bytes), "020000000000002940");
    EXPECT_EQ(game::encodeInteraction(game::decodeInteraction(bytes)), bytes);
  }
  {
    SCOPED_TRACE("StateUpdatePayload");
    const game::StateUpdatePayload payload{
        {EntityId{1}, 10.5f, 20.25f, 90.0f},
        {{EntityId{2}, 1.5f, 2.5f, 50.0f}, {EntityId{300}, -3.0f, 4.0f, 75.0f}}};
    std::vector<std::uint8_t> bytes;
    game::encodeStateUpdate(payload, bytes);
    EXPECT_EQ(hex(bytes),
              "01000028410000a2410000b442"
              "02"
              "020000c03f0000204000004842"
              "ac02000040c00000804000009642");
    std::vector<std::uint8_t> again;
    game::encodeStateUpdate(game::decodeStateUpdate(bytes), again);
    EXPECT_EQ(again, bytes);
  }
  {
    SCOPED_TRACE("list count beyond the payload");
    // serverTick 1, then 200 entities announced with 2 payload bytes left.
    const ser::Frame frame{MessageType::kEntityReplication, {0x01, 0xc8, 0x01, 0x00, 0x00}};
    EXPECT_THROW((void)rtf::decodeEntityReplication(frame), ser::DecodeError);
  }
}

}  // namespace
}  // namespace roia
