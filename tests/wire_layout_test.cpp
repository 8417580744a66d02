// Golden bytes for every wire layout. Each layout gets one fixed instance
// with every field set to a non-default value; its encoding must equal hex
// captured from the encoders in use when the case was added, and decoding
// those bytes must give back an equal value. Equality is checked on the
// wire image: the decoded value must encode to the golden bytes again,
// which it cannot if a field came back wrong or default. Serialization cost
// is charged per encoded byte, so a layout that moves by one byte moves
// every measured result.
//
// Frame payloads come from the one table in wire_samples.hpp; the layouts
// below it (snapshot entries, game payloads and the hand-written frame,
// envelope, command and view encoders) are pinned inline, and
// EveryFrameTypeHasAGoldenPin holds each ser::MessageType to one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "game/commands.hpp"
#include "game/player_stats.hpp"
#include "game/state_update.hpp"
#include "rtf/messages.hpp"
#include "rtf/reliable.hpp"
#include "rtf/snapshot_codec.hpp"
#include "serialize/byte_buffer.hpp"
#include "serialize/message.hpp"
#include "wire_samples.hpp"

namespace roia {
namespace {

using wire_samples::entity;

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// Full-codec image of a view, for comparing decoded views.
std::string viewHex(std::span<const rtf::EntitySnapshot> view) {
  ser::ByteWriter writer;
  for (const rtf::EntitySnapshot& snapshot : view) {
    rtf::SnapshotCodec::writeSnapshot(writer, snapshot);
  }
  return hex(writer.bytes());
}

/// Where the payload bytes of each frame type are pinned. There is no
/// default label, so -Wswitch names a frame type added without a pin.
enum class Pin { kSampleRow, kHandWritten, kNotAType };

Pin pinOf(ser::MessageType type) {
  using ser::MessageType;
  switch (type) {
    case MessageType::kClientInput:
    case MessageType::kForwardedInput:
    case MessageType::kEntityReplication:
    case MessageType::kMigrationData:
    case MessageType::kMigrationAck:
    case MessageType::kMonitoring:
    case MessageType::kHeartbeat:
    case MessageType::kZoneHandoff:
    case MessageType::kZoneHandoffAck:
    case MessageType::kBorderSync:
    case MessageType::kViewReplication:
    case MessageType::kReplicationAck:
      return Pin::kSampleRow;
    case MessageType::kStateUpdate:   // "state update frame"
    case MessageType::kReliableData:  // "reliable envelope and ack"
    case MessageType::kReliableAck:   // "reliable envelope and ack"
    case MessageType::kViewUpdate:    // "baseline views", its payload
      return Pin::kHandWritten;
  }
  return Pin::kNotAType;
}

TEST(WireLayoutTest, EveryFrameTypeHasAGoldenPin) {
  for (std::uint32_t value = 0; value <= 0xFFFF; ++value) {
    const auto type = static_cast<ser::MessageType>(value);
    const Pin pin = pinOf(type);
    if (pin == Pin::kNotAType) continue;
    const auto rows = std::count_if(
        std::begin(wire_samples::kFrameSamples), std::end(wire_samples::kFrameSamples),
        [&](const wire_samples::FrameSample& row) { return row.type == type; });
    EXPECT_EQ(rows, pin == Pin::kSampleRow ? 1 : 0) << "frame type " << value;
  }
}

TEST(WireLayoutTest, EveryWalkedLayoutMatchesGoldenBytes) {
  for (const wire_samples::FrameSample& row : wire_samples::kFrameSamples) {
    SCOPED_TRACE(::testing::Message() << "frame type " << static_cast<int>(row.type));
    const ser::Frame frame = row.sample();
    EXPECT_EQ(frame.type, row.type);
    EXPECT_EQ(hex(frame.payload), row.hex);
    EXPECT_EQ(hex(row.reencode(frame).payload), row.hex);
  }
  {
    SCOPED_TRACE("EntitySnapshot");
    ser::ByteWriter writer;
    rtf::SnapshotCodec::writeSnapshot(writer, entity(42));
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
    const rtf::EntitySnapshot now = entity(42);  // on both lattices
    rtf::EntryDiff diff = codec.diff(base, now, rtf::kAllFields);
    diff.mask = rtf::kAllFields;  // every field on the wire, changed or not
    ser::ByteWriter writer;
    codec.writeEntry(writer, &base, now, diff);
    EXPECT_EQ(hex(writer.bytes()), "ff07010307f405a001101b0000af421203deadbe");
    ser::ByteReader reader(writer.bytes());
    rtf::EntitySnapshot decoded;
    codec.readEntry(reader, base.id, &base, decoded);
    EXPECT_TRUE(reader.atEnd());
    ser::ByteWriter again;
    rtf::SnapshotCodec::writeSnapshot(again, decoded);
    ser::ByteWriter expected;
    rtf::SnapshotCodec::writeSnapshot(expected, now);
    EXPECT_EQ(hex(again.bytes()), hex(expected.bytes()));
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
    std::vector<std::uint8_t> bytes;
    game::encodeStateUpdate(wire_samples::stateUpdate(), bytes);
    EXPECT_EQ(hex(bytes),
              "01000028410000a2410000b442"
              "02"
              "020000c03f0000204000004842"
              "ac02000040c00000804000009642");
    std::vector<std::uint8_t> again;
    game::encodeStateUpdate(game::decodeStateUpdate(bytes), again);
    EXPECT_EQ(again, bytes);
    // The bots' ids decoder walks the same rows.
    std::vector<EntityId> ids;
    game::decodeVisibleIds(bytes, ids);
    EXPECT_EQ(ids, (std::vector<EntityId>{EntityId{2}, EntityId{300}}));
  }
  {
    SCOPED_TRACE("list count beyond the payload");
    // serverTick 1, then 200 entities announced with 2 payload bytes left.
    const ser::Frame frame{ser::MessageType::kEntityReplication, {0x01, 0xc8, 0x01, 0x00, 0x00}};
    EXPECT_THROW((void)rtf::decodeEntityReplication(frame), ser::DecodeError);
  }
}

// Layouts written call by call rather than walked. Frame bytes count toward
// bandwidth, command bytes are charged through inputDserPerByteCost and
// view bytes through updateSerPerByteCost.
TEST(WireLayoutTest, HandWrittenLayoutsMatchGoldenBytes) {
  using ser::MessageType;
  const ser::Frame ack{MessageType::kMigrationAck, {0x29, 0x2a, 0x2b, 0x2c}};
  {
    SCOPED_TRACE("frame header and CRC");
    const std::vector<std::uint8_t> bytes = ser::encodeFrame(ack);
    // magic, type, payload length, payload, CRC-32.
    EXPECT_EQ(hex(bytes), "f152" "0700" "04" "292a2b2c" "8a1de8ec");
    const ser::Frame decoded = ser::decodeFrame(bytes);
    EXPECT_EQ(decoded.type, ack.type);
    EXPECT_EQ(decoded.payload, ack.payload);
  }
  {
    SCOPED_TRACE("reliable envelope and ack");
    const ser::Frame envelope = rtf::encodeReliableEnvelope(300, ack);
    EXPECT_EQ(envelope.type, MessageType::kReliableData);
    EXPECT_EQ(hex(envelope.payload), "ac02" "0700" "292a2b2c");
    const auto [seq, inner] = rtf::decodeReliableEnvelope(envelope);
    EXPECT_EQ(seq, 300u);
    EXPECT_EQ(inner.type, ack.type);
    EXPECT_EQ(inner.payload, ack.payload);
    const ser::Frame reliableAck = rtf::encodeReliableAck(300);
    EXPECT_EQ(reliableAck.type, MessageType::kReliableAck);
    EXPECT_EQ(hex(reliableAck.payload), "ac02");
    EXPECT_EQ(rtf::decodeReliableAck(reliableAck), 300u);
  }
  {
    SCOPED_TRACE("commands: move only");
    game::CommandBatch batch;
    batch.move = game::MoveCommand{Vec2{0.5, -0.75}};
    const std::vector<std::uint8_t> bytes = game::encodeCommands(batch);
    EXPECT_EQ(hex(bytes), "01" "0000003f" "000040bf");
    EXPECT_EQ(game::encodeCommands(game::decodeCommands(bytes)), bytes);
  }
  {
    SCOPED_TRACE("commands: move and attack");
    game::CommandBatch batch;
    batch.move = game::MoveCommand{Vec2{-0.25, 1.0}};
    batch.attack = game::AttackCommand{EntityId{300}, Vec2{0.75, -1.5}};
    const std::vector<std::uint8_t> bytes = game::encodeCommands(batch);
    EXPECT_EQ(hex(bytes), "03" "000080be" "0000803f" "ac02" "0000403f" "0000c0bf");
    EXPECT_EQ(game::encodeCommands(game::decodeCommands(bytes)), bytes);
  }
  {
    SCOPED_TRACE("state update frame");
    const std::uint8_t update[] = {1, 2, 3};
    const ser::Frame frame = rtf::SnapshotCodec::encodeStateUpdate(1234, update);
    EXPECT_EQ(frame.type, MessageType::kStateUpdate);
    EXPECT_EQ(hex(frame.payload), "d209" "03010203");
    const rtf::StateUpdateMsg decoded = rtf::SnapshotCodec::decodeStateUpdate(frame);
    EXPECT_EQ(decoded.serverTick, 1234u);
    EXPECT_EQ(hex(decoded.update), "010203");
  }
  {
    SCOPED_TRACE("baseline views: keyframe, then delta with one removal");
    rtf::ReplicationProfile profile;
    profile.codec = rtf::ReplicationCodec::kDelta;
    const rtf::SnapshotCodec codec{profile};
    rtf::BaselineSender sender{codec, rtf::kAllFields};
    rtf::BaselineReceiver receiver{codec};
    rtf::SnapshotView view;
    for (const std::uint64_t id : {1, 2, 300}) view.push_back(entity(id));

    ser::ByteWriter keyframe;
    EXPECT_TRUE(sender.encodeView(5, view, {}, keyframe));
    // keyframe flag, tick, count; per entity the id gap, then a full entry.
    EXPECT_EQ(hex(keyframe.bytes()),
              "01" "05" "03"
              "01" "ff07010307f41e9f0b18230000af422603deadbe"
              "01" "ff07010307f41e9f0b18230000af422603deadbe"
              "aa02" "ff07010307f41e9f0b18230000af422603deadbe"
              "00");
    auto decoded = receiver.decodeView(keyframe.bytes());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(viewHex(decoded->view), viewHex(view));

    sender.onAck(5);
    rtf::EntitySnapshot& second = view[1];  // id 2
    second.x += 5.0f;
    second.health -= 12.5f;
    second.version += 1;
    view.pop_back();  // id 300
    const EntityId removed[] = {EntityId{300}};
    ser::ByteWriter delta;
    EXPECT_FALSE(sender.encodeView(6, view, removed, delta));
    // delta flag, tick, baseline tick, count; id 1 unchanged (mask 0); id 2
    // with x, health and version; then the removed ids.
    EXPECT_EQ(hex(delta.bytes()),
              "00" "06" "05" "02"
              "01" "00"
              "01" "31" "a001" "00009642" "02"
              "01" "ac02");
    decoded = receiver.decodeView(delta.bytes());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(viewHex(decoded->view), viewHex(view));
    EXPECT_EQ(std::vector<EntityId>(decoded->removed.begin(), decoded->removed.end()),
              std::vector<EntityId>{EntityId{300}});
  }
}

}  // namespace
}  // namespace roia
