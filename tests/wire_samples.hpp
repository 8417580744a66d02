// Golden frame samples: one row per frame type that the server and the
// monitoring collector decode. A row holds the frame type, a fixed sample
// with every field set to a non-default value, a function that runs the
// real decoder and encodes its result again, and the sample's golden
// payload hex. Serialization cost is charged per encoded byte, so a layout
// that moves by one byte moves every measured result.
//
// This table is the one list of frame decoders under tests/:
//   * WireLayoutTest pins every row's bytes and its decode/re-encode;
//   * FuzzTest.MessageDecodersRejectGarbagePayloads feeds random payloads
//     to every row's decoder;
//   * the decode fuzz harness (tests/fuzz) takes its frame decoders and
//     frame seeds from it.
// WireLayoutTest.EveryFrameTypeHasAGoldenPin requires a row for every
// frame type that no hand-written case pins, so a new message needs its
// golden bytes in the same diff. Kept free of gtest: the fuzz harness
// includes it too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "game/state_update.hpp"
#include "rtf/entity.hpp"
#include "rtf/messages.hpp"
#include "rtf/monitoring.hpp"
#include "serialize/message.hpp"

namespace roia::wire_samples {

/// Every field non-default, x/y/vx/vy on the default delta lattices. The
/// full codec writes entity(42) as
/// 2a0103070040f742000034c20000c03f000010c00000af421303deadbe.
inline rtf::EntitySnapshot entity(std::uint64_t id) {
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

inline rtf::MonitoringSnapshot monitoring() {
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
  return m;
}

/// The FPS demo's state-update payload: self, then visible entities 2 and
/// 300. WireLayoutTest pins its bytes (and what both decoders read from
/// them); the fuzz harness seeds its ids-decoder mode with them.
inline game::StateUpdatePayload stateUpdate() {
  return {{EntityId{1}, 10.5f, 20.25f, 90.0f},
          {{EntityId{2}, 1.5f, 2.5f, 50.0f}, {EntityId{300}, -3.0f, 4.0f, 75.0f}}};
}

inline ser::Frame encodeAny(const rtf::MonitoringSnapshot& snapshot) {
  return rtf::encodeMonitoring(snapshot);
}
template <class Msg>
ser::Frame encodeAny(const Msg& msg) {
  return rtf::encode(msg);
}

/// Decodes `frame` with the real decoder, then encodes the result again.
template <auto Decode>
ser::Frame reencode(const ser::Frame& frame) {
  return encodeAny(Decode(frame));
}

struct FrameSample {
  ser::MessageType type;
  ser::Frame (*sample)();
  ser::Frame (*reencode)(const ser::Frame& frame);
  const char* hex;  // golden payload of sample()
};

using ser::MessageType;

// Full snapshots inside messages: 2a...be is entity(42), ac02...be
// entity(300).
inline constexpr FrameSample kFrameSamples[] = {
    {MessageType::kClientInput,
     [] { return rtf::encode(rtf::ClientInputMsg{ClientId{11}, 1234, {1, 2, 3}, 77}); },
     reencode<rtf::decodeClientInput>, "0bd209030102034d"},
    {MessageType::kForwardedInput,
     [] { return rtf::encode(rtf::ForwardedInputMsg{EntityId{21}, EntityId{22}, {9, 8}}); },
     reencode<rtf::decodeForwardedInput>, "1516020908"},
    {MessageType::kEntityReplication,
     [] {
       return rtf::encode(rtf::EntityReplicationMsg{
           500, {entity(42), entity(300)}, {EntityId{5}, EntityId{300}}});
     },
     reencode<rtf::decodeEntityReplication>,
     "f40302"
     "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"
     "ac020103070040f742000034c20000c03f000010c00000af421303deadbe"
     "0205ac02"},
    {MessageType::kMigrationData,
     [] {
       return rtf::encode(rtf::MigrationDataMsg{ClientId{31}, NodeId{32}, entity(42), {4, 5, 6},
                                                ServerId{2}, 0x1234567890});
     },
     reencode<rtf::decodeMigrationData>,
     "1f20"
     "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"
     "030405060290f1d9a2a302"},
    {MessageType::kMigrationAck,
     [] { return rtf::encode(rtf::MigrationAckMsg{ClientId{41}, EntityId{42}, ServerId{43}, 44}); },
     reencode<rtf::decodeMigrationAck>, "292a2b2c"},
    {MessageType::kZoneHandoff,
     [] {
       return rtf::encode(rtf::ZoneHandoffMsg{ClientId{51}, NodeId{52}, ZoneId{1}, ZoneId{2},
                                              entity(42), {7}, ServerId{53}, NodeId{54}, 55});
     },
     reencode<rtf::decodeZoneHandoff>,
     "33340102"
     "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"
     "0107353637"},
    {MessageType::kZoneHandoffAck,
     [] {
       return rtf::encode(
           rtf::ZoneHandoffAckMsg{ClientId{61}, EntityId{62}, ServerId{63}, ZoneId{64}, 65, 66});
     },
     reencode<rtf::decodeZoneHandoffAck>, "3d3e3f404142"},
    {MessageType::kBorderSync,
     [] { return rtf::encode(rtf::BorderSyncMsg{700, ZoneId{3}, ServerId{4}, {entity(42)}}); },
     reencode<rtf::decodeBorderSync>,
     "bc05030401"
     "2a0103070040f742000034c20000c03f000010c00000af421303deadbe"},
    {MessageType::kHeartbeat,
     [] { return rtf::encode(rtf::HeartbeatMsg{ServerId{5}, 99, SimTime{7654321}}); },
     reencode<rtf::decodeHeartbeat>, "0563e2aea607"},
    {MessageType::kViewReplication,
     [] { return rtf::encode(rtf::ViewReplicationMsg{800, ServerId{6}, {0xaa, 0xbb}}); },
     reencode<rtf::decodeViewReplication>, "a0060602aabb"},
    {MessageType::kReplicationAck,
     [] { return rtf::encode(rtf::ReplicationAckMsg{ServerId{7}, 801}); },
     reencode<rtf::decodeReplicationAck>, "07a106"},
    {MessageType::kMonitoring, [] { return rtf::encodeMonitoring(monitoring()); },
     reencode<rtf::decodeMonitoring>,
     "080280ade20478820128"
     "0000000000002940" "0000000000403440" "0000000000804040" "000000000000e83f"
     "0000c9420000cb420000cd420000cf420000d1420000d3420000d5420000d7420000d9420000db42"
     "1903040506070209"},
};

}  // namespace roia::wire_samples
