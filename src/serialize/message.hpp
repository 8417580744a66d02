// Message framing for the simulated wire protocol.
//
// A frame is: magic (u16) | type (u16) | payload length (varint) | payload |
// crc32 of everything before the crc. The frame layer is shared by user
// inputs, forwarded inputs, state updates and migration transfers, so the
// byte counts it produces drive both bandwidth accounting and serialization
// cost in the CPU model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serialize/byte_buffer.hpp"

namespace roia::ser {

/// Wire-level message kinds understood by the RTF substrate. Application
/// payloads (move/attack commands, entity updates) are nested inside.
enum class MessageType : std::uint16_t {
  kClientInput = 1,        // client -> server: one user command batch
  kStateUpdate = 2,        // server -> client: filtered world delta
  kForwardedInput = 3,     // server -> server: interaction crossing replicas
  kEntityReplication = 4,  // server -> server: active-entity state for shadows
  kMigrationData = 6,      // server -> server: serialized user + entity state
  kMigrationAck = 7,       // server -> server: adoption confirmed
  kMonitoring = 9,         // server -> manager: monitoring snapshot
  kReliableData = 10,      // reliable-delivery envelope around another frame
  kReliableAck = 11,       // ack for one reliable sequence number
  kHeartbeat = 12,         // server -> manager: liveness beacon
  kZoneHandoff = 13,       // server -> server: cross-zone user hand-over
  kZoneHandoffAck = 14,    // server -> server: cross-zone adoption confirmed
  kBorderSync = 15,        // server -> server: border-entity state for
                           // cross-zone AOI shadows (best-effort)
  kViewUpdate = 16,        // server -> client: delta-codec view payload
  kViewReplication = 17,   // server -> server: delta-codec replica view
  kReplicationAck = 18,    // receiver -> sender: delta baseline ack
};

/// An encoded frame plus its decoded header, as seen by the network layer.
struct Frame {
  MessageType type{};  // 0 is no type: every sender sets one
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::size_t payloadSize() const { return payload.size(); }
};

constexpr std::uint16_t kFrameMagic = 0x52F1;  // "RTF-1"

/// Encodes a frame; the returned bytes are what travels on the (simulated)
/// wire, so their size is the unit of bandwidth accounting.
[[nodiscard]] std::vector<std::uint8_t> encodeFrame(const Frame& frame);

/// Decodes and validates one frame (magic + CRC). Throws DecodeError on any
/// malformation.
[[nodiscard]] Frame decodeFrame(std::span<const std::uint8_t> bytes);

/// Size in bytes that encodeFrame would produce, without encoding.
[[nodiscard]] std::size_t encodedFrameSize(std::size_t payloadSize);

}  // namespace roia::ser
