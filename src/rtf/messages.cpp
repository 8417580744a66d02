#include "rtf/messages.hpp"

#include "serialize/wire.hpp"

namespace roia::rtf {

// One field walker per message, in wire order (serialize/wire.hpp).
// roia-lint's serialization-coverage rule requires every declared field of
// each *Msg struct to appear in its walker.

template <class IO>
void wire(IO& io, ser::WireRef<IO, ClientInputMsg> msg) {
  io.var(msg.client.value);
  io.var(msg.clientTick);
  io.bytes(msg.commands);
  // Optional trailing ack: absent when zero, so full-codec frames keep the
  // exact legacy byte image.
  io.tailVar(msg.viewAck);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ForwardedInputMsg> msg) {
  io.var(msg.target.value);
  io.var(msg.source.value);
  io.bytes(msg.interaction);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, EntityReplicationMsg> msg) {
  io.var(msg.serverTick);
  io.list(msg.entities, [&](auto& snapshot) { wire(io, snapshot); });
  io.list(msg.removed, [&](auto& id) { io.var(id.value); });
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, MigrationDataMsg> msg) {
  io.var(msg.client.value);
  io.var(msg.clientNode.value);
  wire(io, msg.entity);
  io.bytes(msg.appState);
  io.var(msg.source.value);
  io.var(msg.traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, MigrationAckMsg> msg) {
  io.var(msg.client.value);
  io.var(msg.entity.value);
  io.var(msg.newOwner.value);
  io.var(msg.traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ZoneHandoffMsg> msg) {
  io.var(msg.client.value);
  io.var(msg.clientNode.value);
  io.var(msg.fromZone.value);
  io.var(msg.toZone.value);
  wire(io, msg.entity);
  io.bytes(msg.appState);
  io.var(msg.source.value);
  io.var(msg.sourceNode.value);
  io.var(msg.traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ZoneHandoffAckMsg> msg) {
  io.var(msg.client.value);
  io.var(msg.entity.value);
  io.var(msg.newOwner.value);
  io.var(msg.newZone.value);
  io.var(msg.version);
  io.var(msg.traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, BorderSyncMsg> msg) {
  io.var(msg.serverTick);
  io.var(msg.zone.value);
  io.var(msg.source.value);
  io.list(msg.entities, [&](auto& snapshot) { wire(io, snapshot); });
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, HeartbeatMsg> msg) {
  io.var(msg.server.value);
  io.var(msg.seq);
  io.svar(msg.sentAt.micros);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ViewReplicationMsg> msg) {
  io.var(msg.serverTick);
  io.var(msg.source.value);
  io.bytes(msg.view);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ReplicationAckMsg> msg) {
  io.var(msg.acker.value);
  io.var(msg.tick);
}

using ser::MessageType;

ser::Frame encode(const ClientInputMsg& msg) {
  return ser::encodeWireFrame(MessageType::kClientInput, msg, 16 + msg.commands.size());
}

ClientInputMsg decodeClientInput(const ser::Frame& frame) {
  return ser::decodeWireFrame<ClientInputMsg>(frame, MessageType::kClientInput);
}

ser::Frame encode(const ForwardedInputMsg& msg) {
  return ser::encodeWireFrame(MessageType::kForwardedInput, msg, 20 + msg.interaction.size());
}

ForwardedInputMsg decodeForwardedInput(const ser::Frame& frame) {
  return ser::decodeWireFrame<ForwardedInputMsg>(frame, MessageType::kForwardedInput);
}

ser::Frame encode(const EntityReplicationMsg& msg) {
  return ser::encodeWireFrame(MessageType::kEntityReplication, msg, 8 + msg.entities.size() * 32);
}

EntityReplicationMsg decodeEntityReplication(const ser::Frame& frame) {
  return ser::decodeWireFrame<EntityReplicationMsg>(frame, MessageType::kEntityReplication);
}

ser::Frame encode(const MigrationDataMsg& msg) {
  return ser::encodeWireFrame(MessageType::kMigrationData, msg, 48 + msg.appState.size());
}

MigrationDataMsg decodeMigrationData(const ser::Frame& frame) {
  return ser::decodeWireFrame<MigrationDataMsg>(frame, MessageType::kMigrationData);
}

ser::Frame encode(const MigrationAckMsg& msg) {
  return ser::encodeWireFrame(MessageType::kMigrationAck, msg, 32);
}

MigrationAckMsg decodeMigrationAck(const ser::Frame& frame) {
  return ser::decodeWireFrame<MigrationAckMsg>(frame, MessageType::kMigrationAck);
}

ser::Frame encode(const ZoneHandoffMsg& msg) {
  return ser::encodeWireFrame(MessageType::kZoneHandoff, msg, 64 + msg.appState.size());
}

ZoneHandoffMsg decodeZoneHandoff(const ser::Frame& frame) {
  return ser::decodeWireFrame<ZoneHandoffMsg>(frame, MessageType::kZoneHandoff);
}

ser::Frame encode(const ZoneHandoffAckMsg& msg) {
  return ser::encodeWireFrame(MessageType::kZoneHandoffAck, msg, 40);
}

ZoneHandoffAckMsg decodeZoneHandoffAck(const ser::Frame& frame) {
  return ser::decodeWireFrame<ZoneHandoffAckMsg>(frame, MessageType::kZoneHandoffAck);
}

ser::Frame encode(const BorderSyncMsg& msg) {
  return ser::encodeWireFrame(MessageType::kBorderSync, msg, 16 + msg.entities.size() * 32);
}

BorderSyncMsg decodeBorderSync(const ser::Frame& frame) {
  return ser::decodeWireFrame<BorderSyncMsg>(frame, MessageType::kBorderSync);
}

ser::Frame encode(const HeartbeatMsg& msg) {
  return ser::encodeWireFrame(MessageType::kHeartbeat, msg, 24);
}

HeartbeatMsg decodeHeartbeat(const ser::Frame& frame) {
  return ser::decodeWireFrame<HeartbeatMsg>(frame, MessageType::kHeartbeat);
}

ser::Frame encode(const ViewReplicationMsg& msg) {
  return ser::encodeWireFrame(MessageType::kViewReplication, msg, 16 + msg.view.size());
}

ViewReplicationMsg decodeViewReplication(const ser::Frame& frame) {
  return ser::decodeWireFrame<ViewReplicationMsg>(frame, MessageType::kViewReplication);
}

ser::Frame encode(const ReplicationAckMsg& msg) {
  return ser::encodeWireFrame(MessageType::kReplicationAck, msg, 16);
}

ReplicationAckMsg decodeReplicationAck(const ser::Frame& frame) {
  return ser::decodeWireFrame<ReplicationAckMsg>(frame, MessageType::kReplicationAck);
}

}  // namespace roia::rtf
