#include "rtf/messages.hpp"

#include "serialize/wire.hpp"

namespace roia::rtf {

// One field walker per message, in wire order (serialize/wire.hpp). Each
// walker first binds every member of its message by name, so a field added
// to a *Msg struct does not compile until its walker binds it; a bound
// field the walk then skips changes the golden bytes of WireLayoutTest.

template <class IO>
void wire(IO& io, ser::WireRef<IO, ClientInputMsg> msg) {
  auto& [client, clientTick, commands, viewAck] = msg;
  io.var(client.value);
  io.var(clientTick);
  io.bytes(commands);
  // Optional trailing ack: absent when zero, so full-codec frames keep the
  // exact legacy byte image.
  io.tailVar(viewAck);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ForwardedInputMsg> msg) {
  auto& [target, source, interaction] = msg;
  io.var(target.value);
  io.var(source.value);
  io.bytes(interaction);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, EntityReplicationMsg> msg) {
  auto& [serverTick, entities, removed] = msg;
  io.var(serverTick);
  io.list(entities, [&](auto& snapshot) { wire(io, snapshot); });
  io.list(removed, [&](auto& id) { io.var(id.value); });
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, MigrationDataMsg> msg) {
  auto& [client, clientNode, entity, appState, source, traceId] = msg;
  io.var(client.value);
  io.var(clientNode.value);
  wire(io, entity);
  io.bytes(appState);
  io.var(source.value);
  io.var(traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, MigrationAckMsg> msg) {
  auto& [client, entity, newOwner, traceId] = msg;
  io.var(client.value);
  io.var(entity.value);
  io.var(newOwner.value);
  io.var(traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ZoneHandoffMsg> msg) {
  auto& [client, clientNode, fromZone, toZone, entity, appState, source, sourceNode, traceId] = msg;
  io.var(client.value);
  io.var(clientNode.value);
  io.var(fromZone.value);
  io.var(toZone.value);
  wire(io, entity);
  io.bytes(appState);
  io.var(source.value);
  io.var(sourceNode.value);
  io.var(traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ZoneHandoffAckMsg> msg) {
  auto& [client, entity, newOwner, newZone, version, traceId] = msg;
  io.var(client.value);
  io.var(entity.value);
  io.var(newOwner.value);
  io.var(newZone.value);
  io.var(version);
  io.var(traceId);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, BorderSyncMsg> msg) {
  auto& [serverTick, zone, source, entities] = msg;
  io.var(serverTick);
  io.var(zone.value);
  io.var(source.value);
  io.list(entities, [&](auto& snapshot) { wire(io, snapshot); });
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, HeartbeatMsg> msg) {
  auto& [server, seq, sentAt] = msg;
  io.var(server.value);
  io.var(seq);
  io.svar(sentAt.micros);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ViewReplicationMsg> msg) {
  auto& [serverTick, source, view] = msg;
  io.var(serverTick);
  io.var(source.value);
  io.bytes(view);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, ReplicationAckMsg> msg) {
  auto& [acker, tick] = msg;
  io.var(acker.value);
  io.var(tick);
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
