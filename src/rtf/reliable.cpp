#include "rtf/reliable.hpp"

#include <algorithm>
#include <utility>

#include "serialize/byte_buffer.hpp"

namespace roia::rtf {

ser::Frame encodeReliableEnvelope(std::uint64_t seq, const ser::Frame& inner) {
  ser::ByteWriter writer(inner.payload.size() + 12);
  writer.writeVarU64(seq);
  writer.writeU16(static_cast<std::uint16_t>(inner.type));
  writer.appendRaw(inner.payload);
  ser::Frame frame;
  frame.type = ser::MessageType::kReliableData;
  frame.payload = std::move(writer).take();
  return frame;
}

std::pair<std::uint64_t, ser::Frame> decodeReliableEnvelope(const ser::Frame& frame) {
  if (frame.type != ser::MessageType::kReliableData) {
    throw ser::DecodeError("unexpected frame type");
  }
  ser::ByteReader reader(frame.payload);
  const std::uint64_t seq = reader.readVarU64();
  ser::Frame inner;
  inner.type = static_cast<ser::MessageType>(reader.readU16());
  inner.payload.assign(frame.payload.begin() + static_cast<std::ptrdiff_t>(reader.offset()),
                       frame.payload.end());
  return {seq, std::move(inner)};
}

ser::Frame encodeReliableAck(std::uint64_t seq) {
  ser::ByteWriter writer(10);
  writer.writeVarU64(seq);
  ser::Frame frame;
  frame.type = ser::MessageType::kReliableAck;
  frame.payload = std::move(writer).take();
  return frame;
}

std::uint64_t decodeReliableAck(const ser::Frame& frame) {
  if (frame.type != ser::MessageType::kReliableAck) {
    throw ser::DecodeError("unexpected frame type");
  }
  ser::ByteReader reader(frame.payload);
  return reader.readVarU64();
}

ReliableTransport::ReliableTransport(sim::Simulation& simulation, net::Network& network,
                                     NodeId self, ReliableConfig config)
    : sim_(simulation),
      net_(network),
      self_(self),
      config_(config),
      alive_(std::make_shared<bool>(true)) {}

ReliableTransport::~ReliableTransport() { *alive_ = false; }

void ReliableTransport::send(NodeId to, const ser::Frame& inner) {
  PeerState& peer = peers_[to.value];
  const std::uint64_t seq = peer.nextSeq++;
  Pending pending;
  pending.envelope = encodeReliableEnvelope(seq, inner);
  pending.timeout = config_.retransmitTimeout;
  net_.send(self_, to, pending.envelope);
  ++stats_.messagesSent;
  peer.pending.emplace(seq, std::move(pending));
  scheduleRetransmit(to, seq, config_.retransmitTimeout);
}

void ReliableTransport::scheduleRetransmit(NodeId to, std::uint64_t seq, SimDuration after) {
  sim_.scheduleAfter(after, [this, to, seq, alive = alive_] {
    if (!*alive) return;
    auto peerIt = peers_.find(to.value);
    if (peerIt == peers_.end()) return;
    auto pendingIt = peerIt->second.pending.find(seq);
    if (pendingIt == peerIt->second.pending.end()) return;  // acked meanwhile
    Pending& pending = pendingIt->second;
    if (pending.attempts >= config_.maxAttempts) {
      peerIt->second.pending.erase(pendingIt);
      ++stats_.abandoned;
      return;
    }
    ++pending.attempts;
    ++stats_.retransmissions;
    net_.send(self_, to, pending.envelope);
    pending.timeout = std::min(
        SimDuration::microseconds(static_cast<std::int64_t>(
            static_cast<double>(pending.timeout.micros) * config_.backoffFactor)),
        config_.maxRetransmitTimeout);
    scheduleRetransmit(to, seq, pending.timeout);
  });
}

bool ReliableTransport::onFrame(NodeId from, const ser::Frame& frame) {
  if (frame.type == ser::MessageType::kReliableAck) {
    const std::uint64_t seq = decodeReliableAck(frame);
    ++stats_.acksReceived;
    auto peerIt = peers_.find(from.value);
    if (peerIt != peers_.end()) peerIt->second.pending.erase(seq);
    return true;
  }
  if (frame.type != ser::MessageType::kReliableData) return false;

  auto [seq, inner] = decodeReliableEnvelope(frame);
  // Always ack, even duplicates: the previous ack may have been lost and
  // the sender keeps retransmitting until one gets through.
  net_.send(self_, from, encodeReliableAck(seq));
  ++stats_.acksSent;

  PeerState& peer = peers_[from.value];
  if (alreadySeen(peer, seq)) {
    ++stats_.duplicatesDropped;
    return true;
  }
  markSeen(peer, seq);
  ++stats_.messagesDelivered;
  if (deliver_) deliver_(from, inner);
  return true;
}

std::size_t ReliableTransport::unackedCount() const {
  std::size_t count = 0;
  for (const auto& [node, peer] : peers_) count += peer.pending.size();
  return count;
}

bool ReliableTransport::alreadySeen(const PeerState& peer, std::uint64_t seq) {
  return seq <= peer.contiguousSeen || peer.seenAbove.contains(seq);
}

void ReliableTransport::markSeen(PeerState& peer, std::uint64_t seq) {
  if (seq == peer.contiguousSeen + 1) {
    ++peer.contiguousSeen;
    auto it = peer.seenAbove.begin();
    while (it != peer.seenAbove.end() && *it == peer.contiguousSeen + 1) {
      ++peer.contiguousSeen;
      it = peer.seenAbove.erase(it);
    }
  } else {
    peer.seenAbove.insert(seq);
  }
}

}  // namespace roia::rtf
