// Reliable at-least-once delivery for control-plane messages.
//
// The simulated network is best-effort once a FaultInjector is attached:
// frames can vanish, duplicate or arrive out of order. Data-plane traffic
// (user inputs, state updates) tolerates that — the next tick supersedes a
// lost one — but control-plane messages do not: a lost MigrationData wedges
// the hand-over forever, a lost replica sync leaves shadows stale, a lost
// monitoring snapshot starves RTF-RMS. ReliableTransport wraps such frames
// in a sequence-numbered envelope, acknowledges on receive, retransmits
// with exponential backoff until acked or until it gives up (abandoned:
// unacked, not necessarily undelivered), and deduplicates on the receive
// side. Delivery is at-least-once and unordered; receivers are
// order-tolerant (entity versions, snapshot timestamps), so no head-of-line
// blocking is needed. All timers run in the simulation, so retransmission
// behaviour is as deterministic as everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/types.hpp"
#include "net/network.hpp"
#include "serialize/message.hpp"
#include "sim/simulation.hpp"

namespace roia::rtf {

struct ReliableConfig {
  /// First retransmission fires this long after the original send.
  SimDuration retransmitTimeout{SimDuration::milliseconds(100)};
  /// Timeout multiplier per retransmission (exponential backoff).
  double backoffFactor{2.0};
  SimDuration maxRetransmitTimeout{SimDuration::seconds(2)};
  /// Total transmissions (initial + retransmits) before giving up. A crashed
  /// peer never acks, so unbounded retries would leak timers forever.
  std::size_t maxAttempts{8};
};

struct ReliableStats {
  std::uint64_t messagesSent{0};
  std::uint64_t retransmissions{0};
  std::uint64_t messagesDelivered{0};
  std::uint64_t duplicatesDropped{0};
  std::uint64_t acksSent{0};
  std::uint64_t acksReceived{0};
  /// Messages the sender stopped retransmitting after maxAttempts without
  /// an ack. Not a count of lost messages: one whose acks were all lost was
  /// still delivered (a dead peer's messages are the ones that were not).
  std::uint64_t abandoned{0};
};

/// One reliable endpoint. The owner keeps the network node and routes
/// kReliableData / kReliableAck frames into onFrame; decoded inner frames
/// come back through the deliver callback.
class ReliableTransport {
 public:
  using DeliverFn = std::function<void(NodeId from, const ser::Frame& inner)>;

  ReliableTransport(sim::Simulation& simulation, net::Network& network, NodeId self,
                    ReliableConfig config = {});
  ~ReliableTransport();
  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  void setDeliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Sends `inner` reliably to `to` (wrapped in a kReliableData envelope).
  void send(NodeId to, const ser::Frame& inner);

  /// Feeds an incoming frame. Returns true when the frame belonged to the
  /// reliable layer (envelope or ack) and was consumed.
  bool onFrame(NodeId from, const ser::Frame& frame);

  [[nodiscard]] std::size_t unackedCount() const;
  [[nodiscard]] const ReliableStats& stats() const { return stats_; }

 private:
  struct Pending {
    ser::Frame envelope;  // ready to retransmit verbatim
    std::size_t attempts{1};
    SimDuration timeout;
  };
  struct PeerState {
    std::uint64_t nextSeq{1};
    std::map<std::uint64_t, Pending> pending;  // unacked sends, by seq
    // Receive-side dedup: every seq <= contiguous was seen, plus the sparse
    // set of out-of-order seqs above it.
    std::uint64_t contiguousSeen{0};
    std::set<std::uint64_t> seenAbove;
  };

  void scheduleRetransmit(NodeId to, std::uint64_t seq, SimDuration after);
  [[nodiscard]] static bool alreadySeen(const PeerState& peer, std::uint64_t seq);
  static void markSeen(PeerState& peer, std::uint64_t seq);

  sim::Simulation& sim_;
  net::Network& net_;
  NodeId self_;
  ReliableConfig config_;
  DeliverFn deliver_;
  std::map<std::uint64_t, PeerState> peers_;  // by NodeId value
  ReliableStats stats_;
  /// Outstanding sim timers check this before touching the transport, so
  /// destruction does not have to hunt down every scheduled event.
  std::shared_ptr<bool> alive_;
};

/// Envelope codec (exposed for tests).
[[nodiscard]] ser::Frame encodeReliableEnvelope(std::uint64_t seq, const ser::Frame& inner);
/// Decodes an envelope; returns {seq, inner frame}.
[[nodiscard]] std::pair<std::uint64_t, ser::Frame> decodeReliableEnvelope(const ser::Frame& frame);
[[nodiscard]] ser::Frame encodeReliableAck(std::uint64_t seq);
[[nodiscard]] std::uint64_t decodeReliableAck(const ser::Frame& frame);

}  // namespace roia::rtf
