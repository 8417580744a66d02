#include "rtf/client.hpp"

#include <algorithm>

namespace roia::rtf {

ClientEndpoint::ClientEndpoint(ClientId id, std::unique_ptr<InputProvider> provider,
                               sim::Simulation& simulation, net::Network& network, Config config,
                               Rng rng)
    : id_(id),
      provider_(std::move(provider)),
      sim_(simulation),
      net_(network),
      config_(config),
      codec_(config.replication),
      receiver_(codec_),
      rng_(rng) {
  node_ = net_.addNode([this](NodeId from, const ser::Frame& frame) { onFrame(from, frame); });
}

ClientEndpoint::~ClientEndpoint() { stop(); }

void ClientEndpoint::setServer(ServerId server, NodeId serverNode) {
  server_ = server;
  serverNode_ = serverNode;
  // A new server has no baseline history for this link: drop ours too, so
  // a late frame from the old server cannot masquerade as a baseline.
  receiver_.reset();
}

void ClientEndpoint::start() {
  if (active_) return;
  active_ = true;
  // Random phase offset so thousands of clients do not fire simultaneously.
  const auto offset = SimDuration::microseconds(static_cast<std::int64_t>(
      rng_.uniformInt(0, static_cast<std::uint64_t>(
                             std::max<std::int64_t>(1, config_.inputInterval.micros)) -
                             1)));
  nextSend_ = sim_.scheduleAfter(offset, [this] { sendInputs(); });
}

void ClientEndpoint::stop() {
  if (!active_) return;
  active_ = false;
  sim_.cancel(nextSend_);
  net_.removeNode(node_);
}

void ClientEndpoint::sendInputs() {
  if (!active_) return;
  std::vector<std::uint8_t> commands = provider_->nextCommands(sim_.now(), rng_);
  if (!commands.empty() && serverNode_.valid()) {
    ClientInputMsg msg{id_, clientTick_, std::move(commands)};
    if (config_.replication.codec == ReplicationCodec::kDelta && receiver_.hasView()) {
      msg.viewAck = receiver_.latestTick() + 1;
    }
    net_.send(node_, serverNode_, encode(msg));
  }
  ++clientTick_;
  nextSend_ = sim_.scheduleAfter(config_.inputInterval, [this] { sendInputs(); });
}

void ClientEndpoint::onFrame(NodeId from, const ser::Frame& frame) {
  if (!active_) return;
  if (frame.type == ser::MessageType::kViewUpdate) {
    if (config_.replication.codec != ReplicationCodec::kDelta) return;
    // After a re-home the receiver was reset; a late high-tick frame from
    // the previous server must not advance the watermark and starve the
    // new link.
    if (from != serverNode_) return;
    const auto decoded = receiver_.decodeView(frame.payload);
    if (!decoded) return;  // stale or baseline lost; server will keyframe
    if (updatesReceived_ > 0) {
      updateGapMs_.add((sim_.now() - lastUpdateAt_).asMillis());
    }
    lastUpdateAt_ = sim_.now();
    ++updatesReceived_;
    provider_->onStateView(decoded->serverTick, id_, decoded->view);
    return;
  }
  if (frame.type != ser::MessageType::kStateUpdate) return;
  const StateUpdateMsg msg = SnapshotCodec::decodeStateUpdate(frame);
  if (updatesReceived_ > 0) {
    updateGapMs_.add((sim_.now() - lastUpdateAt_).asMillis());
  }
  lastUpdateAt_ = sim_.now();
  ++updatesReceived_;
  provider_->onStateUpdate(msg.update);
}

}  // namespace roia::rtf
