// A simulated client (player machine): sends its user's command batches to
// the currently assigned application server at the client update rate and
// receives filtered state updates back. The actual decisions (where to move,
// whom to attack) come from an InputProvider — in the experiments, the
// random bots of section V-A.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "rtf/messages.hpp"
#include "sim/simulation.hpp"

namespace roia::rtf {

/// Supplies the user's behaviour to a ClientEndpoint.
class InputProvider {
 public:
  virtual ~InputProvider() = default;
  /// Encoded command batch for this client tick (empty = send nothing).
  virtual std::vector<std::uint8_t> nextCommands(SimTime now, Rng& rng) = 0;
  /// Called when a state update arrives from the server.
  virtual void onStateUpdate(std::span<const std::uint8_t> update) = 0;
  /// Called when a delta-codec view arrives (delta replication only).
  /// `view` is the full reconstructed visible set for `serverTick`, in
  /// ascending id order; it is valid only during the call.
  virtual void onStateView(std::uint64_t serverTick, ClientId self,
                           std::span<const EntitySnapshot> view) {
    (void)serverTick;
    (void)self;
    (void)view;
  }
};

class ClientEndpoint {
 public:
  struct Config {
    SimDuration inputInterval{SimDuration::milliseconds(40)};  // 25 Hz
    /// Must match the serving cluster's profile (the cluster template
    /// mirrors ServerConfig::replication here).
    ReplicationProfile replication{};
  };

  ClientEndpoint(ClientId id, std::unique_ptr<InputProvider> provider,
                 sim::Simulation& simulation, net::Network& network, Config config, Rng rng);
  ~ClientEndpoint();

  ClientEndpoint(const ClientEndpoint&) = delete;
  ClientEndpoint& operator=(const ClientEndpoint&) = delete;

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] EntityId avatar() const { return avatar_; }
  [[nodiscard]] ServerId server() const { return server_; }
  [[nodiscard]] std::uint64_t updatesReceived() const { return updatesReceived_; }
  [[nodiscard]] InputProvider& provider() { return *provider_; }

  // --- client-side quality of experience ---
  // The paper uses the tick duration as the QoE criterion because it bounds
  // the state-update rate users actually receive; these probes measure that
  // rate at the receiving end.
  /// Mean gap between consecutive state updates (ms); 0 before two updates.
  [[nodiscard]] double avgUpdateGapMs() const { return updateGapMs_.mean(); }
  /// Largest gap observed (ms) — a stall spike a player would feel.
  [[nodiscard]] double worstUpdateGapMs() const { return updateGapMs_.max(); }
  /// Updates per second implied by the mean gap (0 before two updates).
  [[nodiscard]] double updateRateHz() const {
    return updateGapMs_.mean() > 0.0 ? 1000.0 / updateGapMs_.mean() : 0.0;
  }

  /// Binds the avatar entity created for this user.
  void setAvatar(EntityId avatar) { avatar_ = avatar; }
  /// Points the client at (a possibly new) serving node; used on connect and
  /// after each completed migration.
  void setServer(ServerId server, NodeId serverNode);

  /// Starts the periodic input loop; idempotent.
  void start();
  /// Stops sending and detaches from the network.
  void stop();
  [[nodiscard]] bool active() const { return active_; }

 private:
  void sendInputs();
  void onFrame(NodeId from, const ser::Frame& frame);

  ClientId id_;
  std::unique_ptr<InputProvider> provider_;
  sim::Simulation& sim_;
  net::Network& net_;
  Config config_;
  /// Delta-codec receiver state (unused in full mode).
  SnapshotCodec codec_;
  BaselineReceiver receiver_;
  Rng rng_;
  NodeId node_;
  ServerId server_;
  NodeId serverNode_;
  EntityId avatar_;
  bool active_{false};
  std::uint64_t clientTick_{0};
  std::uint64_t updatesReceived_{0};
  SimTime lastUpdateAt_{SimTime::zero()};
  StatAccumulator updateGapMs_;
  sim::EventHandle nextSend_{};
};

}  // namespace roia::rtf
