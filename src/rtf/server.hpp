// An RTF application server: executes the real-time loop for one zone
// replica, maintains active/shadow entities, exchanges replication and
// forwarded-input traffic with peer replicas, serves connected clients and
// participates in the two-sided user-migration protocol.
//
// One loop iteration ("tick", section II of the paper):
//   1. receive inputs from connected users (+ forwarded inputs, shadow
//      snapshots and migration transfers from peers),
//   2. compute the new application state via the application logic,
//   3. send filtered state updates to users and active-entity snapshots to
//      peer replicas.
// Every phase charges simulated CPU cost through the CostMeter, producing
// the per-tick probes that the scalability model is fitted from.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "rtf/application.hpp"
#include "rtf/messages.hpp"
#include "rtf/monitoring.hpp"
#include "rtf/overload.hpp"
#include "rtf/probes.hpp"
#include "rtf/reliable.hpp"
#include "rtf/world.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"

namespace roia::rtf {

/// Cost constants of the RTF-generic phases. Units: cost units (~reference
/// microseconds); *PerByte values multiply encoded payload bytes, matching
/// the paper's observation that (de)serialization effort is proportional to
/// data size.
struct ServerConfig {
  SimDuration tickInterval{SimDuration::milliseconds(40)};  // 25 Hz

  // Fixed per-iteration bookkeeping outside the model (kept small).
  double tickBaseCost{12.0};

  // Deserialization of client input batches (t_ua_dser).
  double inputDserBaseCost{0.9};
  double inputDserPerByteCost{0.045};

  // Deserialization of inter-server traffic (t_fa_dser): forwarded inputs
  // and shadow snapshots.
  double peerDserBaseCost{0.35};
  double peerDserPerByteCost{0.02};

  // Applying a shadow snapshot to the local copy (t_fa, substrate part; the
  // application adds index maintenance via onShadowUpdated).
  double shadowApplyCost{0.4};

  // State update serialization (t_su, substrate part, per encoded byte).
  double updateSerBaseCost{1.0};
  double updateSerPerByteCost{0.04};

  // Replica-sync serialization, charged under t_su like all outbound state
  // (the loop's step 3 sends state to users AND other servers).
  double replSerBaseCost{0.8};
  double replSerPerByteCost{0.012};

  // Migration: initiating is costlier than receiving (paper Fig. 6) since
  // the source must unsubscribe the user from every interest structure.
  double migIniBaseCost{150.0};
  double migIniPerEntityCost{5.0};
  double migIniPerByteCost{0.04};
  double migRcvBaseCost{80.0};
  double migRcvPerEntityCost{2.2};
  double migRcvPerByteCost{0.02};

  // Cross-zone border synchronization (zone sharding). Entities of this
  // zone within `borderWidth` of a neighboring zone are mirrored to that
  // neighbor's servers as best-effort border shadows (raw frames; versions
  // plus TTL expiry make loss/duplication harmless). 0 disables.
  double borderWidth{0.0};
  /// A border shadow not refreshed for this long is dropped.
  SimDuration borderShadowTtl{SimDuration::milliseconds(250)};
  double borderSerBaseCost{0.8};
  double borderSerPerByteCost{0.012};

  /// State-replication codec selection and delta knobs. Clients and replica
  /// peers derive their codecs from the same profile (the cluster mirrors
  /// it into the client template), so both link ends agree on the wire.
  ReplicationProfile replication{};

  sim::CpuCostModel::Config cpu{};
  SimDuration monitoringWindow{SimDuration::seconds(1)};
  /// Cadence of monitoring publication when a collector is attached.
  SimDuration monitoringPublishPeriod{SimDuration::milliseconds(500)};
  /// Cost of serializing + sending one monitoring snapshot.
  double monitoringPublishCost{3.0};
  /// Cadence of liveness heartbeats to the collector (best-effort frames;
  /// the failure detector tolerates individual losses).
  SimDuration heartbeatPeriod{SimDuration::milliseconds(250)};
  /// Retransmission behaviour of the reliable control-plane channel.
  ReliableConfig reliable{};
  /// Tick-budget enforcement + degradation ladder (disabled by default).
  OverloadConfig overload{};
};

/// One neighboring zone as seen by a server: geometry (for the border band)
/// plus the servers currently replicating it (border-sync fan-out targets).
struct ZoneNeighbor {
  ZoneId zone;
  Vec2 origin;
  Vec2 extent;
  std::vector<std::pair<ServerId, NodeId>> servers;
};

/// Where a position outside this server's zone should be handed off to:
/// the owning zone plus one of its replicas, chosen by the cluster.
struct HandoffTarget {
  ZoneId zone;
  ServerId server;
  NodeId node;
};

class Server : public ForwardSink {
 public:
  /// Fired at the end of every tick with that tick's probes.
  using ProbeListener = std::function<void(const Server&, const TickProbes&)>;
  /// Maps a world position to the zone owning it (and a replica to adopt
  /// there); nullopt when no zone covers the position. Provided by the
  /// cluster; evaluated inside the tick, so it must be deterministic.
  using HandoffResolver = std::function<std::optional<HandoffTarget>(Vec2 position)>;
  /// Predicts the next tick's cost in milliseconds from the workload
  /// (activeUsers, totalAvatars, npcs). Injected by the harness — typically
  /// Eq.1/4 via model::TickModel, which rtf itself cannot link against. The
  /// ladder controller uses max(measured, predicted) so a spike is caught
  /// one tick early.
  using TickPredictor =
      std::function<double(std::size_t activeUsers, std::size_t totalAvatars, std::size_t npcs)>;

  Server(ServerId id, ZoneId zone, Application& app, sim::Simulation& simulation,
         net::Network& network, ServerConfig config, Rng rng);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] ServerId id() const { return id_; }
  [[nodiscard]] ZoneId zone() const { return world_.zone(); }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const World& world() const { return world_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// Begins ticking; idempotent.
  void start();
  /// Stops ticking and detaches from the network.
  void shutdown();
  /// Crash-failure: the process dies mid-tick-interval. Identical to
  /// shutdown at this level (no drain, no goodbye) but remembered, so the
  /// harness can distinguish decommissioned from crashed replicas.
  void crash();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Registers/updates a peer replica of the same zone.
  void setPeers(std::vector<std::pair<ServerId, NodeId>> peers);

  /// Spawns a brand-new user avatar owned by this server (client connect).
  /// Peers learn about it through the next replica sync.
  void spawnUser(ClientId client, EntityId entity, NodeId clientNode, Vec2 position);

  /// Spawns an NPC owned by this server (the paper distributes the zone's m
  /// NPCs equally over the l replicas).
  void spawnNpc(EntityId entity, Vec2 position);

  /// Disconnects a user: removes the avatar and tells peers to retire it.
  /// Returns false if the client is not active here.
  bool disconnectUser(ClientId client);

  /// Queues a migration of `client` to `target`, executed during the next
  /// tick's migration phase. Returns false if the client is not active here
  /// or already migrating.
  bool requestMigration(ClientId client, ServerId target, NodeId targetNode);

  /// Queues a cross-zone handoff of `client` to `target` in `targetZone`.
  /// Same two-sided protocol as requestMigration, but the entity leaves the
  /// source zone entirely once the target acknowledges adoption. Returns
  /// false if the client is not active here or already in hand-over.
  bool requestZoneHandoff(ClientId client, ServerId target, NodeId targetNode, ZoneId targetZone);

  // --- zone sharding wiring (provided by the cluster) ---

  /// Replaces the neighbor-zone table used for border sync.
  void setNeighborZones(std::vector<ZoneNeighbor> neighbors);
  /// Geometry of this server's own zone. Handoff arrivals whose entity
  /// position lies outside (RMS-driven load-balancing moves) are clamped
  /// into the rectangle so they are not immediately handed back.
  void setZoneBounds(Vec2 origin, Vec2 extent);
  /// Admission check for incoming handoffs: the cluster vetoes hand-overs
  /// whose source has crashed (adopting those would race with recovery
  /// re-homing the same user). Accept-all when unset.
  void setHandoffAdmission(std::function<bool(ServerId source)> admission) {
    handoffAdmission_ = std::move(admission);
  }
  /// Installs the position -> zone resolver; when set, avatars that move
  /// beyond the zone rectangle are handed off to the owning zone
  /// automatically at the next migration phase.
  void setHandoffResolver(HandoffResolver resolver) { handoffResolver_ = std::move(resolver); }

  [[nodiscard]] std::uint64_t handoffsInitiated() const { return handoffsInitiatedTotal_; }
  [[nodiscard]] std::uint64_t handoffsReceived() const { return handoffsReceivedTotal_; }

  // --- crash recovery (invoked by the cluster / management plane) ---

  /// Aborts hand-overs to a peer that died: queued migrations to it are
  /// dropped and users whose avatar was already signed over are re-owned
  /// locally, so no client wedges in the migrating state forever.
  void cancelMigrationsTo(ServerId deadTarget);

  /// Adopts an orphaned user of a crashed replica. If this server still
  /// holds a shadow of the avatar (from replica sync) it is promoted to an
  /// active entity — the user keeps position/health; otherwise a fresh
  /// avatar spawns at `fallbackSpawn`. Returns true when a shadow was
  /// promoted.
  bool adoptOrphan(ClientId client, EntityId entity, NodeId clientNode, Vec2 fallbackSpawn);

  /// Takes ownership of NPC shadows left behind by a crashed replica.
  /// Returns the number of NPCs adopted.
  std::size_t adoptNpcsFrom(ServerId deadOwner);

  [[nodiscard]] bool hasClient(ClientId client) const { return clients_.contains(client); }

  /// Fired on the *source* server when the target acknowledges adopting a
  /// user, for same-zone migrations and cross-zone handoffs alike.
  void setHandOverCompleteFn(std::function<void(ClientId client, ServerId to)> fn) {
    onHandOverComplete_ = std::move(fn);
  }
  void setProbeListener(ProbeListener listener) { probeListener_ = std::move(listener); }

  /// Attaches telemetry (tick/phase histograms, tick spans, migration and
  /// replica-sync flow events, reliable-transport counters). Recording
  /// charges no simulated CPU cost, so tick results are identical with
  /// telemetry attached, detached, or disabled.
  void setTelemetry(obs::Telemetry* telemetry);

  /// Starts publishing monitoring snapshots to `collector` every
  /// monitoringPublishPeriod; an invalid id stops publication.
  void setMonitoringTarget(NodeId collector) { monitoringTarget_ = collector; }

  // --- overload survival (degradation ladder) ---

  /// Installs the Eq.2-style tick-cost predictor; unset, the ladder runs on
  /// measured cost alone.
  void setTickPredictor(TickPredictor predictor) { tickPredictor_ = std::move(predictor); }
  /// Current rung of the degradation ladder (0 = full fidelity).
  [[nodiscard]] std::size_t overloadLevel() const { return overloadLevel_; }
  /// Effective tick budget in milliseconds (config override or tick rate).
  [[nodiscard]] double tickBudgetMs() const {
    return config_.overload.budgetMs > 0.0 ? config_.overload.budgetMs
                                           : config_.tickInterval.asMillis();
  }
  [[nodiscard]] std::uint64_t overloadStepDowns() const { return overloadStepDownsTotal_; }
  [[nodiscard]] std::uint64_t overloadStepUps() const { return overloadStepUpsTotal_; }
  /// Observers currently shed at the deepest ladder level.
  [[nodiscard]] std::size_t shedObservers() const { return shedObservers_; }
  [[nodiscard]] std::uint64_t shedEvents() const { return shedEventsTotal_; }
  [[nodiscard]] std::uint64_t readmitEvents() const { return readmitEventsTotal_; }

  [[nodiscard]] std::size_t connectedUsers() const { return clients_.size(); }
  /// Connected clients in ascending id order; `migratableOnly` filters out
  /// users already in hand-over.
  [[nodiscard]] std::vector<ClientId> clientIds(bool migratableOnly = false) const;
  [[nodiscard]] MonitoringSnapshot monitoring() const;
  [[nodiscard]] const sim::CpuAccount& cpuAccount() const { return cpuAccount_; }
  [[nodiscard]] std::uint64_t tickCount() const { return tickSeq_; }

  // ForwardSink: emit an interaction targeting an entity owned elsewhere.
  void forwardInteraction(EntityId target, EntityId source,
                          std::vector<std::uint8_t> payload) override;

 private:
  struct ClientSession {
    NodeId clientNode;
    EntityId entity;
    bool migrating{false};
    /// Trace id of the outstanding migration/handoff protocol instance
    /// (0 = none). Maintained unconditionally — it mirrors what went on the
    /// wire, so state never depends on whether telemetry is attached.
    std::uint64_t traceId{0};
    /// Delta-codec baseline tracker for this client link; created lazily on
    /// the first delta state update (null in full mode).
    std::unique_ptr<BaselineSender> sender{};
  };

  struct PendingMigration {
    ClientId client;
    ServerId target;
    NodeId targetNode;
    /// Invalid for same-zone migrations; the destination zone of a handoff.
    ZoneId targetZone{};
  };

  void onFrame(NodeId from, const ser::Frame& frame);
  void dispatchFrame(NodeId from, const ser::Frame& frame);
  void tick();
  void recordTickTelemetry(const TickProbes& probes);
  /// SLO samples, Eq.2 drift residual and the flight-recorder frame for
  /// this tick; called only with telemetry attached.
  void recordHealthTelemetry(const TickProbes& probes);
  void onSloBreach(const obs::SloBreach& breach, double predictedMs);

  void processMigrationArrivals();
  void processZoneHandoffArrivals();
  void processReplication();
  /// Applies one replica snapshot to the local shadow copy (shared by the
  /// full and delta replication paths).
  void applyShadowSnapshot(const EntitySnapshot& snapshot);
  /// Retires one shadow announced as removed by its owner.
  void retireShadow(EntityId id);
  void processBorderSync();
  void expireBorderShadows();
  void processForwardedInputs();
  void processClientInputs();
  void flushForwarded();
  void updateNpcs();
  void sendStateUpdates();
  void sendReplicaSync();
  void sendReplicaSyncDelta();
  void sendBorderSync();
  void detectZoneExits();
  void initiateMigrations();
  void processMigrationAcks();
  void updateOverloadLadder(const TickProbes& probes, SimDuration busy);
  void applyOverloadLevel(std::size_t newLevel, double costMs, double predictedMs);
  void updateShedCount();
  void auditOverload(obs::AuditEvent action, const char* threshold, double costMs,
                     double predictedMs, std::string rationale) const;
  void auditEvent(obs::AuditEvent action, const char* strategy, std::string threshold,
                  double costMs, double predictedMs, std::string rationale) const;

  ServerId id_;
  Application& app_;
  sim::Simulation& sim_;
  net::Network& net_;
  ServerConfig config_;
  World world_;
  Rng rng_;
  sim::CpuCostModel cpu_;
  CostMeter meter_;
  sim::CpuAccount cpuAccount_;
  MonitoringWindow monitoringWindow_;
  NodeId node_;
  std::unique_ptr<ReliableTransport> reliable_;

  std::map<ClientId, ClientSession> clients_;      // deterministic order
  std::vector<std::pair<ServerId, NodeId>> peers_;  // same-zone replicas

  // --- delta replication state (unused in full mode) ---
  /// Client-link codec: quantized per the profile.
  SnapshotCodec codec_;
  /// Replica-link codec: exact (scales forced off) — promoted shadows must
  /// equal owner state bit-for-bit for crash recovery.
  SnapshotCodec replicaCodec_;
  std::map<ServerId, BaselineSender> replicaSenders_;
  std::map<ServerId, BaselineReceiver> replicaReceivers_;
  /// Gather buffer for client and replica views; it only grows, so its
  /// entries are reused tick after tick.
  SnapshotView viewScratch_;

  // Inboxes drained at the next tick. Each entry carries the payload byte
  // count so deserialization cost can be charged inside the tick, plus the
  // sending node (used only by telemetry flow events).
  template <class T>
  struct Inbound {
    T msg;
    std::size_t bytes;
    NodeId from{};
  };
  std::deque<Inbound<ClientInputMsg>> inClientInputs_;
  std::deque<Inbound<ForwardedInputMsg>> inForwarded_;
  std::deque<Inbound<EntityReplicationMsg>> inReplication_;
  std::deque<Inbound<MigrationDataMsg>> inMigrationData_;
  std::deque<MigrationAckMsg> inMigrationAcks_;
  std::deque<Inbound<ZoneHandoffMsg>> inZoneHandoffs_;
  std::deque<ZoneHandoffAckMsg> inZoneHandoffAcks_;
  std::deque<Inbound<BorderSyncMsg>> inBorderSync_;
  std::deque<Inbound<ViewReplicationMsg>> inViewReplication_;
  std::deque<ReplicationAckMsg> inReplicationAcks_;

  std::deque<PendingMigration> migrationQueue_;
  std::vector<ForwardedInputMsg> outForwarded_;
  std::vector<EntityId> departedEntities_;  // to announce in next sync

  // --- zone sharding state ---
  std::vector<ZoneNeighbor> neighbors_;
  HandoffResolver handoffResolver_;
  std::function<bool(ServerId)> handoffAdmission_;
  bool hasZoneBounds_{false};
  Vec2 zoneOrigin_;
  Vec2 zoneExtent_;
  /// Last refresh time per border shadow (std::map: deterministic expiry
  /// order).
  std::map<EntityId, SimTime> borderSeen_;
  std::vector<EntitySnapshot> borderScratch_;

  // Per-tick scratch buffers for sendStateUpdates: the AOI result (world
  // slot indices) and the encoded update are rebuilt per client, so their
  // allocations are reused across clients and ticks. Simulated costs are
  // unaffected.
  std::vector<std::uint32_t> aoiScratch_;
  std::vector<std::uint8_t> updateScratch_;

  bool running_{false};
  bool crashed_{false};
  bool inTick_{false};
  std::uint64_t tickSeq_{0};
  std::uint64_t migrationsInitiatedTotal_{0};
  std::uint64_t migrationsReceivedTotal_{0};
  std::uint64_t handoffsInitiatedTotal_{0};
  std::uint64_t handoffsReceivedTotal_{0};
  /// Monotone allocator for protocol trace ids (always advances, telemetry
  /// or not — the id goes into message bytes).
  std::uint64_t protocolSeq_{0};
  // Per-tick counters, folded into TickProbes at the end of each tick.
  std::size_t tickMigrationsInitiated_{0};
  std::size_t tickMigrationsReceived_{0};
  std::size_t tickInputsApplied_{0};
  std::size_t tickForwardedApplied_{0};
  sim::EventHandle nextTick_{};
  std::size_t lastTickActiveUsers_{0};

  // --- overload ladder state ---
  TickPredictor tickPredictor_;
  std::size_t overloadLevel_{0};
  std::size_t overBudgetStreak_{0};
  std::size_t underBudgetStreak_{0};
  double lastTickCostMs_{0.0};
  /// Clients excluded from AOI/state updates this tick (deepest rung only);
  /// highest client ids first, never owners of anything but their avatar.
  std::size_t shedObservers_{0};
  std::uint64_t overloadStepDownsTotal_{0};
  std::uint64_t overloadStepUpsTotal_{0};
  std::uint64_t shedEventsTotal_{0};
  std::uint64_t readmitEventsTotal_{0};

  NodeId monitoringTarget_{};
  SimTime lastMonitoringPublish_{SimTime::zero()};
  SimTime lastHeartbeat_{SimTime::zero()};
  std::uint64_t heartbeatSeq_{0};

  ProbeListener probeListener_;
  std::function<void(ClientId, ServerId)> onHandOverComplete_;

  // --- telemetry (pure observer; never charges CPU cost) ---
  obs::Telemetry* telemetry_{nullptr};
  std::uint32_t traceTrack_{0};
  /// Metric/SLO/flight key of this server ("server-<id>"), cached at attach.
  std::string obsKey_;
  /// SLO objective handles resolved at attach time; nullopt when the engine
  /// has no such objective (recording is skipped entirely).
  struct SloHandles {
    std::optional<std::size_t> tick;
    std::optional<std::size_t> rate;
    std::optional<std::size_t> handoff;
  };
  SloHandles obsSlo_{};
  /// Cached instrument pointers, resolved once per attach.
  struct TickMetrics {
    obs::LogHistogram* tickDurationMs;
    std::array<obs::LogHistogram*, kPhaseCount> phaseMicros;
    obs::Counter* migrationsInitiated;
    obs::Counter* migrationsReceived;
    obs::Counter* inputsApplied;
    obs::Counter* forwardedApplied;
    obs::Counter* reliableRetransmissions;
    obs::Counter* reliableDuplicatesDropped;
    obs::Counter* reliableAbandoned;
  };
  std::optional<TickMetrics> tickMetrics_;
};

}  // namespace roia::rtf
