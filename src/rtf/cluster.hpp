// The multi-server session harness: owns the simulation, the network, all
// application servers and clients, and the zone directory. This is the
// management plane that RTF-RMS drives: adding/removing replicas, connecting
// and migrating users.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "rtf/client.hpp"
#include "rtf/monitoring.hpp"
#include "rtf/server.hpp"
#include "rtf/zone.hpp"
#include "sim/simulation.hpp"

namespace roia::rtf {

struct ClusterConfig {
  ServerConfig serverTemplate{};
  ClientEndpoint::Config clientTemplate{};
  std::uint64_t seed{42};
  /// Telemetry context shared by all servers, the collector and the fault
  /// injector; nullptr (the default) keeps telemetry off. Recording is a
  /// pure observer: simulated timelines are bit-identical with telemetry on
  /// or off.
  obs::Telemetry* telemetry{nullptr};
};

class Cluster {
 public:
  explicit Cluster(Application& app, ClusterConfig config = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] ZoneDirectory& zones() { return zones_; }
  [[nodiscard]] const ZoneDirectory& zones() const { return zones_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  /// Creates a zone with the given geometry; returns its id.
  ZoneId createZone(std::string name, Vec2 origin = {0, 0}, Vec2 extent = {1000, 1000});

  /// Creates an instance (independent copy) of an existing zone.
  ZoneId createInstance(ZoneId original);

  /// Partitions the rectangle [origin, origin + extent) into a cols x rows
  /// grid of zones (row-major ids) and enables zone sharding: every server
  /// gets a position -> zone resolver (automatic handoff when an avatar
  /// crosses a zone border) and a neighbor table for cross-zone border
  /// shadows (serverTemplate.borderWidth controls the band; 0 disables).
  std::vector<ZoneId> createZoneGrid(Vec2 origin, Vec2 extent, std::size_t cols,
                                     std::size_t rows, const std::string& namePrefix = "zone");

  /// Whether createZoneGrid enabled sharded-world wiring.
  [[nodiscard]] bool sharded() const { return sharding_; }

  /// Starts a new application server replicating `zone`. `speedFactor` is
  /// relative to the template's baseline speed; > 1 models a more powerful
  /// resource (used by resource substitution).
  ServerId addServer(ZoneId zone, double speedFactor = 1.0);

  /// Removes a server. All its users must have been migrated or
  /// disconnected first; remaining NPCs are handed to another replica.
  /// Throws std::logic_error if users are still connected.
  void removeServer(ServerId id);

  [[nodiscard]] Server& server(ServerId id) { return *servers_.at(id); }
  [[nodiscard]] const Server& server(ServerId id) const { return *servers_.at(id); }
  [[nodiscard]] bool hasServer(ServerId id) const { return servers_.contains(id); }
  [[nodiscard]] std::vector<ServerId> serverIds() const;
  [[nodiscard]] std::size_t serverCount() const { return servers_.size(); }

  /// Connects a new user to the least-populated replica of `zone`. Returns
  /// an invalid ClientId when the admission gate vetoes the connect (the
  /// caller is expected to retry with backoff).
  ClientId connectClient(ZoneId zone, std::unique_ptr<InputProvider> provider);
  /// Connects a new user to a specific server; invalid ClientId on veto.
  ClientId connectClientTo(ServerId server, std::unique_ptr<InputProvider> provider);
  /// Disconnects a user wherever it currently lives.
  void disconnectClient(ClientId id);

  // --- admission control ---

  /// Vetoes new-client admission onto `target` (false = refuse). Typically
  /// an Eq.2 check: predicted tick at n+1 users must stay within budget.
  /// `reason` is surfaced in the audit log. Evaluated before any id or RNG
  /// draw, so a vetoed connect leaves the deterministic state untouched.
  using AdmissionGate = std::function<bool(const Server& target, std::string& reason)>;
  void setAdmissionGate(AdmissionGate gate) { admissionGate_ = std::move(gate); }
  [[nodiscard]] std::uint64_t admissionVetoes() const { return admissionVetoes_; }

  /// Installs an Eq.1/4 tick-cost predictor on all current and future
  /// servers (the overload ladder catches spikes one tick early with it).
  void setTickPredictor(Server::TickPredictor predictor);

  [[nodiscard]] ClientEndpoint& client(ClientId id) { return *clients_.at(id); }
  [[nodiscard]] bool hasClient(ClientId id) const { return clients_.contains(id); }
  [[nodiscard]] std::size_t clientCount() const { return clients_.size(); }
  [[nodiscard]] std::vector<ClientId> clientIds() const;

  /// Requests migration of `client` to `target` (same zone). Returns false
  /// when the client is unknown, already migrating, or target is invalid.
  bool migrateClient(ClientId client, ServerId target);

  /// Cross-zone travel (zoning): hands the user over to the least-populated
  /// live replica of `targetZone` via the deterministic zone-handoff
  /// protocol — the entity (identity, position, health, application state)
  /// is serialized over the reliable control plane and adopted by the
  /// target; the client endpoint re-homes when the adoption ack returns.
  /// Asynchronous: completes within a few ticks. Returns false when the
  /// client is unknown, already in hand-over, or the target zone has no
  /// live servers.
  bool travelClient(ClientId client, ZoneId targetZone);

  /// Spawns `count` NPCs in the zone, distributed equally over its replicas.
  void spawnNpcs(ZoneId zone, std::size_t count);

  /// Total connected users across all replicas of a zone.
  [[nodiscard]] std::size_t zoneUserCount(ZoneId zone) const;

  /// Monitoring snapshots of every replica of `zone` (direct, in-process).
  [[nodiscard]] std::vector<MonitoringSnapshot> zoneMonitoring(ZoneId zone) const;

  /// Attaches a management-plane monitoring collector: all current and
  /// future servers publish snapshots to it over the network. Idempotent.
  MonitoringCollector& attachMonitoringCollector();
  /// The collector, or nullptr when none is attached.
  [[nodiscard]] MonitoringCollector* monitoringCollector() { return collector_.get(); }

  /// Which server currently serves the client (tracks migrations).
  [[nodiscard]] ServerId clientServer(ClientId id) const { return clientServer_.at(id); }

  /// Entity conservation over the live (non-crashed) replicas: every
  /// connected client owns exactly one active avatar (owner == hosting
  /// server). A hand-over in flight at the audit instant — the source still
  /// holds the client session plus the signed-over record awaiting the
  /// target's ack — is that client's one logical copy, not a loss.
  struct ConservationAudit {
    std::size_t missingAvatars{0};    ///< clients with neither an active nor an in-transit copy
    std::size_t duplicateAvatars{0};  ///< active copies beyond each client's first
  };
  [[nodiscard]] ConservationAudit auditConservation() const;

  /// The telemetry context (ClusterConfig::telemetry); nullptr when
  /// telemetry is off.
  [[nodiscard]] obs::Telemetry* telemetry() const { return config_.telemetry; }

  // --- fault injection & crash-failure recovery ---

  /// Attaches a fault injector to the network (idempotent). Seed 0 derives
  /// the injector seed from the cluster seed, so a given cluster seed fully
  /// determines the fault schedule.
  net::FaultInjector& enableFaultInjection(std::uint64_t seed = 0);
  [[nodiscard]] net::FaultInjector* faultInjector() { return faults_.get(); }

  /// What recoverCrashedServer did; all counters refer to one dead replica.
  struct RecoveryReport {
    ZoneId zone{};
    std::size_t clientsRehomed{0};   // endpoints repointed at a survivor
    std::size_t shadowsPromoted{0};  // avatars resumed from replica-sync state
    std::size_t clientsLost{0};      // no surviving replica to adopt them
    std::size_t npcsAdopted{0};
  };

  /// Abrupt crash-failure of a replica: it stops mid-interval with no drain,
  /// no NPC hand-off and no notification — peers and the zone directory
  /// still list it, its clients keep sending into the void. Nothing reacts
  /// until a failure detector notices (or recoverCrashedServer is called).
  void crashServer(ServerId id);

  /// Management-plane recovery of a dead replica: removes it from the zone
  /// directory and peer sets, aborts hand-overs targeting it, re-homes each
  /// of its clients onto the surviving replica already holding their state
  /// (adopted mid-migration session or replica-sync shadow; fresh spawn as
  /// the last resort) and re-owns its NPC shadows. Works for crashed servers
  /// still in the cluster; throws std::invalid_argument otherwise.
  RecoveryReport recoverCrashedServer(ServerId id);

  /// Runs the simulation for `duration` of simulated time.
  void run(SimDuration duration) { sim_.runUntil(sim_.now() + duration); }

 private:
  void refreshPeers(ZoneId zone);
  /// Rebuilds handoff resolvers, zone bounds and neighbor tables on every
  /// server; no-op unless createZoneGrid enabled sharding.
  void refreshSharding();
  Vec2 randomSpawn(const ZoneDescriptor& zone);

  Application& app_;
  ClusterConfig config_;
  sim::Simulation sim_;
  net::Network net_;
  ZoneDirectory zones_;
  Rng rng_;

  std::map<ServerId, std::unique_ptr<Server>> servers_;
  std::map<ClientId, std::unique_ptr<ClientEndpoint>> clients_;
  std::map<ClientId, ServerId> clientServer_;
  std::unique_ptr<MonitoringCollector> collector_;
  std::unique_ptr<net::FaultInjector> faults_;

  AdmissionGate admissionGate_;
  Server::TickPredictor tickPredictor_;
  std::uint64_t admissionVetoes_{0};

  std::uint64_t nextServerId_{1};
  std::uint64_t nextClientId_{1};
  std::uint64_t nextEntityId_{1};
  std::uint64_t nextZoneId_{1};
  bool sharding_{false};
};

}  // namespace roia::rtf
