#include "rtf/cluster.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/events.hpp"

namespace roia::rtf {

Cluster::Cluster(Application& app, ClusterConfig config)
    : app_(app),
      config_(std::move(config)),
      net_(sim_),
      rng_(config_.seed) {
  // Both ends of every client link must agree on the replication codec and
  // its quantization scales: the server profile is authoritative.
  config_.clientTemplate.replication = config_.serverTemplate.replication;
}

ZoneId Cluster::createZone(std::string name, Vec2 origin, Vec2 extent) {
  ZoneDescriptor descriptor;
  descriptor.id = ZoneId{nextZoneId_++};
  descriptor.name = std::move(name);
  descriptor.origin = origin;
  descriptor.extent = extent;
  zones_.addZone(descriptor);
  return descriptor.id;
}

ZoneId Cluster::createInstance(ZoneId original) {
  const ZoneDescriptor& base = zones_.zone(original);
  ZoneDescriptor instance = base;
  instance.id = ZoneId{nextZoneId_++};
  instance.name = base.name + "#inst" + std::to_string(instance.id.value);
  instance.instanceOf = original;
  zones_.addZone(instance);
  return instance.id;
}

std::vector<ZoneId> Cluster::createZoneGrid(Vec2 origin, Vec2 extent, std::size_t cols,
                                            std::size_t rows, const std::string& namePrefix) {
  if (cols == 0 || rows == 0) throw std::invalid_argument("createZoneGrid: empty grid");
  const Vec2 cell{extent.x / static_cast<double>(cols), extent.y / static_cast<double>(rows)};
  std::vector<ZoneId> ids;
  ids.reserve(cols * rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const Vec2 zoneOrigin{origin.x + static_cast<double>(c) * cell.x,
                            origin.y + static_cast<double>(r) * cell.y};
      ids.push_back(createZone(
          namePrefix + "-" + std::to_string(c) + "x" + std::to_string(r), zoneOrigin, cell));
    }
  }
  sharding_ = true;
  refreshSharding();
  return ids;
}

ServerId Cluster::addServer(ZoneId zone, double speedFactor) {
  if (!zones_.hasZone(zone)) throw std::invalid_argument("addServer: unknown zone");
  const ServerId id{nextServerId_++};
  ServerConfig serverConfig = config_.serverTemplate;
  // `speedFactor` is relative to the deployment baseline: a 2.0 "large"
  // flavor is twice the template's speed, whatever hardware generation the
  // template models.
  serverConfig.cpu.speedFactor = config_.serverTemplate.cpu.speedFactor * speedFactor;
  serverConfig.cpu.noiseSeed = 0x5eed0000ULL + id.value;
  auto server = std::make_unique<Server>(id, zone, app_, sim_, net_, serverConfig,
                                         rng_.split(0xA000 + id.value));
  server->setHandOverCompleteFn([this](ClientId client, ServerId to) {
    auto it = clients_.find(client);
    if (it == clients_.end()) return;
    auto serverIt = servers_.find(to);
    if (serverIt == servers_.end()) return;
    it->second->setServer(to, serverIt->second->node());
    clientServer_[client] = to;
  });
  server->setHandoffAdmission([this](ServerId source) {
    auto it = servers_.find(source);
    return it != servers_.end() && !it->second->crashed();
  });
  if (collector_ != nullptr) {
    server->setMonitoringTarget(collector_->node());
  }
  if (config_.telemetry != nullptr) server->setTelemetry(config_.telemetry);
  if (tickPredictor_) server->setTickPredictor(tickPredictor_);
  server->start();
  servers_.emplace(id, std::move(server));
  zones_.addReplica(zone, id);
  refreshPeers(zone);
  refreshSharding();
  return id;
}

MonitoringCollector& Cluster::attachMonitoringCollector() {
  if (collector_ == nullptr) {
    collector_ = std::make_unique<MonitoringCollector>(sim_, net_);
    if (config_.telemetry != nullptr) collector_->setTelemetry(config_.telemetry);
    for (auto& [id, server] : servers_) {
      server->setMonitoringTarget(collector_->node());
    }
  }
  return *collector_;
}

void Cluster::removeServer(ServerId id) {
  auto it = servers_.find(id);
  if (it == servers_.end()) throw std::invalid_argument("removeServer: unknown server");
  Server& victim = *it->second;
  if (victim.connectedUsers() > 0) {
    throw std::logic_error("removeServer: server still has connected users");
  }
  const ZoneId zone = victim.zone();
  zones_.removeReplica(zone, id);

  // Hand surviving NPCs to the first remaining replica (management-plane
  // transfer; a production system would migrate them like users).
  const std::vector<ServerId> remaining = zones_.replicas(zone);
  if (!remaining.empty()) {
    Server& heir = *servers_.at(remaining.front());
    victim.world().forEach([&](ConstEntityRef e) {
      if (e.isNpc() && e.owner == id) {
        EntityRecord copy{e.id,      e.kind,   e.zone,   heir.id(),     e.client,
                          e.position, e.velocity, e.health, e.version + 1, e.appData};
        heir.world().upsert(copy);
      }
    });
  }

  victim.shutdown();
  servers_.erase(it);
  refreshPeers(zone);
  refreshSharding();
  if (collector_ != nullptr) collector_->forget(id);
}

std::vector<ServerId> Cluster::serverIds() const {
  std::vector<ServerId> ids;
  ids.reserve(servers_.size());
  for (const auto& [id, server] : servers_) ids.push_back(id);
  return ids;
}

ClientId Cluster::connectClient(ZoneId zone, std::unique_ptr<InputProvider> provider) {
  const std::vector<ServerId> replicas = zones_.replicas(zone);
  if (replicas.empty()) throw std::logic_error("connectClient: zone has no servers");
  ServerId best = replicas.front();
  std::size_t bestUsers = std::numeric_limits<std::size_t>::max();
  for (const ServerId id : replicas) {
    const std::size_t users = servers_.at(id)->connectedUsers();
    if (users < bestUsers) {
      bestUsers = users;
      best = id;
    }
  }
  return connectClientTo(best, std::move(provider));
}

ClientId Cluster::connectClientTo(ServerId serverId, std::unique_ptr<InputProvider> provider) {
  auto serverIt = servers_.find(serverId);
  if (serverIt == servers_.end()) throw std::invalid_argument("connectClientTo: unknown server");
  Server& server = *serverIt->second;

  // Admission control runs before any id allocation or RNG draw: a vetoed
  // connect must leave the cluster's deterministic state byte-identical to
  // never having tried.
  if (admissionGate_) {
    std::string reason;
    if (!admissionGate_(server, reason)) {
      ++admissionVetoes_;
      if (config_.telemetry != nullptr) {
        obs::AuditRecord record;
        record.at = sim_.now();
        record.zone = server.zone();
        record.strategy = "admission-control";
        record.users = server.connectedUsers();
        record.replicas = zones_.replicas(server.zone()).size();
        record.threshold = "eq2:n_max";
        record.action = obs::AuditEvent::kAdmissionThrottle;
        record.rejected.push_back("admit:" + reason);
        record.rationale = std::move(reason);
        config_.telemetry->audit.record(std::move(record));
      }
      return ClientId{};
    }
  }

  const ClientId clientId{nextClientId_++};
  const EntityId entityId{nextEntityId_++};
  auto endpoint = std::make_unique<ClientEndpoint>(clientId, std::move(provider), sim_, net_,
                                                   config_.clientTemplate,
                                                   rng_.split(0xB000 + clientId.value));
  endpoint->setAvatar(entityId);
  endpoint->setServer(serverId, server.node());

  const Vec2 spawn = randomSpawn(zones_.zone(server.zone()));
  server.spawnUser(clientId, entityId, endpoint->node(), spawn);
  endpoint->start();

  clients_.emplace(clientId, std::move(endpoint));
  clientServer_[clientId] = serverId;
  return clientId;
}

void Cluster::setTickPredictor(Server::TickPredictor predictor) {
  tickPredictor_ = std::move(predictor);
  for (auto& [id, server] : servers_) {
    server->setTickPredictor(tickPredictor_);
  }
}

void Cluster::disconnectClient(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return;
  const ServerId serverId = clientServer_.at(id);
  auto serverIt = servers_.find(serverId);
  if (serverIt != servers_.end()) {
    serverIt->second->disconnectUser(id);
  }
  it->second->stop();
  clients_.erase(it);
  clientServer_.erase(id);
}

std::vector<ClientId> Cluster::clientIds() const {
  std::vector<ClientId> ids;
  ids.reserve(clients_.size());
  for (const auto& [id, endpoint] : clients_) ids.push_back(id);
  return ids;
}

bool Cluster::migrateClient(ClientId client, ServerId target) {
  auto clientIt = clients_.find(client);
  auto targetIt = servers_.find(target);
  if (clientIt == clients_.end() || targetIt == servers_.end()) return false;
  const ServerId sourceId = clientServer_.at(client);
  if (sourceId == target) return false;
  auto sourceIt = servers_.find(sourceId);
  if (sourceIt == servers_.end()) return false;
  if (sourceIt->second->zone() != targetIt->second->zone()) return false;
  return sourceIt->second->requestMigration(client, target, targetIt->second->node());
}

bool Cluster::travelClient(ClientId client, ZoneId targetZone) {
  auto clientIt = clients_.find(client);
  if (clientIt == clients_.end() || !zones_.hasZone(targetZone)) return false;

  // Least-populated live replica of the target zone adopts the user.
  ServerId best{};
  std::size_t bestUsers = std::numeric_limits<std::size_t>::max();
  for (const ServerId id : zones_.replicas(targetZone)) {
    const Server& candidate = *servers_.at(id);
    if (candidate.crashed()) continue;
    const std::size_t users = candidate.connectedUsers();
    if (users < bestUsers) {
      bestUsers = users;
      best = id;
    }
  }
  if (!best.valid()) return false;

  const ServerId sourceId = clientServer_.at(client);
  auto sourceIt = servers_.find(sourceId);
  if (sourceIt == servers_.end()) return false;
  if (sourceIt->second->zone() == targetZone) return false;  // already there
  return sourceIt->second->requestZoneHandoff(client, best, servers_.at(best)->node(),
                                              targetZone);
}

void Cluster::spawnNpcs(ZoneId zone, std::size_t count) {
  const std::vector<ServerId> replicas = zones_.replicas(zone);
  if (replicas.empty()) throw std::logic_error("spawnNpcs: zone has no servers");
  const ZoneDescriptor& descriptor = zones_.zone(zone);
  for (std::size_t i = 0; i < count; ++i) {
    const ServerId owner = replicas[i % replicas.size()];
    servers_.at(owner)->spawnNpc(EntityId{nextEntityId_++}, randomSpawn(descriptor));
  }
}

std::size_t Cluster::zoneUserCount(ZoneId zone) const {
  std::size_t total = 0;
  for (const ServerId id : zones_.replicas(zone)) {
    total += servers_.at(id)->connectedUsers();
  }
  return total;
}

std::vector<MonitoringSnapshot> Cluster::zoneMonitoring(ZoneId zone) const {
  const std::vector<ServerId> replicaIds = zones_.replicas(zone);
  std::vector<MonitoringSnapshot> snapshots;
  snapshots.reserve(replicaIds.size());
  for (const ServerId id : replicaIds) {
    snapshots.push_back(servers_.at(id)->monitoring());
  }
  return snapshots;
}

net::FaultInjector& Cluster::enableFaultInjection(std::uint64_t seed) {
  if (faults_ == nullptr) {
    faults_ = std::make_unique<net::FaultInjector>(
        seed != 0 ? seed : config_.seed ^ 0xFA0171A6B5ULL);
    if (config_.telemetry != nullptr) faults_->setMetrics(&config_.telemetry->metrics);
    net_.setFaultInjector(faults_.get());
  }
  return *faults_;
}

void Cluster::crashServer(ServerId id) {
  auto it = servers_.find(id);
  if (it == servers_.end()) throw std::invalid_argument("crashServer: unknown server");
  // The server object stays registered: the zone directory, peer sets and
  // client endpoints all still reference the dead replica, exactly as a real
  // deployment would until a failure detector fires.
  it->second->crash();
}

Cluster::ConservationAudit Cluster::auditConservation() const {
  // One pass over the live worlds tallies each connected client's copies.
  struct Copies {
    std::size_t active{0};
    bool inTransit{false};
  };
  std::map<ClientId, Copies> copies;
  for (const auto& [client, endpoint] : clients_) {
    copies.emplace_hint(copies.end(), client, Copies{});
  }
  for (const auto& [id, owned] : servers_) {
    const Server& server = *owned;
    if (server.crashed()) continue;
    server.world().forEach([&](ConstEntityRef e) {
      const auto it = copies.find(e.client);
      if (it == copies.end()) return;
      if (e.owner == server.id()) ++it->second.active;
      else if (server.hasClient(e.client)) it->second.inTransit = true;
    });
  }
  ConservationAudit audit;
  for (const auto& [client, c] : copies) {
    if (c.active == 0 && !c.inTransit) ++audit.missingAvatars;
    if (c.active > 1) audit.duplicateAvatars += c.active - 1;
  }
  return audit;
}

Cluster::RecoveryReport Cluster::recoverCrashedServer(ServerId id) {
  auto it = servers_.find(id);
  if (it == servers_.end()) throw std::invalid_argument("recoverCrashedServer: unknown server");
  Server& dead = *it->second;
  if (!dead.crashed()) dead.crash();  // direct recovery implies the kill
  const ZoneId zone = dead.zone();

  RecoveryReport report;
  report.zone = zone;

  // The cluster's routing table is the authoritative list of orphans: the
  // dead server's own session map may disagree mid-migration.
  std::vector<ClientId> orphans;
  orphans.reserve(clientServer_.size());
  for (const auto& [client, serverId] : clientServer_) {
    if (serverId == id) orphans.push_back(client);
  }

  // Excise the dead replica before re-homing so survivors neither pick it as
  // a peer nor keep hand-overs to it pending. Cross-zone handoffs may target
  // any zone, so every remaining server aborts hand-overs to the dead one.
  zones_.removeReplica(zone, id);
  servers_.erase(it);
  refreshPeers(zone);
  refreshSharding();
  const std::vector<ServerId> survivors = zones_.replicas(zone);
  for (auto& [sid, remaining] : servers_) {
    remaining->cancelMigrationsTo(id);
  }

  for (const ClientId client : orphans) {
    ClientEndpoint& endpoint = *clients_.at(client);
    // A migration or handoff target may have adopted the session right
    // around the crash; then the ack just never made it back. Prefer that
    // server — in any zone — it already runs the avatar.
    ServerId home{};
    for (const auto& [sid, candidate] : servers_) {
      if (!candidate->crashed() && candidate->hasClient(client)) {
        home = sid;
        break;
      }
    }
    if (home.valid() && servers_.at(home)->zone() != zone) {
      // Adopted across a zone border: the old zone's replicas still hold
      // stale shadows of the departed avatar (the dead source never lived
      // to announce the departure). Retire them.
      for (const ServerId sid : survivors) {
        servers_.at(sid)->world().remove(endpoint.avatar());
      }
    }
    if (!home.valid()) {
      // Adopt on the least-loaded survivor; a replica-sync shadow keeps the
      // avatar's state, otherwise the user respawns.
      ServerId best{};
      std::size_t bestUsers = std::numeric_limits<std::size_t>::max();
      for (const ServerId sid : survivors) {
        const std::size_t users = servers_.at(sid)->connectedUsers();
        if (users < bestUsers) {
          bestUsers = users;
          best = sid;
        }
      }
      if (!best.valid()) {
        // Zone wiped out: nobody can serve this user any more.
        endpoint.stop();
        clients_.erase(client);
        clientServer_.erase(client);
        ++report.clientsLost;
        continue;
      }
      if (servers_.at(best)->adoptOrphan(client, endpoint.avatar(), endpoint.node(),
                                         randomSpawn(zones_.zone(zone)))) {
        ++report.shadowsPromoted;
      }
      home = best;
    }
    endpoint.setServer(home, servers_.at(home)->node());
    clientServer_[client] = home;
    ++report.clientsRehomed;
  }

  if (!survivors.empty()) {
    report.npcsAdopted = servers_.at(survivors.front())->adoptNpcsFrom(id);
  }
  if (collector_ != nullptr) collector_->forget(id);
  return report;
}

void Cluster::refreshPeers(ZoneId zone) {
  const std::vector<ServerId> replicas = zones_.replicas(zone);
  std::vector<std::pair<ServerId, NodeId>> peers;
  peers.reserve(replicas.size());
  for (const ServerId id : replicas) {
    peers.emplace_back(id, servers_.at(id)->node());
  }
  for (const ServerId id : replicas) {
    servers_.at(id)->setPeers(peers);
  }
}

void Cluster::refreshSharding() {
  if (!sharding_) return;
  for (auto& [sid, server] : servers_) {
    const ZoneDescriptor& desc = zones_.zone(server->zone());
    if (desc.instanceOf.valid()) continue;  // instances live outside the grid
    server->setZoneBounds(desc.origin, desc.extent);
    // The resolver plays the role of RTF's zone directory service: given a
    // position, name the owning zone and a live replica there to adopt the
    // user. Evaluated inside ticks — everything it reads is simulated state.
    server->setHandoffResolver([this](Vec2 position) -> std::optional<HandoffTarget> {
      const ZoneId zone = zones_.zoneAt(position);
      if (!zone.valid()) return std::nullopt;
      ServerId best{};
      std::size_t bestUsers = std::numeric_limits<std::size_t>::max();
      for (const ServerId rid : zones_.replicas(zone)) {
        auto rit = servers_.find(rid);
        if (rit == servers_.end() || rit->second->crashed()) continue;
        const std::size_t users = rit->second->connectedUsers();
        if (users < bestUsers) {
          bestUsers = users;
          best = rid;
        }
      }
      if (!best.valid()) return std::nullopt;
      return HandoffTarget{zone, best, servers_.at(best)->node()};
    });
    const std::vector<ZoneId> neighborIds = zones_.neighbors(server->zone());
    std::vector<ZoneNeighbor> neighbors;
    neighbors.reserve(neighborIds.size());
    for (const ZoneId nz : neighborIds) {
      const ZoneDescriptor& nd = zones_.zone(nz);
      ZoneNeighbor neighbor{nz, nd.origin, nd.extent, {}};
      for (const ServerId rid : zones_.replicas(nz)) {
        auto rit = servers_.find(rid);
        if (rit == servers_.end() || rit->second->crashed()) continue;
        neighbor.servers.emplace_back(rid, rit->second->node());
      }
      neighbors.push_back(std::move(neighbor));
    }
    server->setNeighborZones(std::move(neighbors));
  }
}

Vec2 Cluster::randomSpawn(const ZoneDescriptor& zone) {
  return Vec2{rng_.uniform(zone.origin.x, zone.origin.x + zone.extent.x),
              rng_.uniform(zone.origin.y, zone.origin.y + zone.extent.y)};
}

}  // namespace roia::rtf
