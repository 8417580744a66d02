#include "rtf/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "obs/events.hpp"

namespace roia::rtf {
namespace {

/// Entry `n` of a scratch view that only grows, so every entry keeps its
/// appData capacity from one gather to the next; callers pass the first
/// `n` entries on as the view.
EntitySnapshot& scratchEntry(SnapshotView& scratch, std::size_t n) {
  if (n == scratch.size()) scratch.emplace_back();
  return scratch[n];
}

}  // namespace

Server::Server(ServerId id, ZoneId zone, Application& app, sim::Simulation& simulation,
               net::Network& network, ServerConfig config, Rng rng)
    : id_(id),
      app_(app),
      sim_(simulation),
      net_(network),
      config_(config),
      world_(zone),
      rng_(rng),
      cpu_([&] {
        auto cpuConfig = config.cpu;
        // Distinct noise stream per server even when the caller forgets to
        // set one: derive it from the server id.
        if (cpuConfig.noiseSeed == 0) cpuConfig.noiseSeed = 0x5eed0000ULL + id.value;
        return cpuConfig;
      }()),
      meter_(cpu_),
      cpuAccount_(SimDuration::seconds(2)),
      monitoringWindow_(config.monitoringWindow) {
  codec_ = SnapshotCodec(config_.replication);
  // Replica links replicate exactly: a promoted shadow must equal the dead
  // owner's state, so the lattice scales are forced off for peers.
  ReplicationProfile exact = config_.replication;
  exact.positionScale = 0.0;
  exact.velocityScale = 0.0;
  replicaCodec_ = SnapshotCodec(exact);
  node_ = net_.addNode([this](NodeId from, const ser::Frame& frame) { onFrame(from, frame); });
  reliable_ = std::make_unique<ReliableTransport>(sim_, net_, node_, config_.reliable);
  reliable_->setDeliver(
      [this](NodeId from, const ser::Frame& inner) { dispatchFrame(from, inner); });
}

Server::~Server() { shutdown(); }

void Server::start() {
  if (running_) return;
  running_ = true;
  // Stagger the first tick so replicas do not fire at identical instants.
  const auto offset =
      SimDuration::microseconds(static_cast<std::int64_t>(rng_.uniformInt(
          0, static_cast<std::uint64_t>(std::max<std::int64_t>(1, config_.tickInterval.micros)) - 1)));
  nextTick_ = sim_.scheduleAfter(offset, [this] { tick(); });
}

void Server::shutdown() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(nextTick_);
  net_.removeNode(node_);
}

void Server::crash() {
  crashed_ = true;
  if (telemetry_ != nullptr && !obsKey_.empty()) {
    telemetry_->flight.note(obsKey_, sim_.now(), "crash");
    telemetry_->flight.dump("crash:" + obsKey_, sim_.now());
  }
  shutdown();
}

void Server::setPeers(std::vector<std::pair<ServerId, NodeId>> peers) {
  peers_ = std::move(peers);
  // Never keep ourselves in the peer list.
  std::erase_if(peers_, [this](const auto& p) { return p.first == id_; });
}

void Server::spawnUser(ClientId client, EntityId entity, NodeId clientNode, Vec2 position) {
  EntityRecord record;
  record.id = entity;
  record.kind = EntityKind::kAvatar;
  record.zone = world_.zone();
  record.owner = id_;
  record.client = client;
  record.position = position;
  record.version = 1;
  world_.upsert(record);
  clients_[client] = ClientSession{clientNode, entity, false};
}

void Server::spawnNpc(EntityId entity, Vec2 position) {
  EntityRecord record;
  record.id = entity;
  record.kind = EntityKind::kNpc;
  record.zone = world_.zone();
  record.owner = id_;
  record.position = position;
  record.version = 1;
  world_.upsert(record);
}

bool Server::disconnectUser(ClientId client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return false;
  const EntityId entity = it->second.entity;
  world_.remove(entity);
  departedEntities_.push_back(entity);
  clients_.erase(it);
  return true;
}

bool Server::requestMigration(ClientId client, ServerId target, NodeId targetNode) {
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second.migrating) return false;
  it->second.migrating = true;
  migrationQueue_.push_back(PendingMigration{client, target, targetNode, ZoneId{}});
  return true;
}

bool Server::requestZoneHandoff(ClientId client, ServerId target, NodeId targetNode,
                                ZoneId targetZone) {
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second.migrating) return false;
  it->second.migrating = true;
  migrationQueue_.push_back(PendingMigration{client, target, targetNode, targetZone});
  return true;
}

void Server::setNeighborZones(std::vector<ZoneNeighbor> neighbors) {
  neighbors_ = std::move(neighbors);
}

void Server::setZoneBounds(Vec2 origin, Vec2 extent) {
  hasZoneBounds_ = true;
  zoneOrigin_ = origin;
  zoneExtent_ = extent;
}

void Server::cancelMigrationsTo(ServerId deadTarget) {
  // Queued hand-overs that never left: just un-flag the session.
  std::erase_if(migrationQueue_, [&](const PendingMigration& p) {
    if (p.target != deadTarget) return false;
    auto it = clients_.find(p.client);
    if (it != clients_.end()) it->second.migrating = false;
    return true;
  });
  // Hand-overs already signed over (avatar owner flipped, MigrationData
  // possibly in flight or lost with the crash): re-own the avatar. The dead
  // target can never ack, so without this the client wedges forever.
  for (auto& [client, session] : clients_) {
    if (!session.migrating) continue;
    auto avatar = world_.find(session.entity);
    if (!avatar || avatar->owner != deadTarget) continue;
    avatar->owner = id_;
    avatar->version += 1;  // outranks the stale signed-over snapshot
    session.migrating = false;
    if (telemetry_ != nullptr && session.traceId != 0) {
      // The session does not record which protocol kind went out; the
      // tracker matches trace id + protocol, so offer both — exactly one
      // (the one actually begun) closes.
      telemetry_->protocols.end(obs::Protocol::kMigration, session.traceId, sim_.now(),
                                obs::ProtocolOutcome::kCrashed);
      telemetry_->protocols.end(obs::Protocol::kZoneHandoff, session.traceId, sim_.now(),
                                obs::ProtocolOutcome::kCrashed);
    }
    session.traceId = 0;
  }
}

bool Server::adoptOrphan(ClientId client, EntityId entity, NodeId clientNode, Vec2 fallbackSpawn) {
  auto shadow = world_.find(entity);
  if (shadow) {
    // Promote the replica-sync shadow: the user resumes with the state the
    // crashed owner last published.
    shadow->owner = id_;
    shadow->version += 1;
    clients_[client] = ClientSession{clientNode, entity, false};
    return true;
  }
  spawnUser(client, entity, clientNode, fallbackSpawn);
  return false;
}

std::size_t Server::adoptNpcsFrom(ServerId deadOwner) {
  std::size_t adopted = 0;
  world_.forEach([&](EntityRef e) {
    if (e.isNpc() && e.owner == deadOwner) {
      e.owner = id_;
      e.version += 1;
      ++adopted;
    }
  });
  return adopted;
}

void Server::setTelemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  tickMetrics_.reset();
  if (telemetry_ == nullptr) return;
  traceTrack_ = telemetry_->tracer.track("server-" + std::to_string(id_.value));

  obs::MetricsRegistry& metrics = telemetry_->metrics;
  const obs::Labels labels{{"server", std::to_string(id_.value)}};
  TickMetrics cached{};
  cached.tickDurationMs = &metrics.histogram("roia_tick_duration_ms", labels);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    obs::Labels phaseLabels = labels;
    phaseLabels.emplace_back("phase", phaseName(static_cast<Phase>(p)));
    cached.phaseMicros[p] = &metrics.histogram("roia_tick_phase_us", phaseLabels);
  }
  cached.migrationsInitiated = &metrics.counter("roia_server_migrations_initiated_total", labels);
  cached.migrationsReceived = &metrics.counter("roia_server_migrations_received_total", labels);
  cached.inputsApplied = &metrics.counter("roia_server_inputs_applied_total", labels);
  cached.forwardedApplied = &metrics.counter("roia_server_forwarded_applied_total", labels);
  const obs::Labels endpoint{{"endpoint", "server-" + std::to_string(id_.value)}};
  cached.reliableRetransmissions =
      &metrics.counter("roia_reliable_retransmissions_total", endpoint);
  cached.reliableDuplicatesDropped =
      &metrics.counter("roia_reliable_duplicates_dropped_total", endpoint);
  cached.reliableAbandoned = &metrics.counter("roia_reliable_abandoned_total", endpoint);
  tickMetrics_ = cached;

  obsKey_ = "server-" + std::to_string(id_.value);
  // Objectives must be installed before servers attach; a later
  // addObjective with the same name keeps its handle valid.
  obsSlo_ = SloHandles{};
  obsSlo_.tick = telemetry_->slo.findHandle(obs::kSloTickTime);
  obsSlo_.rate = telemetry_->slo.findHandle(obs::kSloUpdateRate);
  obsSlo_.handoff = telemetry_->slo.findHandle(obs::kSloHandoffLatency);
}

void Server::recordTickTelemetry(const TickProbes& probes) {
  TickMetrics& m = *tickMetrics_;
  m.tickDurationMs->add(probes.totalMicros() / 1000.0);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (probes.phaseMicros[p] > 0.0) m.phaseMicros[p]->add(probes.phaseMicros[p]);
  }
  m.migrationsInitiated->increment(probes.migrationsInitiated);
  m.migrationsReceived->increment(probes.migrationsReceived);
  m.inputsApplied->increment(probes.inputsApplied);
  m.forwardedApplied->increment(probes.forwardedApplied);
  const ReliableStats& rs = reliable_->stats();
  m.reliableRetransmissions->setTotal(rs.retransmissions);
  m.reliableDuplicatesDropped->setTotal(rs.duplicatesDropped);
  m.reliableAbandoned->setTotal(rs.abandoned);

  recordHealthTelemetry(probes);

  obs::Tracer& tracer = telemetry_->tracer;
  const std::size_t sample = std::max<std::size_t>(1, telemetry_->traceTickSampleEvery);
  if (probes.tickSeq % sample != 0) return;
  // The tick occupies [start, start + busy] in simulated time. The phases
  // did not run contiguously (PhaseScope interleaves them), but their
  // per-tick totals laid out back to back inside the tick span show the
  // same cost breakdown Perfetto-style: one child span per phase.
  tracer.beginSpan(traceTrack_, probes.start, "tick", "tick",
                   {{"seq", std::to_string(probes.tickSeq)},
                    {"users", std::to_string(probes.activeUsers)},
                    {"avatars", std::to_string(probes.totalAvatars)},
                    {"npcs", std::to_string(probes.npcs)}});
  SimTime cursor = probes.start;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const double micros = probes.phaseMicros[p];
    if (micros <= 0.0) continue;
    const auto duration = SimDuration::microseconds(static_cast<std::int64_t>(micros));
    tracer.completeSpan(traceTrack_, cursor, duration, phaseName(static_cast<Phase>(p)), "phase");
    cursor = cursor + duration;
  }
  tracer.endSpan(traceTrack_, probes.start + probes.totalDuration());
}

void Server::recordHealthTelemetry(const TickProbes& probes) {
  const SimTime now = sim_.now();
  const double measuredMs = probes.totalMicros() / 1000.0;
  const double predictedMs =
      tickPredictor_ ? tickPredictor_(probes.activeUsers, probes.totalAvatars, probes.npcs) : -1.0;

  obs::FlightFrame frame;
  frame.tick = probes.tickSeq;
  frame.atMicros = probes.start.micros;
  frame.durationMs = measuredMs;
  frame.predictedMs = predictedMs;
  frame.users = probes.activeUsers;
  frame.avatars = probes.totalAvatars;
  frame.npcs = probes.npcs;
  frame.level = overloadLevel_;
  telemetry_->flight.recordTick(obsKey_, frame);

  // Eq.2/Eq.4 model drift: predicted vs. measured tick time residual. The
  // predictor is a pure function, so the extra evaluation here never
  // perturbs the simulated timeline.
  if (tickPredictor_) {
    if (const auto drift = telemetry_->drift.record(obsKey_, predictedMs, measuredMs, now)) {
      char rationale[160];
      std::snprintf(rationale, sizeof(rationale),
                    "window mean |rel err| %.3f left band %.3f after %llu samples",
                    drift->windowMeanAbsRelError, drift->band,
                    static_cast<unsigned long long>(drift->samples));
      auditEvent(obs::AuditEvent::kModelDrift, "drift-monitor", "drift:rel_error_band", measuredMs,
                 predictedMs, rationale);
      telemetry_->flight.note(obsKey_, now, "model_drift");
    }
  }

  if (obsSlo_.tick) {
    if (const auto breach = telemetry_->slo.record(*obsSlo_.tick, obsKey_, measuredMs, now)) {
      onSloBreach(*breach, predictedMs);
    }
  }
  if (obsSlo_.rate) {
    // Effective update rate: the loop stretches when busy exceeds the tick
    // interval, so the achieved rate is 1000 / max(interval, busy) Hz.
    const double intervalMs = std::max(config_.tickInterval.asMillis(), measuredMs);
    const double rateHz = intervalMs > 0.0 ? 1000.0 / intervalMs : 0.0;
    if (const auto breach = telemetry_->slo.record(*obsSlo_.rate, obsKey_, rateHz, now)) {
      onSloBreach(*breach, predictedMs);
    }
  }
}

void Server::onSloBreach(const obs::SloBreach& breach, double predictedMs) {
  char rationale[200];
  std::snprintf(rationale, sizeof(rationale),
                "objective '%s': value=%.3f short_burn=%.2f long_burn=%.2f compliance=%.4f/%.4f",
                breach.objective.c_str(), breach.value, breach.shortBurn, breach.longBurn,
                breach.shortCompliance, breach.longCompliance);
  auditEvent(obs::AuditEvent::kSloBreach, "slo-engine", "slo:" + breach.objective, breach.value,
             predictedMs, rationale);
  telemetry_->flight.note(obsKey_, sim_.now(), "slo_breach:" + breach.objective);
  telemetry_->flight.dump("slo_breach:" + breach.objective + ":" + obsKey_, sim_.now());
}

void Server::forwardInteraction(EntityId target, EntityId source,
                                std::vector<std::uint8_t> payload) {
  outForwarded_.push_back(ForwardedInputMsg{target, source, std::move(payload)});
}

void Server::onFrame(NodeId from, const ser::Frame& frame) {
  if (!running_) return;
  // Control-plane traffic arrives in reliable envelopes; the transport acks,
  // deduplicates and hands the inner frame back to dispatchFrame.
  if (reliable_->onFrame(from, frame)) return;
  dispatchFrame(from, frame);
}

void Server::dispatchFrame(NodeId from, const ser::Frame& frame) {
  if (!running_) return;
  const std::size_t bytes = frame.payload.size();
  switch (frame.type) {
    case ser::MessageType::kClientInput:
      inClientInputs_.push_back({decodeClientInput(frame), bytes, from});
      break;
    case ser::MessageType::kForwardedInput:
      inForwarded_.push_back({decodeForwardedInput(frame), bytes, from});
      break;
    case ser::MessageType::kEntityReplication:
      inReplication_.push_back({decodeEntityReplication(frame), bytes, from});
      break;
    case ser::MessageType::kMigrationData:
      inMigrationData_.push_back({decodeMigrationData(frame), bytes, from});
      break;
    case ser::MessageType::kMigrationAck:
      inMigrationAcks_.push_back(decodeMigrationAck(frame));
      break;
    case ser::MessageType::kZoneHandoff:
      inZoneHandoffs_.push_back({decodeZoneHandoff(frame), bytes, from});
      break;
    case ser::MessageType::kZoneHandoffAck:
      inZoneHandoffAcks_.push_back(decodeZoneHandoffAck(frame));
      break;
    case ser::MessageType::kBorderSync:
      inBorderSync_.push_back({decodeBorderSync(frame), bytes, from});
      break;
    case ser::MessageType::kViewReplication:
      inViewReplication_.push_back({decodeViewReplication(frame), bytes, from});
      break;
    case ser::MessageType::kReplicationAck:
      inReplicationAcks_.push_back(decodeReplicationAck(frame));
      break;
    default:
      logWarn("rtf.server", "unhandled frame type ", static_cast<int>(frame.type));
      break;
  }
}

void Server::tick() {
  if (!running_) return;
  inTick_ = true;
  TickProbes probes;
  probes.start = sim_.now();
  probes.tickSeq = tickSeq_;
  meter_.beginTick(probes);
  meter_.chargeTo(Phase::kOther, config_.tickBaseCost);
  app_.onTickBegin(world_, meter_);

  processMigrationArrivals();
  processZoneHandoffArrivals();
  processReplication();
  processBorderSync();
  expireBorderShadows();
  processForwardedInputs();
  processClientInputs();
  updateNpcs();
  flushForwarded();  // interactions emitted by any phase above
  sendStateUpdates();
  sendReplicaSync();
  sendBorderSync();
  detectZoneExits();
  initiateMigrations();
  processMigrationAcks();

  // Workload facts for the estimator: a (active users), n (total avatars).
  // One pass over the world replaces three predicate scans.
  const World::Census census = world_.census(id_);
  probes.activeUsers = census.activeAvatars;
  probes.totalAvatars = census.totalAvatars;
  probes.shadowAvatars = census.shadowAvatars();
  probes.npcs = census.activeNpcs;
  lastTickActiveUsers_ = probes.activeUsers;

  // Fold per-tick counters captured during the phases above.
  probes.migrationsInitiated = tickMigrationsInitiated_;
  probes.migrationsReceived = tickMigrationsReceived_;
  probes.inputsApplied = tickInputsApplied_;
  probes.forwardedApplied = tickForwardedApplied_;
  tickMigrationsInitiated_ = tickMigrationsReceived_ = 0;
  tickInputsApplied_ = tickForwardedApplied_ = 0;

  // Publish monitoring to the management plane on its own cadence. The
  // snapshot rides the reliable channel: RTF-RMS must not starve under
  // loss. Heartbeats go raw — a retransmitted beat proves nothing.
  if (monitoringTarget_.valid() &&
      (tickSeq_ == 0 ||
       sim_.now() - lastMonitoringPublish_ >= config_.monitoringPublishPeriod)) {
    meter_.chargeTo(Phase::kOther, config_.monitoringPublishCost);
    reliable_->send(monitoringTarget_, encodeMonitoring(monitoring()));
    lastMonitoringPublish_ = sim_.now();
  }
  if (monitoringTarget_.valid() &&
      (heartbeatSeq_ == 0 || sim_.now() - lastHeartbeat_ >= config_.heartbeatPeriod)) {
    net_.send(node_, monitoringTarget_, encode(HeartbeatMsg{id_, heartbeatSeq_, sim_.now()}));
    ++heartbeatSeq_;
    lastHeartbeat_ = sim_.now();
  }

  meter_.endTick();
  const SimDuration busy = probes.totalDuration();
  cpuAccount_.recordTick(probes.start, busy, config_.tickInterval);
  monitoringWindow_.record(probes);
  if (config_.overload.enabled) updateOverloadLadder(probes, busy);
  if (tickMetrics_) recordTickTelemetry(probes);
  if (probeListener_) probeListener_(*this, probes);
  ++tickSeq_;
  inTick_ = false;

  // An overloaded server cannot hold its tick rate: the next iteration
  // starts when this one finishes, i.e. the loop stretches.
  const SimDuration delay = std::max(config_.tickInterval, busy);
  nextTick_ = sim_.scheduleAfter(delay, [this] { tick(); });
}

void Server::processMigrationArrivals() {
  PhaseScope scope(meter_, Phase::kMigRcv);
  while (!inMigrationData_.empty()) {
    auto [msg, bytes, from] = std::move(inMigrationData_.front());
    (void)from;  // migration flows are matched by ClientId, not sender
    inMigrationData_.pop_front();
    // Refuse hand-overs from servers that are no longer peers: the source
    // crashed (or was decommissioned) after sending, and adopting now would
    // race with the management plane re-homing the same user elsewhere.
    const bool sourceIsPeer =
        std::any_of(peers_.begin(), peers_.end(),
                    [&](const auto& p) { return p.first == msg.source; });
    if (!sourceIsPeer) continue;
    meter_.charge(config_.migRcvBaseCost +
                  config_.migRcvPerEntityCost * static_cast<double>(world_.size()) +
                  config_.migRcvPerByteCost * static_cast<double>(bytes));
    EntityRecord record;
    record.id = msg.entity.id;
    record.zone = world_.zone();
    msg.entity.applyTo(record);
    record.owner = id_;  // we adopt responsibility
    record.version += 1;
    EntityRef stored = world_.upsert(record);
    app_.importUserState(stored, msg.appState, meter_);
    clients_[msg.client] = ClientSession{msg.clientNode, msg.entity.id, false};
    ++tickMigrationsReceived_;
    ++migrationsReceivedTotal_;
    if (telemetry_ != nullptr) {
      telemetry_->protocols.phase(obs::Protocol::kMigration, msg.traceId, sim_.now(), "transfer");
      telemetry_->tracer.flowFinish(traceTrack_, sim_.now(), obs::migrationFlowId(msg.client),
                                    "migration", "migration");
    }

    // Acknowledge to the source so it can release the user.
    MigrationAckMsg ack{msg.client, msg.entity.id, id_, msg.traceId};
    // The source's node: find it among peers; sources are always peers.
    for (const auto& [serverId, nodeId] : peers_) {
      if (serverId == msg.source) {
        reliable_->send(nodeId, encode(ack));
        break;
      }
    }
  }
}

void Server::processZoneHandoffArrivals() {
  PhaseScope scope(meter_, Phase::kMigRcv);
  while (!inZoneHandoffs_.empty()) {
    auto [msg, bytes, from] = std::move(inZoneHandoffs_.front());
    (void)from;
    inZoneHandoffs_.pop_front();
    // Only the destination zone may adopt; anything else is a routing bug
    // or a frame that outlived a topology change.
    if (msg.toZone != world_.zone()) continue;
    // Refuse hand-overs whose source has crashed: recovery will re-home the
    // user in its original zone, and adopting here too would duplicate it.
    if (handoffAdmission_ && !handoffAdmission_(msg.source)) continue;
    meter_.charge(config_.migRcvBaseCost +
                  config_.migRcvPerEntityCost * static_cast<double>(world_.size()) +
                  config_.migRcvPerByteCost * static_cast<double>(bytes));
    const auto ackTo = [&](const ZoneHandoffAckMsg& ack) {
      if (msg.sourceNode.valid()) reliable_->send(msg.sourceNode, encode(ack));
    };
    auto existing = clients_.find(msg.client);
    if (existing != clients_.end()) {
      const auto current = world_.find(existing->second.entity);
      if (current && msg.entity.version <= current->version) {
        // Stale or duplicate delivery (redelivery after a lost ack): we
        // already hold a newer incarnation; re-acknowledge so the sender
        // retires its copy, but adopt nothing. Echoing the message's own
        // version keeps the re-ack inert at any sender that moved on.
        ackTo(ZoneHandoffAckMsg{msg.client, existing->second.entity, id_, world_.zone(),
                                msg.entity.version, msg.traceId});
        continue;
      }
      // Otherwise this hand-over supersedes ours: the peer adopted the
      // entity we signed over and is already handing it back (fast
      // ping-pong across the border). Adopt it below — the overwrite
      // refreshes record and session, and the stale ack of our own
      // outbound sign-over is ignored by the version guard in
      // processMigrationAcks.
      if (telemetry_ != nullptr && existing->second.migrating &&
          existing->second.traceId != 0) {
        telemetry_->protocols.end(obs::Protocol::kZoneHandoff, existing->second.traceId,
                                  sim_.now(), obs::ProtocolOutcome::kSuperseded);
      }
    }
    EntityRecord record;
    record.id = msg.entity.id;
    msg.entity.applyTo(record);
    record.zone = world_.zone();
    record.owner = id_;
    record.version += 1;
    if (hasZoneBounds_) {
      // RMS-driven rebalancing hands off users whose position is still in
      // the old zone; pull them inside so they are not bounced back.
      const double insetX = zoneExtent_.x * 1e-6;
      const double insetY = zoneExtent_.y * 1e-6;
      record.position.x =
          std::clamp(record.position.x, zoneOrigin_.x, zoneOrigin_.x + zoneExtent_.x - insetX);
      record.position.y =
          std::clamp(record.position.y, zoneOrigin_.y, zoneOrigin_.y + zoneExtent_.y - insetY);
    }
    // Replaces any border shadow of the same entity.
    borderSeen_.erase(record.id);
    EntityRef stored = world_.upsert(record);
    app_.importUserState(stored, msg.appState, meter_);
    clients_[msg.client] = ClientSession{msg.clientNode, msg.entity.id, false};
    ++tickMigrationsReceived_;
    ++handoffsReceivedTotal_;
    if (telemetry_ != nullptr) {
      telemetry_->protocols.phase(obs::Protocol::kZoneHandoff, msg.traceId, sim_.now(),
                                  "transfer");
      telemetry_->tracer.flowFinish(traceTrack_, sim_.now(), obs::migrationFlowId(msg.client),
                                    "zone-handoff", "migration");
    }
    ackTo(ZoneHandoffAckMsg{msg.client, msg.entity.id, id_, world_.zone(), msg.entity.version,
                            msg.traceId});
  }
}

void Server::processReplication() {
  while (!inReplication_.empty()) {
    auto [msg, bytes, from] = std::move(inReplication_.front());
    inReplication_.pop_front();
    meter_.chargeTo(Phase::kFaDser, config_.peerDserBaseCost +
                                        config_.peerDserPerByteCost * static_cast<double>(bytes));
    if (telemetry_ != nullptr) {
      telemetry_->tracer.flowFinish(traceTrack_, sim_.now(),
                                    obs::replicaSyncFlowId(from, msg.serverTick), "replica-sync",
                                    "replication");
    }
    PhaseScope scope(meter_, Phase::kFa);
    for (const EntitySnapshot& snapshot : msg.entities) applyShadowSnapshot(snapshot);
    for (const EntityId removed : msg.removed) retireShadow(removed);
  }

  // Delta-codec replica traffic. Acks first, so a baseline acked earlier in
  // the same tick-interval is usable for the views drained below.
  while (!inReplicationAcks_.empty()) {
    const ReplicationAckMsg ack = inReplicationAcks_.front();
    inReplicationAcks_.pop_front();
    auto it = replicaSenders_.find(ack.acker);
    if (it != replicaSenders_.end()) it->second.onAck(ack.tick);
  }
  while (!inViewReplication_.empty()) {
    auto [msg, bytes, from] = std::move(inViewReplication_.front());
    inViewReplication_.pop_front();
    meter_.chargeTo(Phase::kFaDser, config_.peerDserBaseCost +
                                        config_.peerDserPerByteCost * static_cast<double>(bytes));
    if (telemetry_ != nullptr) {
      telemetry_->tracer.flowFinish(traceTrack_, sim_.now(),
                                    obs::replicaSyncFlowId(from, msg.serverTick), "replica-sync",
                                    "replication");
    }
    auto [receiver, inserted] =
        replicaReceivers_.try_emplace(msg.source, replicaCodec_);
    (void)inserted;
    const auto decoded = receiver->second.decodeView(msg.view);
    if (!decoded) continue;  // stale tick or lost baseline; sender keyframes
    PhaseScope scope(meter_, Phase::kFa);
    for (const EntitySnapshot& snapshot : decoded->view) applyShadowSnapshot(snapshot);
    for (const EntityId removed : decoded->removed) retireShadow(removed);
    // Best-effort baseline ack: a lost ack only delays delta compression
    // (the sender keyframes once its window expires).
    net_.send(node_, from, encode(ReplicationAckMsg{id_, decoded->serverTick}));
  }
}

void Server::applyShadowSnapshot(const EntitySnapshot& snapshot) {
  if (snapshot.owner == id_) return;  // stale echo of a migrated entity
  auto existing = world_.find(snapshot.id);
  if (existing) {
    if (snapshot.version <= existing->version) return;  // out of date
    snapshot.applyTo(*existing);
    if (existing->zone != world_.zone()) {
      // A border shadow just handed off into this zone: a replica peer
      // owns it now, so it becomes a regular same-zone shadow.
      existing->zone = world_.zone();
      borderSeen_.erase(existing->id);
    }
    meter_.charge(config_.shadowApplyCost);
    app_.onShadowUpdated(world_, *existing, meter_);
  } else {
    EntityRecord record;
    record.id = snapshot.id;
    record.zone = world_.zone();
    snapshot.applyTo(record);
    EntityRef stored = world_.upsert(record);
    meter_.charge(config_.shadowApplyCost);
    app_.onShadowUpdated(world_, stored, meter_);
  }
}

void Server::retireShadow(EntityId id) {
  const auto record = world_.find(id);
  if (record && record->owner != id_) world_.remove(id);
}

void Server::processBorderSync() {
  while (!inBorderSync_.empty()) {
    auto [msg, bytes, from] = std::move(inBorderSync_.front());
    (void)from;
    inBorderSync_.pop_front();
    if (msg.zone == world_.zone()) continue;  // misrouted: our own zone
    meter_.chargeTo(Phase::kFaDser, config_.peerDserBaseCost +
                                        config_.peerDserPerByteCost * static_cast<double>(bytes));
    PhaseScope scope(meter_, Phase::kFa);
    for (const EntitySnapshot& snapshot : msg.entities) {
      if (snapshot.owner == id_) continue;
      auto existing = world_.find(snapshot.id);
      if (existing) {
        if (existing->zone == world_.zone()) continue;  // ours or same-zone shadow
        if (snapshot.version > existing->version) {
          snapshot.applyTo(*existing);
          existing->zone = msg.zone;
          meter_.charge(config_.shadowApplyCost);
          app_.onShadowUpdated(world_, *existing, meter_);
        }
        // Any fresh word from the home zone refreshes the TTL, even a
        // duplicate or reordered frame carrying an older version.
        borderSeen_[snapshot.id] = sim_.now();
      } else {
        EntityRecord record;
        record.id = snapshot.id;
        snapshot.applyTo(record);
        record.zone = msg.zone;  // homed in the neighbor zone
        EntityRef stored = world_.upsert(record);
        meter_.charge(config_.shadowApplyCost);
        app_.onShadowUpdated(world_, stored, meter_);
        borderSeen_[snapshot.id] = sim_.now();
      }
    }
  }
}

void Server::expireBorderShadows() {
  if (borderSeen_.empty()) return;
  for (auto it = borderSeen_.begin(); it != borderSeen_.end();) {
    const auto record = world_.find(it->first);
    if (!record || record->zone == world_.zone() || record->owner == id_) {
      it = borderSeen_.erase(it);  // adopted, handed off here, or gone
      continue;
    }
    if (sim_.now() - it->second > config_.borderShadowTtl) {
      world_.remove(it->first);
      it = borderSeen_.erase(it);
      continue;
    }
    ++it;
  }
}

void Server::processForwardedInputs() {
  while (!inForwarded_.empty()) {
    auto [msg, bytes, from] = std::move(inForwarded_.front());
    (void)from;
    inForwarded_.pop_front();
    meter_.chargeTo(Phase::kFaDser, config_.peerDserBaseCost +
                                        config_.peerDserPerByteCost * static_cast<double>(bytes));
    auto target = world_.find(msg.target);
    if (!target || target->owner != id_) continue;  // moved on
    PhaseScope scope(meter_, Phase::kFa);
    app_.applyForwardedInteraction(world_, *target, msg.source, msg.interaction, meter_, *this);
    ++tickForwardedApplied_;
  }
}

void Server::flushForwarded() {
  for (ForwardedInputMsg& fwd : outForwarded_) {
    const auto target = world_.find(fwd.target);
    if (!target) continue;
    for (const auto& [serverId, nodeId] : peers_) {
      if (serverId == target->owner) {
        net_.send(node_, nodeId, encode(fwd));
        break;
      }
    }
  }
  outForwarded_.clear();
}

void Server::processClientInputs() {
  while (!inClientInputs_.empty()) {
    auto [msg, bytes, from] = std::move(inClientInputs_.front());
    (void)from;
    inClientInputs_.pop_front();
    meter_.chargeTo(Phase::kUaDser, config_.inputDserBaseCost +
                                        config_.inputDserPerByteCost * static_cast<double>(bytes));
    auto it = clients_.find(msg.client);
    if (it == clients_.end() || it->second.migrating) continue;  // handover
    // Piggybacked delta-codec ack: viewAck is the acked view tick + 1.
    if (msg.viewAck != 0 && it->second.sender != nullptr) {
      it->second.sender->onAck(msg.viewAck - 1);
    }
    auto avatar = world_.find(it->second.entity);
    if (!avatar || avatar->owner != id_) continue;
    PhaseScope scope(meter_, Phase::kUa);
    app_.applyUserInput(world_, *avatar, msg.commands, meter_, *this, rng_);
    avatar->version += 1;
    ++tickInputsApplied_;
  }
}

void Server::updateNpcs() {
  PhaseScope scope(meter_, Phase::kNpc);
  // Deep ladder rungs run NPC decisions at half frequency; the id offset
  // staggers which half thinks each tick so no NPC freezes entirely.
  const bool throttle = config_.overload.enabled && overloadLevel_ >= kNpcThrottleLevel;
  world_.forEach([this, throttle](EntityRef e) {
    if (!e.isNpc() || e.owner != id_) return;
    if (throttle && (tickSeq_ + e.id.value) % 2 != 0) return;
    app_.updateNpc(world_, e, meter_, rng_);
    e.version += 1;
  });
}

void Server::sendStateUpdates() {
  // Deepest ladder rung: the shedObservers_ highest client ids get no AOI
  // scan or state update this tick (their inputs still apply and their
  // avatars stay owned here — only observation is shed).
  const std::size_t serveLimit =
      shedObservers_ < clients_.size() ? clients_.size() - shedObservers_ : 0;
  // Level >= kSuHalvingLevel halves the update rate of non-critical
  // entities: on odd ticks the update keeps only avatars this server
  // simulates, dropping NPCs and shadows.
  const bool halveNonCritical =
      config_.overload.enabled && overloadLevel_ >= kSuHalvingLevel && tickSeq_ % 2 == 1;
  std::size_t served = 0;
  for (auto& [clientId, session] : clients_) {
    if (session.migrating) continue;
    if (served >= serveLimit) continue;  // shed observer (highest ids)
    const auto viewer = std::as_const(world_).find(session.entity);
    if (!viewer || viewer->owner != id_) continue;
    ++served;

    {
      PhaseScope scope(meter_, Phase::kAoi);
      app_.computeAreaOfInterest(world_, *viewer, meter_, aoiScratch_);
    }
    PhaseScope scope(meter_, Phase::kSu);
    if (halveNonCritical) {
      // Slots from the AOI query stay valid here: no structural world
      // mutation happens between the query and the update encoding.
      std::erase_if(aoiScratch_, [&](std::uint32_t s) {
        return world_.kinds()[s] == EntityKind::kNpc || world_.owners()[s] != id_;
      });
    }
    if (config_.replication.codec == ReplicationCodec::kDelta) {
      // Delta codec: gather the visible set plus the viewer itself into the
      // scratch view and diff it against this link's acked baseline. The
      // AOI slots ascend and slot order is id order, so merging the viewer
      // in at its id keeps the view sorted.
      std::size_t n = 0;
      bool viewerGathered = false;
      for (const std::uint32_t slot : aoiScratch_) {
        if (!viewerGathered && world_.ids()[slot] > viewer->id.value) {
          scratchEntry(viewScratch_, n++).assignFrom(*viewer, false);
          viewerGathered = true;
        }
        scratchEntry(viewScratch_, n++).assignFrom(std::as_const(world_).refAt(slot), false);
      }
      if (!viewerGathered) scratchEntry(viewScratch_, n++).assignFrom(*viewer, false);
      const std::span<const EntitySnapshot> view(viewScratch_.data(), n);
      meter_.charge(config_.replication.deltaGatherPerEntityCost *
                    static_cast<double>(view.size()));
      if (session.sender == nullptr) {
        session.sender = std::make_unique<BaselineSender>(codec_, kClientViewFields);
      }
      ser::ByteWriter writer(32 + view.size() * 8);
      session.sender->encodeView(tickSeq_, view, {}, writer);
      meter_.charge(config_.updateSerBaseCost +
                    config_.updateSerPerByteCost * static_cast<double>(writer.size()));
      ser::Frame frame;
      frame.type = ser::MessageType::kViewUpdate;
      frame.payload = std::move(writer).take();
      net_.send(node_, session.clientNode, std::move(frame));
      continue;
    }
    app_.buildStateUpdate(world_, *viewer, aoiScratch_, meter_, updateScratch_);
    meter_.charge(config_.updateSerBaseCost +
                  config_.updateSerPerByteCost * static_cast<double>(updateScratch_.size()));
    net_.send(node_, session.clientNode, SnapshotCodec::encodeStateUpdate(tickSeq_, updateScratch_));
  }
}

void Server::sendReplicaSync() {
  if (config_.replication.codec == ReplicationCodec::kDelta) {
    sendReplicaSyncDelta();
    return;
  }
  if (peers_.empty()) {
    departedEntities_.clear();
    return;
  }
  EntityReplicationMsg msg;
  msg.serverTick = tickSeq_;
  world_.forEach([this, &msg](ConstEntityRef e) {
    if (e.owner == id_) msg.entities.push_back(EntitySnapshot::of(e));
  });
  msg.removed = std::move(departedEntities_);
  departedEntities_.clear();
  if (msg.entities.empty() && msg.removed.empty()) return;

  const ser::Frame frame = encode(msg);
  meter_.chargeTo(Phase::kSu,
                  config_.replSerBaseCost +
                      config_.replSerPerByteCost * static_cast<double>(frame.payload.size()));
  if (telemetry_ != nullptr) {
    // One fan-out flow per sync round; each peer's receive ends it.
    telemetry_->tracer.flowStart(traceTrack_, sim_.now(),
                                 obs::replicaSyncFlowId(node_, tickSeq_), "replica-sync",
                                 "replication");
  }
  for (const auto& [serverId, nodeId] : peers_) {
    (void)serverId;
    reliable_->send(nodeId, frame);
  }
}

void Server::sendReplicaSyncDelta() {
  if (peers_.empty()) {
    departedEntities_.clear();
    replicaSenders_.clear();
    return;
  }
  // Owned entities, gathered once in id order; every peer link diffs the
  // same view against its own acked baseline.
  std::size_t n = 0;
  world_.forEach([this, &n](ConstEntityRef e) {
    if (e.owner == id_) scratchEntry(viewScratch_, n++).assignFrom(e, true);
  });
  const std::span<const EntitySnapshot> view(viewScratch_.data(), n);
  if (view.empty() && departedEntities_.empty()) return;

  if (telemetry_ != nullptr) {
    // One fan-out flow per sync round; each peer's receive ends it.
    telemetry_->tracer.flowStart(traceTrack_, sim_.now(),
                                 obs::replicaSyncFlowId(node_, tickSeq_), "replica-sync",
                                 "replication");
  }
  for (const auto& [serverId, nodeId] : peers_) {
    auto [sender, inserted] = replicaSenders_.try_emplace(serverId, replicaCodec_, kAllFields);
    (void)inserted;
    ser::ByteWriter writer(32 + view.size() * 16);
    sender->second.encodeView(tickSeq_, view, departedEntities_, writer);
    ViewReplicationMsg msg{tickSeq_, id_, std::move(writer).take()};
    const ser::Frame frame = encode(msg);
    // Encoded per peer (each link has its own baseline), so serialization
    // cost is charged per frame, unlike the shared full-mode encode.
    meter_.chargeTo(Phase::kSu,
                    config_.replSerBaseCost +
                        config_.replSerPerByteCost * static_cast<double>(frame.payload.size()));
    reliable_->send(nodeId, frame);
  }
  departedEntities_.clear();
}

void Server::sendBorderSync() {
  if (neighbors_.empty() || config_.borderWidth <= 0.0) return;
  for (const ZoneNeighbor& neighbor : neighbors_) {
    if (neighbor.servers.empty()) continue;
    // Own-zone active entities inside the neighbor's rectangle inflated by
    // the border width: what avatars just across the border could see.
    const double loX = neighbor.origin.x - config_.borderWidth;
    const double hiX = neighbor.origin.x + neighbor.extent.x + config_.borderWidth;
    const double loY = neighbor.origin.y - config_.borderWidth;
    const double hiY = neighbor.origin.y + neighbor.extent.y + config_.borderWidth;
    borderScratch_.clear();
    world_.forEach([&](ConstEntityRef e) {
      if (e.owner != id_ || e.zone != world_.zone()) return;
      if (e.position.x < loX || e.position.x >= hiX || e.position.y < loY ||
          e.position.y >= hiY) {
        return;
      }
      borderScratch_.push_back(EntitySnapshot::of(e));
    });
    if (borderScratch_.empty()) continue;
    BorderSyncMsg msg;
    msg.serverTick = tickSeq_;
    msg.zone = world_.zone();
    msg.source = id_;
    msg.entities = borderScratch_;
    const ser::Frame frame = encode(msg);
    meter_.chargeTo(Phase::kSu,
                    config_.borderSerBaseCost +
                        config_.borderSerPerByteCost * static_cast<double>(frame.payload.size()));
    // Best-effort raw frames: versions + TTL absorb loss and duplication,
    // and reliable state per (server, neighbor-server) pair would dwarf the
    // payload at scale.
    for (const auto& [serverId, nodeId] : neighbor.servers) {
      (void)serverId;
      net_.send(node_, nodeId, frame);
    }
  }
}

void Server::detectZoneExits() {
  if (!handoffResolver_) return;
  for (auto& [clientId, session] : clients_) {
    if (session.migrating) continue;
    const auto avatar = world_.find(session.entity);
    if (!avatar || avatar->owner != id_ || avatar->zone != world_.zone()) continue;
    const auto target = handoffResolver_(avatar->position);
    if (!target.has_value() || target->zone == world_.zone()) continue;
    session.migrating = true;
    migrationQueue_.push_back(
        PendingMigration{clientId, target->server, target->node, target->zone});
  }
}

void Server::initiateMigrations() {
  PhaseScope scope(meter_, Phase::kMigIni);
  while (!migrationQueue_.empty()) {
    const PendingMigration pending = migrationQueue_.front();
    migrationQueue_.pop_front();
    auto it = clients_.find(pending.client);
    if (it == clients_.end()) continue;  // user left meanwhile
    auto avatar = world_.find(it->second.entity);
    if (!avatar || avatar->owner != id_) {
      it->second.migrating = false;
      continue;
    }

    avatar->version += 1;
    avatar->owner = pending.target;  // hand over responsibility

    // The trace id goes into the message bytes, so it is allocated
    // unconditionally — the wire image must not depend on telemetry.
    const std::uint64_t traceId = obs::protocolTraceId(id_.value, ++protocolSeq_);
    it->second.traceId = traceId;

    ser::Frame frame;
    if (pending.targetZone.valid()) {
      ZoneHandoffMsg msg;
      msg.client = pending.client;
      msg.clientNode = it->second.clientNode;
      msg.fromZone = world_.zone();
      msg.toZone = pending.targetZone;
      msg.entity = EntitySnapshot::of(*avatar);
      msg.appState = app_.exportUserState(*avatar, meter_);
      msg.source = id_;
      msg.sourceNode = node_;
      msg.traceId = traceId;
      frame = encode(msg);
      ++handoffsInitiatedTotal_;
    } else {
      MigrationDataMsg msg;
      msg.client = pending.client;
      msg.clientNode = it->second.clientNode;
      msg.entity = EntitySnapshot::of(*avatar);
      msg.appState = app_.exportUserState(*avatar, meter_);
      msg.source = id_;
      msg.traceId = traceId;
      frame = encode(msg);
      ++migrationsInitiatedTotal_;
    }
    meter_.charge(config_.migIniBaseCost +
                  config_.migIniPerEntityCost * static_cast<double>(world_.size()) +
                  config_.migIniPerByteCost * static_cast<double>(frame.payload.size()));
    reliable_->send(pending.targetNode, frame);
    ++tickMigrationsInitiated_;
    if (telemetry_ != nullptr) {
      telemetry_->protocols.begin(
          pending.targetZone.valid() ? obs::Protocol::kZoneHandoff : obs::Protocol::kMigration,
          traceId, sim_.now());
      telemetry_->tracer.flowStart(traceTrack_, sim_.now(), obs::migrationFlowId(pending.client),
                                   pending.targetZone.valid() ? "zone-handoff" : "migration",
                                   "migration");
    }
  }
}

void Server::processMigrationAcks() {
  PhaseScope scope(meter_, Phase::kOther);
  while (!inMigrationAcks_.empty()) {
    const MigrationAckMsg ack = inMigrationAcks_.front();
    inMigrationAcks_.pop_front();
    auto it = clients_.find(ack.client);
    if (it == clients_.end()) continue;
    // Only the ack matching the outstanding sign-over may release the
    // session: it must be mid-migration with the avatar signed over to the
    // acking server. Anything else is a stale ack — e.g. the target adopted
    // and acked, then crashed before delivery, and cancelMigrationsTo()
    // already re-owned the avatar here; erasing the live session on that
    // late ack would wedge the client (owned avatar, no session, inputs
    // dropped forever).
    const auto signedOver = world_.find(it->second.entity);
    if (!it->second.migrating || !signedOver || signedOver->owner != ack.newOwner) {
      continue;
    }
    if (telemetry_ != nullptr) {
      telemetry_->protocols.phase(obs::Protocol::kMigration, ack.traceId, sim_.now(), "ack");
      telemetry_->protocols.end(obs::Protocol::kMigration, ack.traceId, sim_.now(),
                                obs::ProtocolOutcome::kCompleted);
    }
    clients_.erase(it);
    if (onHandOverComplete_) onHandOverComplete_(ack.client, ack.newOwner);
  }
  while (!inZoneHandoffAcks_.empty()) {
    const ZoneHandoffAckMsg ack = inZoneHandoffAcks_.front();
    inZoneHandoffAcks_.pop_front();
    auto it = clients_.find(ack.client);
    if (it == clients_.end()) continue;
    // Only the ack matching the outstanding sign-over may release the
    // entity: the session must be mid-handoff, signed over to the acking
    // server, at the acked version. Anything else is the stale ack of a
    // superseded hand-over (the entity ping-ponged back and we adopted a
    // newer incarnation meanwhile) and must not retire it.
    const auto signedOver = world_.find(it->second.entity);
    if (!it->second.migrating || !signedOver || signedOver->owner != ack.newOwner ||
        signedOver->version != ack.version) {
      continue;
    }
    if (telemetry_ != nullptr) {
      telemetry_->protocols.phase(obs::Protocol::kZoneHandoff, ack.traceId, sim_.now(), "ack");
      const auto e2eMs = telemetry_->protocols.end(obs::Protocol::kZoneHandoff, ack.traceId,
                                                   sim_.now(), obs::ProtocolOutcome::kCompleted);
      if (e2eMs && obsSlo_.handoff) {
        if (const auto breach =
                telemetry_->slo.record(*obsSlo_.handoff, obsKey_, *e2eMs, sim_.now())) {
          onSloBreach(*breach, -1.0);
        }
      }
    }
    // The entity left this zone for good: retire it locally and tell the
    // same-zone peers to drop their shadows (the target's replica sync
    // repopulates it in the destination zone).
    world_.remove(it->second.entity);
    departedEntities_.push_back(it->second.entity);
    clients_.erase(it);
    if (onHandOverComplete_) onHandOverComplete_(ack.client, ack.newOwner);
  }
}

std::vector<ClientId> Server::clientIds(bool migratableOnly) const {
  std::vector<ClientId> ids;
  ids.reserve(clients_.size());
  for (const auto& [id, session] : clients_) {
    if (migratableOnly && session.migrating) continue;
    ids.push_back(id);
  }
  return ids;
}

MonitoringSnapshot Server::monitoring() const {
  MonitoringSnapshot snapshot;
  snapshot.server = id_;
  snapshot.zone = world_.zone();
  snapshot.takenAt = sim_.now();
  const World::Census census = world_.census(id_);
  snapshot.activeUsers = census.activeAvatars;
  snapshot.totalAvatars = census.totalAvatars;
  snapshot.npcs = census.activeNpcs;
  snapshot.cpuLoad = cpuAccount_.load();
  snapshot.ticksObserved = tickSeq_;
  snapshot.migrationsInitiated = migrationsInitiatedTotal_;
  snapshot.migrationsReceived = migrationsReceivedTotal_;
  snapshot.borderShadows = census.borderShadows;
  snapshot.handoffsInitiated = handoffsInitiatedTotal_;
  snapshot.handoffsReceived = handoffsReceivedTotal_;
  snapshot.degradationLevel = overloadLevel_;
  snapshot.shedObservers = shedObservers_;
  monitoringWindow_.fill(snapshot);
  return snapshot;
}

void Server::updateOverloadLadder(const TickProbes& probes, SimDuration busy) {
  const OverloadConfig& cfg = config_.overload;
  const double predictedMs =
      tickPredictor_ ? tickPredictor_(probes.activeUsers, probes.totalAvatars, probes.npcs) : 0.0;
  const double costMs = std::max(busy.asMillis(), predictedMs);
  lastTickCostMs_ = costMs;
  const double budget = tickBudgetMs();
  if (costMs > budget) {
    ++overBudgetStreak_;
    underBudgetStreak_ = 0;
    if (overBudgetStreak_ >= cfg.stepDownAfterTicks && overloadLevel_ + 1 < kOverloadLevels) {
      applyOverloadLevel(overloadLevel_ + 1, costMs, predictedMs);
    }
  } else if (costMs < cfg.headroomFraction * budget) {
    ++underBudgetStreak_;
    overBudgetStreak_ = 0;
    if (underBudgetStreak_ >= cfg.stepUpAfterTicks && overloadLevel_ > 0) {
      applyOverloadLevel(overloadLevel_ - 1, costMs, predictedMs);
    }
  } else {
    // Hysteresis band between headroomFraction*budget and budget: hold the
    // current rung, reset both streaks so the next move needs fresh
    // evidence.
    overBudgetStreak_ = 0;
    underBudgetStreak_ = 0;
  }
  updateShedCount();
}

void Server::applyOverloadLevel(std::size_t newLevel, double costMs, double predictedMs) {
  const bool down = newLevel > overloadLevel_;
  overloadLevel_ = newLevel;
  overBudgetStreak_ = 0;
  underBudgetStreak_ = 0;
  if (down) {
    ++overloadStepDownsTotal_;
  } else {
    ++overloadStepUpsTotal_;
  }
  world_.setInterestScale(kOverloadAoiScale[overloadLevel_]);
  char rationale[160];
  std::snprintf(rationale, sizeof(rationale),
                "%s to level %zu: cost=%.3fms predicted=%.3fms budget=%.3fms aoi_scale=%.2f",
                down ? "step down" : "step up", newLevel, costMs, predictedMs, tickBudgetMs(),
                kOverloadAoiScale[overloadLevel_]);
  auditOverload(obs::AuditEvent::kDegradeFidelity, down ? "eq2:tick_budget" : "eq2:tick_headroom",
                costMs, predictedMs, rationale);
}

void Server::updateShedCount() {
  std::size_t target = 0;
  if (config_.overload.enabled && overloadLevel_ >= kShedLevel && !clients_.empty()) {
    target = static_cast<std::size_t>(
        std::ceil(static_cast<double>(clients_.size()) * config_.overload.shedFraction));
    target = std::min(target, clients_.size() - 1);  // keep at least one served
  }
  if (target == shedObservers_) return;
  const bool shedding = target > shedObservers_;
  if (shedding) {
    ++shedEventsTotal_;
  } else {
    ++readmitEventsTotal_;
  }
  char rationale[128];
  std::snprintf(rationale, sizeof(rationale),
                "%s: shed observers %zu -> %zu of %zu clients (level %zu)",
                shedding ? "shed" : "readmit", shedObservers_, target, clients_.size(),
                overloadLevel_);
  shedObservers_ = target;
  auditOverload(shedding ? obs::AuditEvent::kShedObservers : obs::AuditEvent::kReadmitObservers,
                "ladder:shed_level", lastTickCostMs_, -1.0, rationale);
}

void Server::auditOverload(obs::AuditEvent action, const char* threshold, double costMs,
                           double predictedMs, std::string rationale) const {
  auditEvent(action, "overload-ladder", threshold, costMs, predictedMs, std::move(rationale));
}

void Server::auditEvent(obs::AuditEvent action, const char* strategy, std::string threshold,
                        double costMs, double predictedMs, std::string rationale) const {
  if (telemetry_ == nullptr) return;
  obs::AuditRecord record;
  record.at = sim_.now();
  record.zone = world_.zone();
  record.strategy = strategy;
  const World::Census census = world_.census(id_);
  record.users = census.activeAvatars;
  record.npcs = census.activeNpcs;
  record.replicas = peers_.size() + 1;
  record.measuredMaxTickMs = costMs;
  record.predictedTickMs = predictedMs;
  record.threshold = std::move(threshold);
  record.action = action;
  record.rationale = std::move(rationale);
  MonitoringSnapshot window;
  monitoringWindow_.fill(window);
  record.measuredAvgTickMs = window.tickAvgMs;
  record.measuredP95TickMs = window.tickP95Ms;
  telemetry_->audit.record(std::move(record));
}

}  // namespace roia::rtf
