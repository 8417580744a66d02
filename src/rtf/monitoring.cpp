#include "rtf/monitoring.hpp"

#include <algorithm>
#include <cmath>

#include "rtf/messages.hpp"
#include "serialize/wire.hpp"

namespace roia::rtf {

template <class IO>
void wire(IO& io, ser::WireRef<IO, MonitoringSnapshot> snapshot) {
  io.var(snapshot.server.value);
  io.var(snapshot.zone.value);
  io.svar(snapshot.takenAt.micros);
  io.var(snapshot.activeUsers);
  io.var(snapshot.totalAvatars);
  io.var(snapshot.npcs);
  io.f64(snapshot.tickAvgMs);
  io.f64(snapshot.tickP95Ms);
  io.f64(snapshot.tickMaxMs);
  io.f64(snapshot.cpuLoad);
  for (auto& v : snapshot.phaseAvgMicros) io.f32(v);
  io.var(snapshot.ticksObserved);
  io.var(snapshot.migrationsInitiated);
  io.var(snapshot.migrationsReceived);
  io.var(snapshot.borderShadows);
  io.var(snapshot.handoffsInitiated);
  io.var(snapshot.handoffsReceived);
  io.var(snapshot.degradationLevel);
  io.var(snapshot.shedObservers);
}

ser::Frame encodeMonitoring(const MonitoringSnapshot& snapshot) {
  return ser::encodeWireFrame(ser::MessageType::kMonitoring, snapshot, 96);
}

MonitoringSnapshot decodeMonitoring(const ser::Frame& frame) {
  return ser::decodeWireFrame<MonitoringSnapshot>(frame, ser::MessageType::kMonitoring);
}

MonitoringCollector::MonitoringCollector(sim::Simulation& simulation, net::Network& network)
    : sim_(simulation),
      net_(network),
      node_(net_.addNode([this](NodeId from, const ser::Frame& frame) { onFrame(from, frame); })),
      reliable_(simulation, network, node_) {
  reliable_.setDeliver([this](NodeId from, const ser::Frame& inner) { handleFrame(from, inner); });
}

MonitoringCollector::~MonitoringCollector() { net_.removeNode(node_); }

void MonitoringCollector::onFrame(NodeId from, const ser::Frame& frame) {
  if (reliable_.onFrame(from, frame)) return;  // envelope/ack; inner follows
  handleFrame(from, frame);
}

void MonitoringCollector::handleFrame(NodeId from, const ser::Frame& frame) {
  (void)from;
  if (frame.type == ser::MessageType::kHeartbeat) {
    const HeartbeatMsg beat = decodeHeartbeat(frame);
    lastAliveAt_[beat.server] = sim_.now();
    if (telemetry_ != nullptr) {
      telemetry_->metrics.counter("roia_collector_heartbeats_received_total").increment();
    }
    return;
  }
  if (frame.type != ser::MessageType::kMonitoring) return;
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("roia_collector_snapshots_received_total").increment();
  }
  MonitoringSnapshot snapshot = decodeMonitoring(frame);
  const ServerId id = snapshot.server;
  // Reliable delivery is unordered: a retransmitted old snapshot may trail
  // a newer one. Keep only the freshest by capture time.
  auto it = latest_.find(id);
  if (it != latest_.end() && snapshot.takenAt < it->second.takenAt) return;
  receivedAt_[id] = sim_.now();
  lastAliveAt_[id] = sim_.now();
  latest_[id] = std::move(snapshot);
  ++received_;
}

std::optional<MonitoringSnapshot> MonitoringCollector::latest(ServerId server) const {
  auto it = latest_.find(server);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

std::vector<MonitoringSnapshot> MonitoringCollector::zoneSnapshots(ZoneId zone) const {
  std::vector<MonitoringSnapshot> snapshots;
  snapshots.reserve(latest_.size());
  for (const auto& [id, snapshot] : latest_) {
    if (snapshot.zone == zone) snapshots.push_back(snapshot);
  }
  return snapshots;
}

std::optional<SimDuration> MonitoringCollector::staleness(ServerId server) const {
  auto it = receivedAt_.find(server);
  if (it == receivedAt_.end()) return std::nullopt;
  return sim_.now() - it->second;
}

void MonitoringCollector::forget(ServerId server) {
  latest_.erase(server);
  receivedAt_.erase(server);
  lastAliveAt_.erase(server);
}

std::optional<SimDuration> MonitoringCollector::heartbeatAge(ServerId server) const {
  auto it = lastAliveAt_.find(server);
  if (it == lastAliveAt_.end()) return std::nullopt;
  return sim_.now() - it->second;
}

std::vector<ServerId> MonitoringCollector::suspectDead(SimDuration period,
                                                       std::size_t missedBeats) const {
  const SimDuration limit = period * static_cast<std::int64_t>(missedBeats);
  std::vector<ServerId> dead;
  dead.reserve(lastAliveAt_.size());
  for (const auto& [server, lastAlive] : lastAliveAt_) {
    if (sim_.now() - lastAlive > limit) dead.push_back(server);
  }
  return dead;
}

void MonitoringCollector::setTelemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

void MonitoringCollector::publishMetrics() {
  if (telemetry_ == nullptr) return;
  obs::MetricsRegistry& metrics = telemetry_->metrics;
  for (const auto& [server, snapshot] : latest_) {
    (void)snapshot;
    const obs::Labels labels{{"server", std::to_string(server.value)}};
    if (const auto age = staleness(server)) {
      metrics.gauge("roia_collector_staleness_ms", labels).set(age->asMillis());
    }
    if (const auto beat = heartbeatAge(server)) {
      metrics.gauge("roia_collector_heartbeat_age_ms", labels).set(beat->asMillis());
    }
  }
  // Fault-injection pressure on the control plane, visible directly in the
  // metrics sidecar of chaos runs.
  const ReliableStats& rs = reliable_.stats();
  const obs::Labels self{{"endpoint", "collector"}};
  metrics.counter("roia_reliable_retransmissions_total", self).setTotal(rs.retransmissions);
  metrics.counter("roia_reliable_duplicates_dropped_total", self).setTotal(rs.duplicatesDropped);
  metrics.counter("roia_reliable_messages_delivered_total", self).setTotal(rs.messagesDelivered);
  metrics.counter("roia_reliable_abandoned_total", self).setTotal(rs.abandoned);
}

void MonitoringWindow::record(const TickProbes& probes) {
  samples_.push_back(Sample{probes.start, probes.totalMicros(), probes.phaseMicros});
  const SimTime cutoff = probes.start - window_;
  while (!samples_.empty() && samples_.front().start < cutoff) {
    samples_.pop_front();
  }
}

void MonitoringWindow::fill(MonitoringSnapshot& snapshot) const {
  snapshot.phaseAvgMicros.fill(0.0);
  if (samples_.empty()) {
    snapshot.tickAvgMs = 0.0;
    snapshot.tickP95Ms = 0.0;
    snapshot.tickMaxMs = 0.0;
    return;
  }
  double sum = 0.0;
  double maxTick = 0.0;
  std::vector<double> totals;
  totals.reserve(samples_.size());
  for (const Sample& s : samples_) {
    sum += s.totalMicros;
    maxTick = std::max(maxTick, s.totalMicros);
    totals.push_back(s.totalMicros);
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      snapshot.phaseAvgMicros[p] += s.phaseMicros[p];
    }
  }
  const double count = static_cast<double>(samples_.size());
  // Nearest-rank p95 over the window's tick totals.
  const std::size_t rank =
      std::min(samples_.size() - 1,
               static_cast<std::size_t>(std::ceil(0.95 * count)) - (totals.empty() ? 0 : 1));
  std::nth_element(totals.begin(), totals.begin() + static_cast<std::ptrdiff_t>(rank),
                   totals.end());
  snapshot.tickAvgMs = sum / count / 1000.0;
  snapshot.tickP95Ms = totals[rank] / 1000.0;
  snapshot.tickMaxMs = maxTick / 1000.0;
  for (double& v : snapshot.phaseAvgMicros) v /= count;
}

}  // namespace roia::rtf
