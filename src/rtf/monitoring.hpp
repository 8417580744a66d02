// Monitoring snapshots exported by application servers, the data feed of
// RTF-RMS. A snapshot summarizes the recent window (tick durations, CPU
// load, population) plus cumulative counters.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include <memory>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "rtf/probes.hpp"
#include "rtf/reliable.hpp"
#include "serialize/message.hpp"
#include "sim/simulation.hpp"

namespace roia::rtf {

struct MonitoringSnapshot {
  ServerId server;
  ZoneId zone;
  SimTime takenAt{};

  std::size_t activeUsers{0};
  std::size_t totalAvatars{0};
  std::size_t npcs{0};

  /// Average / p95 / max tick duration over the monitoring window, in ms.
  double tickAvgMs{0.0};
  double tickP95Ms{0.0};
  double tickMaxMs{0.0};
  /// CPU load in [0, 1] over the window.
  double cpuLoad{0.0};
  /// Per-phase average microseconds per tick over the window.
  std::array<double, kPhaseCount> phaseAvgMicros{};

  std::uint64_t ticksObserved{0};
  std::uint64_t migrationsInitiated{0};
  std::uint64_t migrationsReceived{0};

  /// Cross-zone AOI shadows currently mirrored at the zone border.
  std::size_t borderShadows{0};
  std::uint64_t handoffsInitiated{0};
  std::uint64_t handoffsReceived{0};

  /// Current rung of the overload degradation ladder (0 = full fidelity).
  std::size_t degradationLevel{0};
  /// Observers currently shed at the deepest ladder level.
  std::size_t shedObservers{0};
};

/// Wire codec for monitoring snapshots (ser::MessageType::kMonitoring).
[[nodiscard]] ser::Frame encodeMonitoring(const MonitoringSnapshot& snapshot);
[[nodiscard]] MonitoringSnapshot decodeMonitoring(const ser::Frame& frame);

/// Management-plane endpoint collecting the monitoring snapshots that
/// application servers publish over the (simulated) network — the transport
/// RTF provides for "receiving monitoring data from RTF inside an
/// application server". A resource manager reading from the collector works
/// on slightly stale data, exactly like a real deployment.
class MonitoringCollector {
 public:
  MonitoringCollector(sim::Simulation& simulation, net::Network& network);
  ~MonitoringCollector();
  MonitoringCollector(const MonitoringCollector&) = delete;
  MonitoringCollector& operator=(const MonitoringCollector&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }

  /// Most recent snapshot from `server`, if any arrived yet.
  [[nodiscard]] std::optional<MonitoringSnapshot> latest(ServerId server) const;
  /// Latest snapshots of every server reporting for `zone`.
  [[nodiscard]] std::vector<MonitoringSnapshot> zoneSnapshots(ZoneId zone) const;
  /// Age of the latest snapshot of `server`; nullopt if none.
  [[nodiscard]] std::optional<SimDuration> staleness(ServerId server) const;

  /// Discards state for a decommissioned server.
  void forget(ServerId server);

  [[nodiscard]] std::uint64_t snapshotsReceived() const { return received_; }

  // --- crash-failure detection ---
  // Servers publish best-effort heartbeats alongside their monitoring
  // snapshots; the collector timestamps each one. A server whose heartbeat
  // has been silent for `missedBeats` periods is suspected dead. Both beats
  // and monitoring refresh liveness, so an isolated lost heartbeat does not
  // trip the detector.
  /// Time since the last sign of life from `server`; nullopt if never seen.
  [[nodiscard]] std::optional<SimDuration> heartbeatAge(ServerId server) const;
  /// Servers silent for longer than `period * missedBeats`.
  [[nodiscard]] std::vector<ServerId> suspectDead(SimDuration period,
                                                  std::size_t missedBeats = 3) const;

  /// Attaches telemetry: receive counters update live; staleness(),
  /// heartbeatAge() and the reliable-transport counters are exported by
  /// publishMetrics() (the manager calls it each control period, so the
  /// gauges age exactly like the data the RMS acts on).
  void setTelemetry(obs::Telemetry* telemetry);
  void publishMetrics();

 private:
  void onFrame(NodeId from, const ser::Frame& frame);
  void handleFrame(NodeId from, const ser::Frame& frame);

  sim::Simulation& sim_;
  net::Network& net_;
  NodeId node_;
  ReliableTransport reliable_;
  std::map<ServerId, MonitoringSnapshot> latest_;
  std::map<ServerId, SimTime> receivedAt_;
  std::map<ServerId, SimTime> lastAliveAt_;
  std::uint64_t received_{0};
  obs::Telemetry* telemetry_{nullptr};
};

/// Rolling window over recent TickProbes; maintained by the server.
class MonitoringWindow {
 public:
  explicit MonitoringWindow(SimDuration window = SimDuration::seconds(1)) : window_(window) {}

  void record(const TickProbes& probes);

  /// Fills windowed fields of a snapshot (caller sets identity fields).
  void fill(MonitoringSnapshot& snapshot) const;

  [[nodiscard]] std::size_t sampleCount() const { return samples_.size(); }

 private:
  struct Sample {
    SimTime start;
    double totalMicros;
    std::array<double, kPhaseCount> phaseMicros;
  };

  SimDuration window_;
  std::deque<Sample> samples_;
};

}  // namespace roia::rtf
