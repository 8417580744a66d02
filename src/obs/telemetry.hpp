// The telemetry context: one metrics registry + event tracer + RMS audit
// log shared by a cluster, its servers, the monitoring collector, the
// reliable transports, the fault injector and the RMS manager. Components
// hold a `Telemetry*` that is nullptr when observability is off, so the
// disabled path is a single pointer check and recording never charges
// simulated CPU cost — telemetry observes the experiment, it is not part
// of it.
//
// A context observes exactly one session: whoever builds the session owns
// the context and hands it in through ClusterConfig::telemetry, so its
// sidecars never mix simulations and sessions without one stay untouched
// (and free to run on any sweep thread).
#pragma once

#include <cstddef>

#include "obs/audit.hpp"
#include "obs/drift.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/protocol.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace roia::obs {

class Telemetry {
 public:
  Telemetry();

  MetricsRegistry metrics;
  Tracer tracer;
  AuditLog audit;
  /// Causal tracing of multi-step control protocols; publishes into
  /// `metrics` (bound by the constructor).
  ProtocolTracker protocols;
  /// Declarative objectives + burn-rate alerting. Empty (no objectives) by
  /// default; instrumented components no-op until objectives are installed.
  SloEngine slo;
  /// Eq.2/Eq.4 predicted-vs-measured tick-time residuals.
  DriftMonitor drift;
  /// Per-server ring of recent ticks, dumped on SLO breach or crash.
  FlightRecorder flight;

  /// Synthesize tick/phase spans only every Nth tick per server (1 = every
  /// tick). Flow and RMS events are never sampled out.
  std::size_t traceTickSampleEvery{1};
};

}  // namespace roia::obs
