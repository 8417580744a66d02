// Tests for the telemetry subsystem: log-bucketed histograms (bucket
// geometry, quantile error bound, merge), the metrics registry and its
// exporters, trace JSON well-formedness (monotone timestamps, matched B/E
// pairs), the RMS decision audit log, the zero-cost-observer invariant
// (telemetry on/off yields bit-identical simulations), the server health
// path (SLO breach, drift, flight dump) and a context observing one session
// of a parallel sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/sweep.hpp"
#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "model/tick_model.hpp"
#include "obs/events.hpp"
#include "obs/telemetry.hpp"
#include "rms/baseline_strategies.hpp"
#include "rms/manager.hpp"
#include "rms/overload_session.hpp"
#include "rtf/cluster.hpp"

namespace roia {
namespace {

// --- LogHistogram ---

TEST(LogHistogramTest, BucketBoundariesFollowGrowthFactor) {
  obs::LogHistogram h(obs::LogHistogram::Config{1.0, 16.0, 2.0});
  // [1,2) [2,4) [4,8) [8,16)
  ASSERT_EQ(h.bucketCount(), 4u);
  EXPECT_DOUBLE_EQ(h.bucketLow(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucketHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucketLow(3), 8.0);
  EXPECT_DOUBLE_EQ(h.bucketHigh(3), 16.0);

  h.add(1.5);
  h.add(2.5);
  h.add(3.0);
  h.add(12.0);
  EXPECT_EQ(h.bucketHits(0), 1u);
  EXPECT_EQ(h.bucketHits(1), 2u);
  EXPECT_EQ(h.bucketHits(2), 0u);
  EXPECT_EQ(h.bucketHits(3), 1u);

  h.add(0.5);    // below minValue
  h.add(-3.0);   // non-positive
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(16.0);   // at maxValue -> overflow
  h.add(1e9);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 9u);
}

TEST(LogHistogramTest, QuantilesWithinRelativeErrorBound) {
  obs::LogHistogram h;  // default config: growth 2^(1/8)
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  const double bound = h.config().growth - 1.0;  // ~9% worst case
  const std::vector<std::pair<double, double>> expected{{0.5, 500.0}, {0.95, 950.0}, {0.99, 990.0}};
  for (const auto& [q, exact] : expected) {
    const double estimate = h.quantile(q);
    EXPECT_NEAR(estimate / exact, 1.0, bound) << "q=" << q;
  }
  // Extremes clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(LogHistogramTest, MergeMatchesAddingAllSamples) {
  obs::LogHistogram a;
  obs::LogHistogram b;
  obs::LogHistogram both;
  for (int i = 1; i <= 100; ++i) {
    a.add(static_cast<double>(i));
    both.add(static_cast<double>(i));
  }
  for (int i = 500; i <= 600; ++i) {
    b.add(static_cast<double>(i));
    both.add(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), both.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.95), both.quantile(0.95));

  obs::LogHistogram mismatched(obs::LogHistogram::Config{1.0, 100.0, 2.0});
  EXPECT_THROW(a.merge(mismatched), std::invalid_argument);
}

TEST(LogHistogramTest, EmptyAndSingleSampleQuantilesAreWellDefined) {
  const obs::LogHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.95), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  obs::LogHistogram single;
  single.add(3.25);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.quantile(q), 3.25) << "q=" << q;
  }
}

TEST(LogHistogramTest, ExactBucketBoundarySamplesLandInOwningBucket) {
  // Power-of-two edges: each boundary is the low edge of its own bucket.
  obs::LogHistogram h(obs::LogHistogram::Config{1.0, 16.0, 2.0});
  h.add(1.0);
  h.add(2.0);
  h.add(4.0);
  h.add(8.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(h.bucketHits(i), 1u) << "bucket " << i;
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);

  // Irrational edges (growth 1.1): log-ratio rounding can land an ulp on
  // either side of the integer; the pow-computed edge must still own the
  // sample.
  obs::LogHistogram g(obs::LogHistogram::Config{1e-3, 1e3, 1.1});
  for (const std::size_t i : {std::size_t{1}, std::size_t{7}, std::size_t{23}, std::size_t{60}}) {
    g.add(g.bucketLow(i));
    EXPECT_EQ(g.bucketHits(i), 1u) << "bucket " << i;
  }
  EXPECT_EQ(g.underflow(), 0u);
  EXPECT_EQ(g.overflow(), 0u);
}

TEST(LogHistogramTest, NonFiniteSamplesDoNotPoisonMoments) {
  obs::LogHistogram h;
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 2u);  // NaN and -inf
  EXPECT_EQ(h.overflow(), 1u);   // +inf
  EXPECT_FALSE(std::isnan(h.quantile(0.5)));
  EXPECT_FALSE(std::isnan(h.sum()));

  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  EXPECT_FALSE(std::isnan(h.quantile(0.95)));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, InstrumentsAreStableAndLabelOrderInsensitive) {
  obs::MetricsRegistry registry;
  obs::Counter& c1 = registry.counter("ticks_total", {{"server", "1"}, {"zone", "a"}});
  obs::Counter& c2 = registry.counter("ticks_total", {{"zone", "a"}, {"server", "1"}});
  EXPECT_EQ(&c1, &c2);
  c1.increment(3);
  c1.setTotal(10);
  c1.setTotal(5);  // never moves backwards
  EXPECT_EQ(c1.value(), 10u);

  registry.gauge("load").set(0.5);
  registry.histogram("tick_ms").add(12.0);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_NE(registry.findCounter("ticks_total", {{"server", "1"}, {"zone", "a"}}), nullptr);
  EXPECT_EQ(registry.findCounter("ticks_total"), nullptr);
}

TEST(MetricsRegistryTest, ExportersEmitAllInstruments) {
  obs::MetricsRegistry registry;
  registry.counter("roia_frames_total", {{"server", "1"}}).increment(7);
  registry.gauge("roia_load").set(0.25);
  auto& h = registry.histogram("roia_tick_ms");
  h.add(10.0);
  h.add(20.0);

  std::ostringstream jsonl;
  registry.writeJsonl(jsonl);
  const std::string text = jsonl.str();
  EXPECT_NE(text.find("{\"kind\":\"counter\",\"name\":\"roia_frames_total\","
                      "\"labels\":{\"server\":\"1\"},\"value\":7}"),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"roia_tick_ms\",\"labels\":{},\"count\":2,"),
            std::string::npos);
  EXPECT_NE(text.find("\"p95\":"), std::string::npos);
}

// --- Tracer ---

std::vector<long long> timestampsInOrder(const std::string& json) {
  std::vector<long long> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stoll(json.substr(pos)));
  }
  return out;
}

std::size_t countOccurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = 0; (pos = text.find(needle, pos)) != std::string::npos; pos += needle.size()) {
    ++count;
  }
  return count;
}

TEST(TracerTest, JsonIsMonotoneWithMatchedBeginEndPairs) {
  obs::Tracer tracer;
  const std::uint32_t s1 = tracer.track("server-1");
  const std::uint32_t s2 = tracer.track("server-2");

  // server-1's span overruns past server-2's next span: appended out of
  // global ts order, the exporter must still emit non-decreasing ts.
  tracer.beginSpan(s1, SimTime{100}, "tick", "tick", {{"seq", "0"}});
  tracer.completeSpan(s1, SimTime{100}, SimDuration{500}, "phase", "phase");
  tracer.endSpan(s1, SimTime{600});
  tracer.beginSpan(s2, SimTime{300}, "tick", "tick");
  tracer.endSpan(s2, SimTime{350});
  tracer.flowStart(s1, SimTime{600}, obs::migrationFlowId(ClientId{9}), "migration", "migration");
  tracer.flowFinish(s2, SimTime{700}, obs::migrationFlowId(ClientId{9}), "migration", "migration");
  tracer.instant(s2, SimTime{800}, "crash-recovery", "rms");

  std::ostringstream out;
  tracer.writeJson(out);
  const std::string json = out.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
  EXPECT_EQ(countOccurrences(json, "["), countOccurrences(json, "]"));
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), countOccurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"M\""), 2u);  // two thread_name records
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);

  const std::vector<long long> ts = timestampsInOrder(json);
  ASSERT_EQ(ts.size(), 9u);  // 3 B/E pairs + 2 flow events + 1 instant
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]) << "timestamps regress at event " << i;
  }
}

TEST(TracerTest, CapCountsDroppedEvents) {
  obs::Tracer tracer;
  tracer.setMaxEvents(2);
  for (int i = 0; i < 5; ++i) tracer.instant(0, SimTime{i}, "e", "c");
  EXPECT_EQ(tracer.eventCount(), 2u);
  EXPECT_EQ(tracer.droppedEvents(), 3u);
  std::ostringstream out;
  tracer.writeJson(out);
  EXPECT_NE(out.str().find("trace_truncated"), std::string::npos);
}

// --- AuditLog ---

// The audit.jsonl names are a contract: health_report.py and CI's inline
// checks match on them. The table lists the events in declaration order,
// and the value after the last one has no name, so an event added to
// AuditEvent fails here until its name is pinned too.
TEST(AuditLogTest, EveryEventKeepsItsJsonlName) {
  using obs::AuditEvent;
  const std::pair<AuditEvent, const char*> kNames[] = {
      {AuditEvent::kNone, "none"},
      {AuditEvent::kAddReplica, "add_replica"},
      {AuditEvent::kSubstituteServer, "substitute_server"},
      {AuditEvent::kRemoveServer, "remove_server"},
      {AuditEvent::kMigrateOnly, "migrate_only"},
      {AuditEvent::kZoneHandoff, "zone_handoff"},
      {AuditEvent::kRecoverCrash, "recover_crash"},
      {AuditEvent::kGracefulDrain, "graceful_drain"},
      {AuditEvent::kDrainComplete, "drain_complete"},
      {AuditEvent::kAdmissionThrottle, "admission_throttle"},
      {AuditEvent::kDegradeFidelity, "degrade_fidelity"},
      {AuditEvent::kShedObservers, "shed_observers"},
      {AuditEvent::kReadmitObservers, "readmit_observers"},
      {AuditEvent::kSloBreach, "slo_breach"},
      {AuditEvent::kModelDrift, "model_drift"},
  };
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    const auto& [event, name] = kNames[i];
    EXPECT_EQ(event, static_cast<AuditEvent>(i)) << name;
    EXPECT_STREQ(obs::auditEventName(event), name);
    obs::AuditRecord record;
    record.action = event;
    EXPECT_NE(obs::AuditLog::toJson(record).find(std::string("\"action\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_STREQ(obs::auditEventName(static_cast<AuditEvent>(std::size(kNames))), "?");
}

TEST(AuditLogTest, ExportsJsonl) {
  obs::AuditLog log;
  obs::AuditRecord record;
  record.at = SimTime{} + SimDuration::seconds(2);
  record.zone = ZoneId{1};
  record.strategy = "model-driven";
  record.users = 120;
  record.npcs = 64;
  record.replicas = 2;
  record.predictedTickMs = 31.5;
  record.threshold = "eq2:n_trigger";
  record.action = obs::AuditEvent::kAddReplica;
  record.rejected.push_back("remove_replica: users above hysteresis floor");
  record.rationale = "replication enactment";

  log.record(record);
  ASSERT_EQ(log.size(), 1u);

  const std::string json = obs::AuditLog::toJson(log.records().front());
  EXPECT_NE(json.find("\"threshold\":\"eq2:n_trigger\""), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"add_replica\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":120"), std::string::npos);
  EXPECT_NE(json.find("\"m\":64"), std::string::npos);
  EXPECT_NE(json.find("\"l\":2"), std::string::npos);
  std::ostringstream out;
  log.writeJsonl(out);
  EXPECT_EQ(countOccurrences(out.str(), "\n"), 1u);
}

// --- ProtocolTracker ---

TEST(ProtocolTrackerTest, StitchesBeginPhaseEndIntoLatencyAndOutcomes) {
  obs::MetricsRegistry metrics;
  obs::ProtocolTracker tracker;
  tracker.bindMetrics(&metrics);

  const std::uint64_t id = obs::protocolTraceId(3, 1);
  tracker.begin(obs::Protocol::kZoneHandoff, id, SimTime{0});
  EXPECT_EQ(tracker.openCount(), 1u);
  tracker.phase(obs::Protocol::kZoneHandoff, id, SimTime{40'000}, "transfer");
  const auto e2e =
      tracker.end(obs::Protocol::kZoneHandoff, id, SimTime{100'000}, obs::ProtocolOutcome::kCompleted);
  ASSERT_TRUE(e2e.has_value());
  EXPECT_DOUBLE_EQ(*e2e, 100.0);
  EXPECT_EQ(tracker.openCount(), 0u);
  EXPECT_EQ(tracker.outcomeCount(obs::Protocol::kZoneHandoff, obs::ProtocolOutcome::kCompleted), 1u);
  const obs::LogHistogram* hist = tracker.latencyHistogram(obs::Protocol::kZoneHandoff);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  // The phase breakdown landed in the registry under the protocol+phase labels.
  const obs::LogHistogram* phase = metrics.findHistogram(
      "roia_protocol_phase_ms", {{"protocol", "zone_handoff"}, {"phase", "transfer"}});
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count(), 1u);

  // Unknown ids and protocol mismatches are ignored, not crashes.
  tracker.phase(obs::Protocol::kMigration, 999, SimTime{1}, "transfer");
  EXPECT_FALSE(
      tracker.end(obs::Protocol::kMigration, 999, SimTime{2}, obs::ProtocolOutcome::kCompleted)
          .has_value());

  // A duplicate begin supersedes the live instance instead of leaking it.
  const std::uint64_t dup = obs::protocolTraceId(3, 2);
  tracker.begin(obs::Protocol::kMigration, dup, SimTime{0});
  tracker.begin(obs::Protocol::kMigration, dup, SimTime{10'000});
  EXPECT_EQ(tracker.openCount(), 1u);
  EXPECT_EQ(tracker.outcomeCount(obs::Protocol::kMigration, obs::ProtocolOutcome::kSuperseded), 1u);
}

TEST(ProtocolTrackerTest, TraceIdFamiliesAreDisjoint) {
  // Allocator families must never collide across protocols (top-byte tag).
  EXPECT_NE(obs::protocolTraceId(1, 1), obs::drainTraceId(1, 1));
  EXPECT_NE(obs::protocolTraceId(1, 1), obs::recoveryTraceId(1, 1));
  EXPECT_NE(obs::drainTraceId(1, 1), obs::recoveryTraceId(1, 1));
  EXPECT_NE(obs::protocolTraceId(1, 1), obs::admissionTraceId(1));
  EXPECT_NE(obs::protocolTraceId(1, 2), obs::protocolTraceId(2, 1));
}

// --- SloEngine ---

TEST(SloEngineTest, MultiWindowBurnRateFiresOnceThenCoolsDown) {
  obs::SloEngine engine;
  obs::SloObjective objective;
  objective.name = "tick_time";
  objective.threshold = 10.0;
  objective.target = 0.9;
  objective.shortWindow = SimDuration::seconds(1);
  objective.longWindow = SimDuration::seconds(5);
  objective.fastBurn = 2.0;
  objective.slowBurn = 1.0;
  objective.minSamples = 4;
  objective.cooldown = SimDuration::seconds(10);
  const std::size_t handle = engine.addObjective(objective);
  EXPECT_EQ(engine.findHandle("tick_time"), std::optional<std::size_t>{handle});

  // Good samples never breach.
  SimTime t{0};
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(engine.record(handle, "server-1", 5.0, t).has_value());
    t = t + SimDuration::milliseconds(100);
  }
  // A run of bad samples breaches exactly once (cooldown re-arms later).
  std::size_t breachesSeen = 0;
  obs::SloBreach lastBreach;
  for (int i = 0; i < 12; ++i) {
    if (const auto breach = engine.record(handle, "server-1", 50.0, t)) {
      ++breachesSeen;
      lastBreach = *breach;
    }
    t = t + SimDuration::milliseconds(100);
  }
  EXPECT_EQ(breachesSeen, 1u);
  EXPECT_EQ(engine.breachCount(), 1u);
  EXPECT_EQ(lastBreach.objective, "tick_time");
  EXPECT_EQ(lastBreach.key, "server-1");
  EXPECT_GE(lastBreach.shortBurn, objective.fastBurn);
  EXPECT_GE(lastBreach.longBurn, objective.slowBurn);

  // Keys are independent: a different server starts clean.
  EXPECT_FALSE(engine.record(handle, "server-2", 50.0, t).has_value());
}

TEST(SloEngineTest, LowerBoundObjectiveTreatsSmallValuesAsBad) {
  obs::SloEngine engine;
  obs::SloObjective objective;
  objective.name = "update_rate";
  objective.threshold = 25.0;
  objective.upperBound = false;  // rate must stay >= 25 Hz
  objective.target = 0.9;
  objective.shortWindow = SimDuration::seconds(1);
  objective.longWindow = SimDuration::seconds(2);
  objective.fastBurn = 1.0;
  objective.slowBurn = 1.0;
  objective.minSamples = 2;
  objective.cooldown = SimDuration::seconds(60);
  const std::size_t handle = engine.addObjective(objective);

  SimTime t{0};
  std::size_t breaches = 0;
  for (int i = 0; i < 6; ++i) {
    if (engine.record(handle, "server-1", 12.5, t)) ++breaches;
    t = t + SimDuration::milliseconds(100);
  }
  EXPECT_EQ(breaches, 1u);

  std::ostringstream out;
  engine.writeJsonl(out);
  EXPECT_NE(out.str().find("\"objective\":\"update_rate\""), std::string::npos);
  EXPECT_NE(out.str().find("\"bound\":\"lower\""), std::string::npos);
}

// --- DriftMonitor ---

TEST(DriftMonitorTest, FiresWhenWindowedRelativeErrorLeavesBand) {
  obs::DriftMonitor monitor;
  obs::DriftConfig config;
  config.relErrorBand = 0.3;
  config.windowSamples = 8;
  config.minSamples = 8;
  config.cooldown = SimDuration::seconds(60);
  monitor.setConfig(config);

  SimTime t{0};
  // Accurate predictions: residuals recorded, no event.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(monitor.record("server-1", 10.0, 10.5, t).has_value());
    t = t + SimDuration::milliseconds(100);
  }
  EXPECT_EQ(monitor.sampleCount("server-1"), 8u);
  ASSERT_NE(monitor.residualHistogram("server-1"), nullptr);
  EXPECT_EQ(monitor.residualHistogram("server-1")->count(), 8u);

  // Predictions drift to 2x off: the windowed mean crosses the band once.
  std::size_t events = 0;
  obs::DriftEvent lastEvent;
  for (int i = 0; i < 8; ++i) {
    if (const auto event = monitor.record("server-1", 10.0, 20.0, t)) {
      ++events;
      lastEvent = *event;
    }
    t = t + SimDuration::milliseconds(100);
  }
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(monitor.driftEventCount(), 1u);
  EXPECT_EQ(lastEvent.key, "server-1");
  EXPECT_GT(lastEvent.windowMeanAbsRelError, config.relErrorBand);

  // Non-finite inputs are rejected without corrupting state.
  EXPECT_FALSE(monitor
                   .record("server-1", std::numeric_limits<double>::quiet_NaN(), 10.0, t)
                   .has_value());
  EXPECT_EQ(monitor.sampleCount("server-1"), 16u);
  EXPECT_GT(monitor.residualCov("server-1"), 0.0);
}

// --- FlightRecorder ---

TEST(FlightRecorderTest, RingBoundsFramesAndDumpFreezesEveryKey) {
  obs::FlightRecorder recorder;
  recorder.setCapacity(4);

  obs::FlightFrame frame;
  for (std::uint64_t i = 0; i < 10; ++i) {
    frame.tick = i;
    frame.atMicros = static_cast<std::int64_t>(i) * 1000;
    frame.durationMs = 1.0;
    recorder.recordTick("server-1", frame);
  }
  EXPECT_EQ(recorder.frameCount("server-1"), 4u);  // ring kept the last 4
  frame.tick = 3;
  recorder.recordTick("server-2", frame);
  recorder.note("server-2", SimTime{9000}, "crash");

  recorder.dump("crash:server-2", SimTime{9500});
  EXPECT_EQ(recorder.dumpCount(), 1u);

  std::ostringstream out;
  recorder.writeJsonl(out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"reason\":\"crash:server-2\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"crash\""), std::string::npos);
  // Both keys are present in the dump, and evicted frames are not.
  EXPECT_NE(jsonl.find("\"key\":\"server-1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"key\":\"server-2\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"tick\":6"), std::string::npos);   // oldest surviving frame
  EXPECT_EQ(jsonl.find("\"tick\":5,"), std::string::npos);  // evicted

  // The dump cap counts, not stores, extra triggers.
  recorder.setMaxDumps(2);
  recorder.dump("second", SimTime{9600});
  recorder.dump("third", SimTime{9700});
  EXPECT_EQ(recorder.dumpCount(), 2u);
  EXPECT_EQ(recorder.droppedDumps(), 1u);
}

// --- Zero-cost observer: identical simulations with telemetry on/off ---

std::vector<double> runFingerprint(obs::Telemetry* telemetry) {
  game::FpsApplication app;
  rtf::ClusterConfig config;
  config.telemetry = telemetry;
  rtf::Cluster cluster(app, config);
  const ZoneId zone = cluster.createZone("arena");
  cluster.attachMonitoringCollector();
  // A pure tick-time predictor exercises the drift monitor on the traced
  // run without perturbing either timeline.
  cluster.setTickPredictor([](std::size_t users, std::size_t avatars, std::size_t npcs) {
    return 0.01 + 0.001 * static_cast<double>(users + avatars + npcs);
  });
  cluster.addServer(zone);
  const ServerId second = cluster.addServer(zone);
  // NPCs in the zone exercise the census/NPC-update tick paths too.
  cluster.spawnNpcs(zone, 6);
  for (int i = 0; i < 12; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }
  cluster.run(SimDuration::seconds(2));
  // Force cross-server migration traffic (flow events on the traced run).
  const std::vector<ClientId> ids = cluster.clientIds();
  for (std::size_t i = 0; i < 2 && i < ids.size(); ++i) {
    cluster.migrateClient(ids[i], second);
  }
  cluster.run(SimDuration::seconds(1));

  std::vector<double> fingerprint;
  for (const ServerId id : cluster.serverIds()) {
    rtf::Server& server = cluster.server(id);
    fingerprint.push_back(static_cast<double>(server.tickCount()));
    const rtf::MonitoringSnapshot snapshot = server.monitoring();
    fingerprint.push_back(snapshot.tickAvgMs);
    fingerprint.push_back(snapshot.tickP95Ms);
    fingerprint.push_back(snapshot.tickMaxMs);
    fingerprint.push_back(snapshot.cpuLoad);
    const rtf::World::Census census = server.world().census(id);
    fingerprint.push_back(static_cast<double>(census.activeAvatars));
    fingerprint.push_back(static_cast<double>(census.totalAvatars));
    fingerprint.push_back(static_cast<double>(census.activeNpcs));
    fingerprint.push_back(static_cast<double>(census.totalNpcs));
    server.world().forEach([&](rtf::ConstEntityRef e) {
      fingerprint.push_back(e.position.x);
      fingerprint.push_back(e.position.y);
      fingerprint.push_back(e.health);
    });
  }
  return fingerprint;
}

TEST(TelemetryDeterminismTest, SimulationIsBitIdenticalWithTelemetryAttached) {
  obs::Telemetry telemetry;
  // Full observability v2 surface: SLO objectives, drift monitor, protocol
  // tracker and flight recorder all observing.
  obs::installDefaultObjectives(telemetry.slo);

  const std::vector<double> traced = runFingerprint(&telemetry);
  const std::vector<double> plain = runFingerprint(nullptr);
  EXPECT_EQ(traced, plain);

  // The observer actually observed: tick spans and tick-duration samples.
  EXPECT_GT(telemetry.tracer.eventCount(), 0u);
  const obs::LogHistogram* tickHist =
      telemetry.metrics.findHistogram("roia_tick_duration_ms", {{"server", "1"}});
  ASSERT_NE(tickHist, nullptr);
  EXPECT_GT(tickHist->count(), 0u);
  // Migration flow events were recorded on both ends.
  std::ostringstream out;
  telemetry.tracer.writeJson(out);
  EXPECT_NE(out.str().find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ph\":\"f\""), std::string::npos);
  // Protocol instances completed end-to-end across servers.
  EXPECT_GE(telemetry.protocols.outcomeCount(obs::Protocol::kMigration,
                                             obs::ProtocolOutcome::kCompleted),
            1u);
  // Eq.2 residuals accumulated per server, and the flight ring is rolling.
  EXPECT_GT(telemetry.drift.sampleCount("server-1"), 0u);
  EXPECT_GT(telemetry.flight.frameCount("server-1"), 0u);
}

// --- RMS audit integration: decisions land in the audit log ---

TEST(RmsAuditTest, ControlPeriodsProduceAuditRecords) {
  obs::Telemetry telemetry;

  game::FpsApplication app;
  rtf::ClusterConfig clusterConfig;
  clusterConfig.telemetry = &telemetry;
  rtf::Cluster cluster(app, clusterConfig);
  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  for (int i = 0; i < 8; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }

  rms::StaticStrategyConfig strategyConfig;
  rms::RmsManager manager(cluster, zone,
                          std::make_unique<rms::StaticIntervalStrategy>(strategyConfig),
                          rms::ResourcePool{}, rms::RmsConfig{});
  manager.start();
  cluster.run(SimDuration::seconds(3));
  manager.stop();

  ASSERT_GE(telemetry.audit.size(), 2u);
  const obs::AuditRecord& record = telemetry.audit.records().front();
  EXPECT_EQ(record.strategy, "static-interval");
  EXPECT_EQ(record.zone, zone);
  EXPECT_EQ(record.users, 8u);
  EXPECT_EQ(record.replicas, 1u);
  // RMS control periods appear as spans on their own track.
  std::ostringstream out;
  telemetry.tracer.writeJson(out);
  EXPECT_NE(out.str().find("control-period"), std::string::npos);
}

// --- Server health path: SLO breaches, drift samples, flight dumps ---

// An overloaded two-replica session with no defenses: slow servers push
// the tick past the 40 ms tick_time objective within a second. The model
// only feeds the Eq. 4 predictor that drift telemetry reads (ladder and
// admission off).
rms::OverloadSessionConfig overloadedSession(std::uint64_t seed) {
  model::ModelParameters params;
  params.set(model::ParamKind::kUa, model::ParamFunction::linear(1.0, 0.01));
  params.set(model::ParamKind::kAoi, model::ParamFunction::linear(0.5, 0.02));
  params.set(model::ParamKind::kSu, model::ParamFunction::linear(1.0, 0.05));
  rms::OverloadSessionConfig config;
  config.replicas = 2;
  config.ladder = false;
  config.admission = false;
  config.model = model::TickModel(params);
  config.server.cpu.speedFactor = 0.004;
  config.scenario = game::WorkloadScenario::constant(24, SimDuration::seconds(6));
  config.settle = SimDuration::seconds(1);
  config.seed = seed;
  return config;
}

TEST(ServerHealthTest, OverloadRecordsSloBreachesDriftAndFlightDumps) {
  obs::Telemetry telemetry;
  obs::installDefaultObjectives(telemetry.slo);
  rms::OverloadSessionConfig config = overloadedSession(5);
  config.telemetry = &telemetry;
  const rms::OverloadSessionSummary summary = rms::runOverloadSession(config);
  ASSERT_GT(summary.deadlineMissPeriods, 0u);

  std::size_t breaches = 0;
  std::size_t drifts = 0;
  for (const obs::AuditRecord& record : telemetry.audit.records()) {
    if (record.action == obs::AuditEvent::kSloBreach) ++breaches;
    if (record.action == obs::AuditEvent::kModelDrift) ++drifts;
  }
  EXPECT_GE(breaches, 1u);
  EXPECT_EQ(breaches, telemetry.slo.breachCount());
  // The predictor is far below the measured tick, so drift fires as well.
  EXPECT_GE(drifts, 1u);
  EXPECT_GE(telemetry.flight.dumpCount(), 1u);
  for (const char* server : {"server-1", "server-2"}) {
    EXPECT_GT(telemetry.drift.sampleCount(server), 0u) << server;
  }
}

// --- One context observes one session of a parallel sweep ---

struct Sidecars {
  std::string trace, metrics, audit, slo, drift, flight;
};

Sidecars writeSidecars(const obs::Telemetry& telemetry) {
  std::ostringstream trace, metrics, audit, slo, drift, flight;
  telemetry.tracer.writeJson(trace);
  telemetry.metrics.writeJsonl(metrics);
  telemetry.audit.writeJsonl(audit);
  telemetry.slo.writeJsonl(slo);
  telemetry.protocols.writeJsonl(slo);
  telemetry.drift.writeJsonl(drift);
  telemetry.flight.writeJsonl(flight);
  return {trace.str(), metrics.str(), audit.str(), slo.str(), drift.str(), flight.str()};
}

// Four sessions fan out over `threads` workers; only the second is observed.
Sidecars observeOneOfFour(std::size_t threads) {
  obs::Telemetry telemetry;
  obs::installDefaultObjectives(telemetry.slo);
  par::forEachIndex(
      4,
      [&](std::size_t i) {
        rms::OverloadSessionConfig config = overloadedSession(100 + i);
        if (i == 1) config.telemetry = &telemetry;
        (void)rms::runOverloadSession(config);
      },
      threads);
  return writeSidecars(telemetry);
}

TEST(TelemetrySweepTest, ObservedSessionIsByteIdenticalBesideUnobservedSiblings) {
  const Sidecars serial = observeOneOfFour(1);
  const Sidecars parallel = observeOneOfFour(4);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.audit, parallel.audit);
  EXPECT_EQ(serial.slo, parallel.slo);
  EXPECT_EQ(serial.drift, parallel.drift);
  EXPECT_EQ(serial.flight, parallel.flight);
  // Every sidecar holds something, and only one simulation: each of the
  // two server tracks begins its tick sequence once.
  for (const std::string* file : {&serial.trace, &serial.metrics, &serial.audit, &serial.slo,
                                  &serial.drift, &serial.flight}) {
    EXPECT_FALSE(file->empty());
  }
  EXPECT_EQ(countOccurrences(serial.trace, "\"seq\":\"0\""), 2u);
}

}  // namespace
}  // namespace roia
