// Tests for the network-transported monitoring path: the snapshot codec,
// the collector endpoint, per-server publication cadence, and RTF-RMS
// driving its decisions from published (slightly stale) data.
#include <gtest/gtest.h>

#include <memory>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "rms/manager.hpp"
#include "rms/model_strategy.hpp"
#include "rtf/cluster.hpp"
#include "rtf/monitoring.hpp"

namespace roia::rtf {
namespace {

TEST(MonitoringCodecTest, RoundTrip) {
  MonitoringSnapshot snapshot;
  snapshot.server = ServerId{7};
  snapshot.zone = ZoneId{3};
  snapshot.takenAt = SimTime{123456};
  snapshot.activeUsers = 42;
  snapshot.totalAvatars = 84;
  snapshot.npcs = 5;
  snapshot.tickAvgMs = 12.5;
  snapshot.tickP95Ms = 17.75;
  snapshot.tickMaxMs = 19.25;
  snapshot.cpuLoad = 0.31;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    snapshot.phaseAvgMicros[i] = static_cast<double>(i) * 10.5;
  }
  snapshot.ticksObserved = 1000;
  snapshot.migrationsInitiated = 3;
  snapshot.migrationsReceived = 9;

  const MonitoringSnapshot decoded = decodeMonitoring(encodeMonitoring(snapshot));
  EXPECT_EQ(decoded.server, snapshot.server);
  EXPECT_EQ(decoded.zone, snapshot.zone);
  EXPECT_EQ(decoded.takenAt, snapshot.takenAt);
  EXPECT_EQ(decoded.activeUsers, 42u);
  EXPECT_DOUBLE_EQ(decoded.tickAvgMs, 12.5);
  EXPECT_DOUBLE_EQ(decoded.tickP95Ms, 17.75);
  EXPECT_DOUBLE_EQ(decoded.tickMaxMs, 19.25);
  EXPECT_DOUBLE_EQ(decoded.cpuLoad, 0.31);
  EXPECT_NEAR(decoded.phaseAvgMicros[3], 31.5, 1e-4);
  EXPECT_EQ(decoded.migrationsReceived, 9u);
}

TEST(MonitoringCodecTest, WrongTypeRejected) {
  ser::Frame frame;
  frame.type = ser::MessageType::kHeartbeat;
  EXPECT_THROW((void)decodeMonitoring(frame), ser::DecodeError);
}

struct Fixture {
  game::FpsApplication app;
  Cluster cluster{app, ClusterConfig{}};
  ZoneId zone = cluster.createZone("arena");
};

TEST(MonitoringCollectorTest, ReceivesPublishedSnapshots) {
  Fixture f;
  MonitoringCollector& collector = f.cluster.attachMonitoringCollector();
  const ServerId s = f.cluster.addServer(f.zone);
  for (int i = 0; i < 10; ++i) {
    f.cluster.connectClient(f.zone, std::make_unique<game::BotProvider>());
  }
  f.cluster.run(SimDuration::seconds(3));

  // Default cadence 500 ms -> roughly 6 snapshots in 3 s.
  EXPECT_GE(collector.snapshotsReceived(), 5u);
  EXPECT_LE(collector.snapshotsReceived(), 9u);
  const auto latest = collector.latest(s);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->activeUsers, 10u);
  EXPECT_EQ(latest->zone, f.zone);
  // p95 comes from the same window as avg/max and must sit within them.
  EXPECT_GT(latest->tickP95Ms, 0.0);
  EXPECT_LE(latest->tickP95Ms, latest->tickMaxMs + 1e-9);
  const auto staleness = collector.staleness(s);
  ASSERT_TRUE(staleness.has_value());
  EXPECT_LE(staleness->micros, SimDuration::milliseconds(600).micros);
}

TEST(MonitoringCollectorTest, AttachIsRetroactiveAndIdempotent) {
  Fixture f;
  const ServerId s = f.cluster.addServer(f.zone);  // before attach
  MonitoringCollector& first = f.cluster.attachMonitoringCollector();
  MonitoringCollector& second = f.cluster.attachMonitoringCollector();
  EXPECT_EQ(&first, &second);
  f.cluster.run(SimDuration::seconds(1));
  EXPECT_TRUE(first.latest(s).has_value());
}

TEST(MonitoringCollectorTest, ZoneSnapshotsAndForget) {
  Fixture f;
  MonitoringCollector& collector = f.cluster.attachMonitoringCollector();
  const ZoneId other = f.cluster.createZone("other");
  f.cluster.addServer(f.zone);
  const ServerId s2 = f.cluster.addServer(f.zone);
  f.cluster.addServer(other);
  f.cluster.run(SimDuration::seconds(1));

  EXPECT_EQ(collector.zoneSnapshots(f.zone).size(), 2u);
  EXPECT_EQ(collector.zoneSnapshots(other).size(), 1u);

  f.cluster.removeServer(s2);  // cluster tells the collector to forget
  EXPECT_EQ(collector.zoneSnapshots(f.zone).size(), 1u);
  EXPECT_FALSE(collector.latest(s2).has_value());
}

TEST(MonitoringCollectorTest, UnknownServerQueriesAreEmpty) {
  Fixture f;
  MonitoringCollector& collector = f.cluster.attachMonitoringCollector();
  EXPECT_FALSE(collector.latest(ServerId{99}).has_value());
  EXPECT_FALSE(collector.staleness(ServerId{99}).has_value());
  EXPECT_TRUE(collector.zoneSnapshots(f.zone).empty());
}

TEST(MonitoringTransportRmsTest, ManagerBalancesFromPublishedData) {
  Fixture f;
  f.cluster.attachMonitoringCollector();
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  for (int i = 0; i < 160; ++i) {
    f.cluster.connectClientTo(a, std::make_unique<game::BotProvider>());
  }

  model::ModelParameters params;
  params.set(model::ParamKind::kUaDser, model::ParamFunction::linear(1.0, 0.0015));
  params.set(model::ParamKind::kUa, model::ParamFunction::quadratic(1.2, 0.009, 1.2e-4));
  params.set(model::ParamKind::kAoi, model::ParamFunction::quadratic(0.1, 0.45, 0.8e-4));
  params.set(model::ParamKind::kSu, model::ParamFunction::linear(1.5, 0.2));
  params.set(model::ParamKind::kFaDser, model::ParamFunction::linear(0.55, 0.0007));
  params.set(model::ParamKind::kFa, model::ParamFunction::linear(0.9, 0.0023));
  params.set(model::ParamKind::kMigIni, model::ParamFunction::linear(150.0, 5.0));
  params.set(model::ParamKind::kMigRcv, model::ParamFunction::linear(80.0, 2.2));

  rms::RmsConfig config;
  config.controlPeriod = SimDuration::milliseconds(500);
  config.useNetworkMonitoring = true;
  rms::RmsManager manager(f.cluster, f.zone,
                          std::make_unique<rms::ModelDrivenStrategy>(
                              model::TickModel(params), rms::ModelStrategyConfig{}),
                          rms::ResourcePool{}, config);
  manager.start();
  f.cluster.run(SimDuration::seconds(25));
  manager.stop();

  // Balanced via the published-monitoring path.
  const std::size_t onA = f.cluster.server(a).connectedUsers();
  const std::size_t onB = f.cluster.server(b).connectedUsers();
  EXPECT_EQ(onA + onB, 160u);
  EXPECT_NEAR(static_cast<double>(onA), 80.0, 12.0);
  EXPECT_GT(manager.migrationsOrderedTotal(), 20u);
}

}  // namespace
}  // namespace roia::rtf
