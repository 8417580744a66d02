// Chaos suite: deterministic network fault injection, the reliable
// control-plane transport, and crash-failure detection + recovery in
// RTF-RMS. The acceptance scenarios of the robustness work live here:
// a 20-client session completing migrations under 5% uniform loss, a
// mid-session crash detected within three heartbeat intervals with no
// client permanently lost, and bit-identical timelines for identical
// seeds and fault plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "rms/manager.hpp"
#include "rms/resource_pool.hpp"
#include "rms/strategy.hpp"
#include "rtf/cluster.hpp"
#include "rtf/reliable.hpp"
#include "serialize/message.hpp"
#include "sim/simulation.hpp"

namespace roia {
namespace {

ser::Frame taggedFrame(std::size_t tag) {
  ser::Frame frame;
  frame.type = ser::MessageType::kMigrationAck;
  frame.payload.assign(tag, 0x42);  // payload size doubles as the tag
  return frame;
}

struct NetFixture {
  explicit NetFixture(std::uint64_t seed = 1) : net(sim), faults(seed) {
    net::LinkParams params;
    params.latency = SimDuration::milliseconds(1);
    params.bandwidthBytesPerSec = 1e12;
    net.setDefaultLinkParams(params);
    net.setFaultInjector(&faults);
  }

  sim::Simulation sim;
  net::Network net;
  net::FaultInjector faults;
};

// ---------- fault injector ----------

TEST(FaultInjectorTest, InertInjectorIsTransparent) {
  // With an attached but unconfigured injector, delivery must be identical
  // to a plain network: the inert path consumes no randomness.
  std::vector<std::pair<std::int64_t, std::size_t>> withInjector, without;
  for (int pass = 0; pass < 2; ++pass) {
    sim::Simulation sim;
    net::Network net(sim);
    net::LinkParams params;
    params.latency = SimDuration::milliseconds(1);
    params.bandwidthBytesPerSec = 1e12;
    net.setDefaultLinkParams(params);
    net::FaultInjector faults(99);
    if (pass == 0) net.setFaultInjector(&faults);
    auto& out = pass == 0 ? withInjector : without;
    const NodeId a = net.addNode(nullptr);
    const NodeId b = net.addNode([&](NodeId, const ser::Frame& f) {
      out.emplace_back(sim.now().micros, f.payload.size());
    });
    for (std::size_t i = 1; i <= 20; ++i) net.send(a, b, taggedFrame(i));
    sim.runAll();
  }
  EXPECT_EQ(withInjector, without);
}

TEST(FaultInjectorTest, FullDropLosesEverything) {
  NetFixture f;
  net::FaultParams params;
  params.dropProbability = 1.0;
  f.faults.setDefaultFaults(params);
  int delivered = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++delivered; });
  for (int i = 0; i < 10; ++i) f.net.send(a, b, taggedFrame(4));
  f.sim.runAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.faults.stats().framesDropped, 10u);
  EXPECT_EQ(f.faults.stats().framesJudged, 10u);
}

TEST(FaultInjectorTest, DropRateIsRoughlyRespected) {
  NetFixture f(0xD201);
  net::FaultParams params;
  params.dropProbability = 0.3;
  f.faults.setDefaultFaults(params);
  int delivered = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) f.net.send(a, b, taggedFrame(4));
  f.sim.runAll();
  EXPECT_GT(delivered, 600);
  EXPECT_LT(delivered, 800);
}

TEST(FaultInjectorTest, DuplicationDeliversCopies) {
  NetFixture f;
  net::FaultParams params;
  params.duplicateProbability = 1.0;
  f.faults.setDefaultFaults(params);
  int delivered = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++delivered; });
  for (int i = 0; i < 10; ++i) f.net.send(a, b, taggedFrame(4));
  f.sim.runAll();
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(f.faults.stats().framesDuplicated, 10u);
}

TEST(FaultInjectorTest, JitterStaysBoundedAndFifoHoldsWithoutReorder) {
  NetFixture f(0x71773);
  net::FaultParams params;
  params.jitterMax = SimDuration::milliseconds(5);
  f.faults.setDefaultFaults(params);
  std::vector<std::pair<std::int64_t, std::size_t>> arrivals;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame& frame) {
    arrivals.emplace_back(f.sim.now().micros, frame.payload.size());
  });
  for (std::size_t i = 1; i <= 50; ++i) f.net.send(a, b, taggedFrame(i));
  f.sim.runAll();
  ASSERT_EQ(arrivals.size(), 50u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // Latency 1 ms + up to 5 ms jitter (transmit time is negligible).
    EXPECT_GE(arrivals[i].first, 1000);
    EXPECT_LE(arrivals[i].first, 6100);
    // Without the reorder fault the per-link FIFO clamp still holds.
    EXPECT_EQ(arrivals[i].second, i + 1);
  }
  EXPECT_GT(f.faults.stats().framesDelayed, 0u);
}

TEST(FaultInjectorTest, ReorderingOvertakesEarlierFrames) {
  NetFixture f(0x2e02de2);
  net::FaultParams params;
  params.jitterMax = SimDuration::milliseconds(10);
  params.reorderProbability = 1.0;
  f.faults.setDefaultFaults(params);
  std::vector<std::size_t> order;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode(
      [&](NodeId, const ser::Frame& frame) { order.push_back(frame.payload.size()); });
  for (std::size_t i = 1; i <= 50; ++i) f.net.send(a, b, taggedFrame(i));
  f.sim.runAll();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  EXPECT_GT(f.faults.stats().framesReordered, 0u);
}

TEST(FaultInjectorTest, PartitionCutsTrafficUntilHealed) {
  NetFixture f;
  std::vector<std::int64_t> arrivals;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode(
      [&](NodeId, const ser::Frame&) { arrivals.push_back(f.sim.now().micros); });
  f.faults.partition("split", {b}, SimTime{10'000}, SimTime{50'000});

  f.net.send(a, b, taggedFrame(1));  // t=0: before the split
  f.sim.runUntil(SimTime{20'000});
  f.net.send(a, b, taggedFrame(2));  // t=20ms: inside the split -> dropped
  EXPECT_TRUE(f.faults.isPartitioned(a, b, SimTime{20'000}));
  EXPECT_TRUE(f.faults.isPartitioned(b, a, SimTime{20'000}));  // both directions
  f.sim.runUntil(SimTime{60'000});
  f.net.send(a, b, taggedFrame(3));  // t=60ms: healed
  f.sim.runAll();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1000);
  EXPECT_EQ(arrivals[1], 61'000);
  EXPECT_EQ(f.faults.stats().framesPartitioned, 1u);
}

TEST(FaultInjectorTest, HealMovesThePartitionEnd) {
  NetFixture f;
  f.faults.partition("split", {NodeId{1}}, SimTime{0});  // open-ended
  EXPECT_TRUE(f.faults.isPartitioned(NodeId{1}, NodeId{2}, SimTime{100'000}));
  f.faults.heal("split", SimTime{50'000});
  EXPECT_TRUE(f.faults.isPartitioned(NodeId{1}, NodeId{2}, SimTime{49'999}));
  EXPECT_FALSE(f.faults.isPartitioned(NodeId{1}, NodeId{2}, SimTime{50'000}));
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  // The whole point of seeding the injector: identical seed + identical
  // traffic => identical faults, microsecond for microsecond.
  auto run = [](std::uint64_t seed) {
    NetFixture f(seed);
    net::FaultParams params;
    params.dropProbability = 0.2;
    params.duplicateProbability = 0.1;
    params.jitterMax = SimDuration::milliseconds(4);
    params.reorderProbability = 0.5;
    f.faults.setDefaultFaults(params);
    std::vector<std::pair<std::int64_t, std::size_t>> arrivals;
    const NodeId a = f.net.addNode(nullptr);
    const NodeId b = f.net.addNode([&](NodeId, const ser::Frame& frame) {
      arrivals.emplace_back(f.sim.now().micros, frame.payload.size());
    });
    for (std::size_t i = 1; i <= 200; ++i) f.net.send(a, b, taggedFrame(i % 32 + 1));
    f.sim.runAll();
    return arrivals;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---------- reliable transport ----------

struct ReliablePeer {
  ReliablePeer(sim::Simulation& sim, net::Network& net, rtf::ReliableConfig config = {}) {
    node = net.addNode([this](NodeId from, const ser::Frame& frame) {
      if (transport->onFrame(from, frame)) return;
      ADD_FAILURE() << "unexpected non-reliable frame";
    });
    transport = std::make_unique<rtf::ReliableTransport>(sim, net, node, config);
    transport->setDeliver([this](NodeId, const ser::Frame& inner) {
      deliveredTags.push_back(inner.payload.size());
    });
  }

  NodeId node;
  std::unique_ptr<rtf::ReliableTransport> transport;
  std::vector<std::size_t> deliveredTags;
};

TEST(ReliableTransportTest, ExactlyOnceDeliveryUnderLossDupAndReorder) {
  NetFixture f(0xBADBEEF);
  net::FaultParams params;
  params.dropProbability = 0.3;
  params.duplicateProbability = 0.3;
  params.jitterMax = SimDuration::milliseconds(20);
  params.reorderProbability = 0.5;
  f.faults.setDefaultFaults(params);

  ReliablePeer sender(f.sim, f.net);
  ReliablePeer receiver(f.sim, f.net);
  constexpr std::size_t kMessages = 200;
  for (std::size_t i = 1; i <= kMessages; ++i) {
    sender.transport->send(receiver.node, taggedFrame(i));
  }
  f.sim.runUntil(SimTime{SimDuration::seconds(30).micros});

  // Every message delivered exactly once despite the hostile link.
  ASSERT_EQ(receiver.deliveredTags.size(), kMessages);
  std::vector<std::size_t> sorted = receiver.deliveredTags;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < kMessages; ++i) EXPECT_EQ(sorted[i], i + 1);

  EXPECT_GT(sender.transport->stats().retransmissions, 0u);
  EXPECT_GT(receiver.transport->stats().duplicatesDropped, 0u);
  EXPECT_EQ(sender.transport->stats().abandoned, 0u);
  EXPECT_EQ(sender.transport->unackedCount(), 0u);
}

TEST(ReliableTransportTest, BackoffBoundsAttemptsAndAbandonsDeadPeer) {
  NetFixture f;
  net::FaultParams params;
  params.dropProbability = 1.0;  // the peer might as well not exist
  f.faults.setDefaultFaults(params);

  rtf::ReliableConfig config;
  config.maxAttempts = 4;
  ReliablePeer sender(f.sim, f.net, config);
  ReliablePeer receiver(f.sim, f.net);
  sender.transport->send(receiver.node, taggedFrame(1));
  sender.transport->send(receiver.node, taggedFrame(2));
  f.sim.runUntil(SimTime{SimDuration::seconds(60).micros});

  EXPECT_TRUE(receiver.deliveredTags.empty());
  EXPECT_EQ(sender.transport->stats().abandoned, 2u);
  // attempts = initial + (maxAttempts - 1) retransmissions, per message.
  EXPECT_EQ(sender.transport->stats().retransmissions, 2u * (config.maxAttempts - 1));
  EXPECT_EQ(sender.transport->unackedCount(), 0u);
}

TEST(ReliableTransportTest, CleanLinkCostsNoRetransmissions) {
  NetFixture f;
  ReliablePeer sender(f.sim, f.net);
  ReliablePeer receiver(f.sim, f.net);
  for (std::size_t i = 1; i <= 50; ++i) sender.transport->send(receiver.node, taggedFrame(i));
  f.sim.runUntil(SimTime{SimDuration::seconds(5).micros});

  EXPECT_EQ(receiver.deliveredTags.size(), 50u);
  EXPECT_EQ(sender.transport->stats().retransmissions, 0u);
  EXPECT_EQ(sender.transport->stats().acksReceived, 50u);
  EXPECT_EQ(receiver.transport->stats().duplicatesDropped, 0u);
}

// ---------- cluster-level chaos ----------

/// Strategy that never acts: lets the tests isolate the recovery path from
/// ordinary load management.
struct NoopStrategy : rms::Strategy {
  [[nodiscard]] std::string name() const override { return "noop"; }
  rms::Decision decide(const rms::ZoneView&) override { return {}; }
};

TEST(ChaosTest, MigrationsAndReplicaSyncCompleteUnderFivePercentLoss) {
  game::FpsApplication app;
  rtf::ClusterConfig clusterConfig;
  clusterConfig.seed = 0xC7A05;
  rtf::Cluster cluster(app, clusterConfig);
  net::FaultParams loss;
  loss.dropProbability = 0.05;  // 5% uniform loss on every link
  cluster.enableFaultInjection().setDefaultFaults(loss);

  const ZoneId zone = cluster.createZone("arena");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  std::vector<ClientId> clients;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(cluster.connectClient(zone, std::make_unique<game::BotProvider>()));
  }
  cluster.run(SimDuration::seconds(2));

  // Swap every client to the other replica; under loss the hand-over relies
  // on the reliable transport to retransmit MigrationData and the ack.
  for (const ClientId c : clients) {
    const ServerId source = cluster.clientServer(c);
    ASSERT_TRUE(cluster.migrateClient(c, source == a ? b : a));
  }
  cluster.run(SimDuration::seconds(8));

  // Zero lost clients, zero stuck migrations.
  EXPECT_EQ(cluster.clientCount(), 20u);
  EXPECT_EQ(cluster.zoneUserCount(zone), 20u);
  EXPECT_EQ(cluster.server(a).clientIds(true).size() + cluster.server(b).clientIds(true).size(),
            20u);
  for (const ClientId c : clients) {
    const ServerId home = cluster.clientServer(c);
    EXPECT_TRUE(cluster.server(home).hasClient(c)) << "client " << c.value;
  }
  // Replica sync converged too: both replicas know all 20 avatars.
  EXPECT_EQ(cluster.server(a).world().avatarCount(), 20u);
  EXPECT_EQ(cluster.server(b).world().avatarCount(), 20u);
  EXPECT_GT(cluster.faultInjector()->stats().framesDropped, 0u);
}

namespace {

struct CrashRunResult {
  std::vector<rms::TimelinePoint> timeline;
  std::vector<rms::RecoveryRecord> recoveries;
  std::size_t clientsServed{0};
  std::size_t replicasAfter{0};
  std::int64_t crashAtMicros{0};
};

/// A 20-client session on two replicas with mild loss; the most-loaded
/// replica is killed mid-session and RTF-RMS must detect and recover.
CrashRunResult runCrashScenario(std::uint64_t seed) {
  game::FpsApplication app;
  rtf::ClusterConfig clusterConfig;
  clusterConfig.seed = seed;
  clusterConfig.serverTemplate.heartbeatPeriod = SimDuration::milliseconds(250);
  rtf::Cluster cluster(app, clusterConfig);
  net::FaultParams loss;
  loss.dropProbability = 0.01;
  loss.jitterMax = SimDuration::milliseconds(2);
  cluster.enableFaultInjection().setDefaultFaults(loss);
  cluster.attachMonitoringCollector();

  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  cluster.addServer(zone);
  for (int i = 0; i < 20; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }

  rms::RmsConfig rmsConfig;
  rmsConfig.controlPeriod = SimDuration::milliseconds(100);
  rmsConfig.serverStartupDelay = SimDuration::milliseconds(500);
  rmsConfig.useNetworkMonitoring = true;
  rmsConfig.detectFailures = true;
  rmsConfig.heartbeatPeriod = SimDuration::milliseconds(250);
  rmsConfig.missedHeartbeats = 2;
  rms::RmsManager manager(cluster, zone, std::make_unique<NoopStrategy>(), rms::ResourcePool{},
                          rmsConfig);
  manager.start();
  cluster.run(SimDuration::seconds(2));

  // Kill the replica with the most users — the worst case for recovery.
  const std::vector<ServerId> replicas = cluster.zones().replicas(zone);
  ServerId victim = replicas.front();
  std::size_t most = 0;
  for (const ServerId id : replicas) {
    const std::size_t users = cluster.server(id).connectedUsers();
    if (users > most) {
      most = users;
      victim = id;
    }
  }
  CrashRunResult result;
  result.crashAtMicros = cluster.simulation().now().micros;
  cluster.crashServer(victim);
  cluster.run(SimDuration::seconds(4));
  manager.stop();

  result.timeline = manager.timeline();
  result.recoveries = manager.recoveries();
  result.replicasAfter = cluster.zones().replicas(zone).size();
  for (const ClientId c : cluster.clientIds()) {
    const ServerId home = cluster.clientServer(c);
    if (cluster.hasServer(home) && cluster.server(home).hasClient(c)) ++result.clientsServed;
  }
  return result;
}

}  // namespace

TEST(ChaosTest, CrashIsDetectedWithinThreeHeartbeatsAndRecovered) {
  const CrashRunResult result = runCrashScenario(0x5EED01);

  ASSERT_EQ(result.recoveries.size(), 1u);
  const rms::RecoveryRecord& record = result.recoveries.front();
  // Failure detector latency: silent for missedHeartbeats periods plus at
  // most one control period => within 3 heartbeat intervals of the kill.
  EXPECT_LE(record.detectedAt.micros - result.crashAtMicros,
            3 * SimDuration::milliseconds(250).micros);
  EXPECT_TRUE(record.replacementOrdered);
  EXPECT_EQ(record.clientsLost, 0u);
  EXPECT_GT(record.clientsRehomed, 0u);
  // Survivors held replica-sync shadows, so users kept their avatars.
  EXPECT_EQ(record.shadowsPromoted, record.clientsRehomed);

  // Replica count restored and every client is served again.
  EXPECT_EQ(result.replicasAfter, 2u);
  EXPECT_EQ(result.clientsServed, 20u);

  // The timeline records the recovery (the paper-style Fig. 8 trace shows
  // the dip and the enacted replacement).
  std::size_t crashPoints = 0;
  std::size_t rehomed = 0;
  for (const rms::TimelinePoint& p : result.timeline) {
    crashPoints += p.crashesDetected;
    rehomed += p.clientsRehomed;
  }
  EXPECT_EQ(crashPoints, 1u);
  EXPECT_EQ(rehomed, record.clientsRehomed);
}

TEST(ChaosTest, SameSeedAndFaultPlanGiveIdenticalTimelines) {
  const CrashRunResult first = runCrashScenario(0xD37);
  const CrashRunResult second = runCrashScenario(0xD37);

  ASSERT_EQ(first.timeline.size(), second.timeline.size());
  for (std::size_t i = 0; i < first.timeline.size(); ++i) {
    const rms::TimelinePoint& p = first.timeline[i];
    const rms::TimelinePoint& q = second.timeline[i];
    EXPECT_EQ(p.timeSec, q.timeSec);
    EXPECT_EQ(p.users, q.users);
    EXPECT_EQ(p.servers, q.servers);
    EXPECT_EQ(p.pendingServers, q.pendingServers);
    EXPECT_EQ(p.avgCpuLoad, q.avgCpuLoad);
    EXPECT_EQ(p.avgTickMs, q.avgTickMs);
    EXPECT_EQ(p.maxTickMs, q.maxTickMs);
    EXPECT_EQ(p.migrationsOrdered, q.migrationsOrdered);
    EXPECT_EQ(p.violation, q.violation);
    EXPECT_EQ(p.crashesDetected, q.crashesDetected);
    EXPECT_EQ(p.clientsRehomed, q.clientsRehomed);
  }
  ASSERT_EQ(first.recoveries.size(), second.recoveries.size());
  for (std::size_t i = 0; i < first.recoveries.size(); ++i) {
    EXPECT_EQ(first.recoveries[i].detectedAt.micros, second.recoveries[i].detectedAt.micros);
    EXPECT_EQ(first.recoveries[i].server, second.recoveries[i].server);
    EXPECT_EQ(first.recoveries[i].clientsRehomed, second.recoveries[i].clientsRehomed);
    EXPECT_EQ(first.recoveries[i].shadowsPromoted, second.recoveries[i].shadowsPromoted);
    EXPECT_EQ(first.recoveries[i].npcsAdopted, second.recoveries[i].npcsAdopted);
  }
  EXPECT_EQ(first.crashAtMicros, second.crashAtMicros);
  EXPECT_EQ(first.clientsServed, second.clientsServed);
}

TEST(ChaosTest, CrashOfLoneReplicaLosesItsClients) {
  // Document the boundary: with no survivor there is nothing to recover
  // onto — clients are disconnected and reported lost, not leaked.
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  const ServerId only = cluster.addServer(zone);
  for (int i = 0; i < 5; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }
  cluster.run(SimDuration::seconds(1));
  cluster.crashServer(only);
  const rtf::Cluster::RecoveryReport report = cluster.recoverCrashedServer(only);
  EXPECT_EQ(report.clientsLost, 5u);
  EXPECT_EQ(report.clientsRehomed, 0u);
  EXPECT_EQ(cluster.clientCount(), 0u);
  EXPECT_FALSE(cluster.hasServer(only));
  cluster.run(SimDuration::seconds(1));  // nothing left ticking; must not crash
}

}  // namespace
}  // namespace roia
