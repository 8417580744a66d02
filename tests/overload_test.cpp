// Overload-survival suite (ctest -L overload): the per-server degradation
// ladder and its hysteresis, admission control with scenario-layer retry,
// preemption notices answered by the RMS graceful drain (including a window
// expiring mid-handoff), the stale-MigrationAck crash regression, and
// exactly-once reliable retransmits under loss and reordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "game/scenario.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "rms/overload_session.hpp"
#include "rtf/cluster.hpp"
#include "rtf/overload.hpp"
#include "rtf/reliable.hpp"
#include "sim/simulation.hpp"

namespace roia {
namespace {

std::unique_ptr<game::BotProvider> bot() {
  return std::make_unique<game::BotProvider>(game::BotConfig{});
}

// ---------- degradation ladder ----------

TEST(OverloadLadderTest, StepsDownUnderLoadAndRecoversWithHysteresis) {
  game::FpsApplication app;
  rtf::ServerConfig serverConfig;
  serverConfig.overload.enabled = true;
  serverConfig.overload.budgetMs = 5.0;
  serverConfig.overload.stepDownAfterTicks = 3;
  serverConfig.overload.stepUpAfterTicks = 8;
  rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, {}, 42, nullptr});
  const ZoneId zone = cluster.createZone("z");
  const ServerId sid = cluster.addServer(zone);

  double predicted = 100.0;  // way past the 5 ms budget
  cluster.setTickPredictor(
      [&predicted](std::size_t, std::size_t, std::size_t) { return predicted; });
  for (int i = 0; i < 6; ++i) cluster.connectClient(zone, bot());

  // 25 ticks at 3 over-budget ticks per step: the ladder bottoms out.
  cluster.run(SimDuration::seconds(1));
  const rtf::Server& server = cluster.server(sid);
  EXPECT_EQ(server.overloadLevel(), rtf::kShedLevel);
  EXPECT_GE(server.overloadStepDowns(), rtf::kOverloadLevels - 1);
  // Deepest level sheds lowest-priority observers (never below one served).
  EXPECT_GT(server.shedObservers(), 0u);
  EXPECT_LT(server.shedObservers(), server.connectedUsers());
  EXPECT_GE(server.shedEvents(), 1u);
  // The ladder level is exported with the monitoring snapshot.
  EXPECT_EQ(server.monitoring().degradationLevel, server.overloadLevel());
  EXPECT_EQ(server.monitoring().shedObservers, server.shedObservers());

  // Load vanishes. Hysteresis: 5 under-budget ticks are not enough to step
  // back up (stepUpAfterTicks = 8), so the level must hold first...
  predicted = 0.1;
  cluster.run(SimDuration::milliseconds(200));
  EXPECT_EQ(server.overloadLevel(), rtf::kShedLevel);

  // ...then climb back to full fidelity one level per 8 calm ticks, and the
  // shed observers are readmitted.
  cluster.run(SimDuration::seconds(2));
  EXPECT_EQ(server.overloadLevel(), 0u);
  EXPECT_EQ(server.shedObservers(), 0u);
  EXPECT_GE(server.readmitEvents(), 1u);
  EXPECT_GE(server.overloadStepUps(), rtf::kOverloadLevels - 1);
}

TEST(OverloadLadderTest, DisabledLadderNeverMoves) {
  game::FpsApplication app;
  rtf::ServerConfig serverConfig;  // overload.enabled defaults to false
  rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, {}, 42, nullptr});
  const ZoneId zone = cluster.createZone("z");
  const ServerId sid = cluster.addServer(zone);
  cluster.setTickPredictor([](std::size_t, std::size_t, std::size_t) { return 1000.0; });
  for (int i = 0; i < 4; ++i) cluster.connectClient(zone, bot());
  cluster.run(SimDuration::seconds(1));
  EXPECT_EQ(cluster.server(sid).overloadLevel(), 0u);
  EXPECT_EQ(cluster.server(sid).overloadStepDowns(), 0u);
  EXPECT_EQ(cluster.server(sid).shedObservers(), 0u);
}

TEST(OverloadLadderTest, ShedThenReadmitIsDeterministic) {
  // Two identical runs through a full shed-then-readmit cycle must agree
  // counter for counter (the ladder draws no randomness).
  const auto runOnce = [] {
    game::FpsApplication app;
    rtf::ServerConfig serverConfig;
    serverConfig.overload.enabled = true;
    serverConfig.overload.budgetMs = 5.0;
    serverConfig.overload.stepDownAfterTicks = 2;
    serverConfig.overload.stepUpAfterTicks = 4;
    rtf::Cluster cluster(app, rtf::ClusterConfig{serverConfig, {}, 7, nullptr});
    const ZoneId zone = cluster.createZone("z");
    const ServerId sid = cluster.addServer(zone);
    auto& sim = cluster.simulation();
    cluster.setTickPredictor([&sim](std::size_t, std::size_t, std::size_t) {
      return sim.now() < SimTime{SimDuration::seconds(2).micros} ? 50.0 : 0.1;
    });
    for (int i = 0; i < 8; ++i) cluster.connectClient(zone, bot());
    cluster.run(SimDuration::seconds(4));
    const rtf::Server& server = cluster.server(sid);
    return std::tuple(server.overloadStepDowns(), server.overloadStepUps(),
                      server.shedEvents(), server.readmitEvents(), server.overloadLevel(),
                      server.shedObservers());
  };
  const auto first = runOnce();
  EXPECT_EQ(first, runOnce());
  EXPECT_GE(std::get<2>(first), 1u);  // shed happened
  EXPECT_GE(std::get<3>(first), 1u);  // ...and was readmitted
  EXPECT_EQ(std::get<4>(first), 0u);  // back at full fidelity
  EXPECT_EQ(std::get<5>(first), 0u);
}

// ---------- admission control ----------

TEST(AdmissionTest, VetoUnderChaosRespectsCapAndRetries) {
  rms::OverloadSessionConfig config;
  config.replicas = 1;
  config.ladder = false;
  config.admission = true;
  config.maxUsersPerServer = 20;
  config.scenario = game::WorkloadScenario::constant(40, SimDuration::seconds(8));
  config.churn.maxChangePerPeriod = 5;
  net::FaultParams faults;
  faults.dropProbability = 0.05;
  faults.jitterMax = SimDuration::milliseconds(2);
  faults.reorderProbability = 0.1;
  config.linkFaults = faults;
  config.settle = SimDuration::seconds(2);
  config.seed = 99;

  const rms::OverloadSessionSummary summary = rms::runOverloadSession(config);
  // The gate held the line at the cap; the crowd above it was vetoed and
  // the churn layer kept retrying behind its backoff, never losing anyone.
  EXPECT_EQ(summary.users, 20u);
  EXPECT_GT(summary.admissionVetoes, 0u);
  EXPECT_GT(summary.joinsVetoed, 0u);
  EXPECT_GT(summary.joinRetries, 0u);
  EXPECT_TRUE(summary.conserved()) << summary.missingAvatars << " missing, "
                                   << summary.duplicateAvatars << " duplicated";
}

TEST(AdmissionTest, VetoedConnectReturnsInvalidIdAndChargesNothing) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{{}, {}, 5, nullptr});
  const ZoneId zone = cluster.createZone("z");
  cluster.addServer(zone);
  cluster.setAdmissionGate([](const rtf::Server&, std::string& reason) {
    reason = "always refuse";
    return false;
  });
  const ClientId vetoed = cluster.connectClient(zone, bot());
  EXPECT_FALSE(vetoed.valid());
  EXPECT_EQ(cluster.clientCount(), 0u);
  EXPECT_EQ(cluster.admissionVetoes(), 1u);
  // Lifting the gate admits normally; the vetoed attempt consumed no ids.
  cluster.setAdmissionGate(nullptr);
  const ClientId admitted = cluster.connectClient(zone, bot());
  ASSERT_TRUE(admitted.valid());
  EXPECT_EQ(admitted.value, 1u);
}

// ---------- preemption + graceful drain ----------

TEST(PreemptionTest, GracefulDrainCompletesWithinWindow) {
  rms::OverloadSessionConfig config;
  config.replicas = 2;
  config.admission = false;
  config.scenario = game::WorkloadScenario::constant(20, SimDuration::seconds(8));
  config.preemptions = {{SimDuration::seconds(2), SimDuration::seconds(3)}};
  config.settle = SimDuration::seconds(3);
  config.seed = 1001;

  const rms::OverloadSessionSummary summary = rms::runOverloadSession(config);
  EXPECT_EQ(summary.preemptionsInjected, 1u);
  EXPECT_EQ(summary.gracefulDrains, 1u);
  // The victim emptied before the window closed: no crash fallback, every
  // user migrated off in an ordered handoff.
  EXPECT_EQ(summary.drainFallbacks, 0u);
  EXPECT_GT(summary.migrationsOrdered, 0u);
  EXPECT_EQ(summary.users, 20u);
  // The replacement replica restored the group size.
  EXPECT_EQ(summary.servers, 2u);
  EXPECT_TRUE(summary.conserved());
}

TEST(PreemptionTest, ExpiredNoticeFallsBackToCrashRecovery) {
  // The grace window is shorter than the management plane's polling period,
  // so the machine is reclaimed mid-handoff: the drain must degrade into
  // crash recovery without losing a single client.
  rms::OverloadSessionConfig config;
  config.replicas = 2;
  config.admission = false;
  config.scenario = game::WorkloadScenario::constant(20, SimDuration::seconds(8));
  config.preemptions = {{SimDuration::milliseconds(2050), SimDuration::milliseconds(200)}};
  config.settle = SimDuration::seconds(3);
  config.seed = 1002;

  const rms::OverloadSessionSummary summary = rms::runOverloadSession(config);
  EXPECT_EQ(summary.preemptionsInjected, 1u);
  EXPECT_EQ(summary.gracefulDrains, 1u);
  EXPECT_EQ(summary.drainFallbacks, 1u);
  EXPECT_EQ(summary.users, 20u);
  EXPECT_TRUE(summary.conserved()) << summary.missingAvatars << " missing, "
                                   << summary.duplicateAvatars << " duplicated";
}

TEST(PreemptionTest, StormOfThreeDrainsLosesNothing) {
  rms::OverloadSessionConfig config;
  config.replicas = 3;
  config.admission = false;
  config.scenario = game::WorkloadScenario::constant(30, SimDuration::seconds(14));
  config.preemptions = {{SimDuration::seconds(2), SimDuration::seconds(4)},
                        {SimDuration::seconds(5), SimDuration::seconds(4)},
                        {SimDuration::seconds(8), SimDuration::seconds(4)}};
  config.settle = SimDuration::seconds(3);
  config.seed = 1003;

  const rms::OverloadSessionSummary summary = rms::runOverloadSession(config);
  EXPECT_EQ(summary.preemptionsInjected, 3u);
  EXPECT_EQ(summary.gracefulDrains, 3u);
  EXPECT_EQ(summary.users, 30u);
  EXPECT_TRUE(summary.conserved()) << summary.missingAvatars << " missing, "
                                   << summary.duplicateAvatars << " duplicated";
}

// ---------- stale MigrationAck regression ----------

TEST(MigrationRecoveryTest, StaleAckAfterTargetCrashDoesNotWedgeClient) {
  // Regression: a MigrationAck in flight when the target crashes used to be
  // processed after recovery had already re-owned the avatar on the source,
  // erasing the live session and wedging the client forever.
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{{}, {}, 1234, nullptr});
  const ZoneId zone = cluster.createZone("z");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  const ClientId client = cluster.connectClientTo(a, bot());
  ASSERT_TRUE(client.valid());
  cluster.run(SimDuration::seconds(1));

  ASSERT_TRUE(cluster.migrateClient(client, b));
  // Step until the target adopted the avatar — its ack to the source is now
  // in flight (or queued for the source's next tick).
  bool adopted = false;
  for (int i = 0; i < 2000 && !adopted; ++i) {
    cluster.run(SimDuration::milliseconds(1));
    adopted = cluster.server(b).hasClient(client);
  }
  ASSERT_TRUE(adopted);
  // The source must not have processed the ack yet, or the race below is
  // not exercised (deterministic for this seed).
  ASSERT_TRUE(cluster.server(a).hasClient(client));

  // Target dies with the ack unprocessed; recovery re-owns the avatar on
  // the source and aborts the hand-over.
  cluster.crashServer(b);
  cluster.recoverCrashedServer(b);

  // The stale ack arrives afterwards and must be ignored.
  const std::uint64_t updatesBefore = cluster.client(client).updatesReceived();
  cluster.run(SimDuration::seconds(2));
  EXPECT_TRUE(cluster.server(a).hasClient(client));
  EXPECT_EQ(cluster.clientServer(client), a);
  EXPECT_GT(cluster.client(client).updatesReceived(), updatesBefore);

  // Conservation: exactly one active avatar, owned by the source.
  std::size_t active = 0;
  for (const ServerId id : cluster.serverIds()) {
    const rtf::Server& server = cluster.server(id);
    if (server.crashed()) continue;
    server.world().forEach([&](rtf::ConstEntityRef e) {
      if (e.client == client && e.owner == id) ++active;
    });
  }
  EXPECT_EQ(active, 1u);
}

// ---------- reliable retransmits under loss and reordering ----------

ser::Frame taggedFrame(std::size_t tag) {
  ser::Frame frame;
  frame.type = ser::MessageType::kMigrationAck;
  frame.payload.assign(tag, 0x42);  // payload size doubles as the tag
  return frame;
}

struct ReliablePeer {
  ReliablePeer(sim::Simulation& sim, net::Network& net) {
    node = net.addNode([this](NodeId from, const ser::Frame& frame) {
      transport->onFrame(from, frame);
    });
    transport = std::make_unique<rtf::ReliableTransport>(sim, net, node);
    transport->setDeliver([this](NodeId, const ser::Frame& inner) {
      deliveredTags.push_back(inner.payload.size());
    });
  }

  NodeId node;
  std::unique_ptr<rtf::ReliableTransport> transport;
  std::vector<std::size_t> deliveredTags;
};

struct LossyRunResult {
  std::vector<std::size_t> deliveredTags;
  std::uint64_t retransmissions{0};
  std::uint64_t duplicatesDropped{0};
  std::uint64_t abandoned{0};

  bool operator==(const LossyRunResult&) const = default;
};

LossyRunResult runLossyExchange() {
  sim::Simulation sim;
  net::Network net(sim);
  net::LinkParams link;
  link.latency = SimDuration::milliseconds(1);
  link.bandwidthBytesPerSec = 1e12;
  net.setDefaultLinkParams(link);
  net::FaultInjector faults(0xA11CE);
  net::FaultParams params;
  params.dropProbability = 0.25;
  params.jitterMax = SimDuration::milliseconds(10);
  params.reorderProbability = 0.4;
  faults.setDefaultFaults(params);
  net.setFaultInjector(&faults);

  ReliablePeer sender(sim, net);
  ReliablePeer receiver(sim, net);
  constexpr std::size_t kMessages = 150;
  for (std::size_t i = 1; i <= kMessages; ++i) {
    sender.transport->send(receiver.node, taggedFrame(i));
  }
  sim.runUntil(SimTime{SimDuration::seconds(30).micros});

  LossyRunResult result;
  result.deliveredTags = receiver.deliveredTags;
  result.retransmissions = sender.transport->stats().retransmissions;
  result.duplicatesDropped = receiver.transport->stats().duplicatesDropped;
  result.abandoned = sender.transport->stats().abandoned;
  return result;
}

TEST(ReliableRetransmitTest, ExactlyOnceUnderDropAndReorder) {
  const LossyRunResult result = runLossyExchange();
  // Exactly-once delivery survives loss and reordering: every tag arrives
  // once, and duplicates are dropped by the receive-side dedup.
  ASSERT_EQ(result.deliveredTags.size(), 150u);
  std::vector<std::size_t> sorted = result.deliveredTags;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i + 1);
  EXPECT_GT(result.retransmissions, 0u);
  // No ack of one message gets back within its maxAttempts (8) sends, so
  // the sender gives up on it; the receiver delivered it all the same.
  EXPECT_EQ(result.abandoned, 1u);

  // Retransmit timers are deterministic: the same run twice is identical,
  // including the delivery order under reordering faults.
  EXPECT_EQ(result, runLossyExchange());
}

}  // namespace
}  // namespace roia
