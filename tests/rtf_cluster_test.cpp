// Integration tests of the RTF substrate: multi-server replication, state
// updates, forwarded inputs, the user-migration protocol, server lifecycle
// and whole-run determinism — all driven through the Cluster harness with
// the FPS demo application.
#include <gtest/gtest.h>

#include <memory>

#include "game/bots.hpp"
#include "game/commands.hpp"
#include "game/fps_app.hpp"
#include "game/state_update.hpp"
#include "rtf/cluster.hpp"

namespace roia::rtf {
namespace {

using game::BotProvider;
using game::CommandBatch;

/// Deterministic provider: always moves east; attacks a fixed target when
/// one is set.
class ScriptedProvider final : public InputProvider {
 public:
  std::vector<std::uint8_t> nextCommands(SimTime, Rng&) override {
    CommandBatch batch;
    batch.move = game::MoveCommand{{1.0, 0.0}};
    if (target_.valid()) {
      batch.attack = game::AttackCommand{target_, {1.0, 0.0}};
    }
    return encodeCommands(batch);
  }
  void onStateUpdate(std::span<const std::uint8_t> update) override {
    lastUpdate_ = game::decodeStateUpdate(update);
    ++updates_;
  }

  void setTarget(EntityId target) { target_ = target; }
  [[nodiscard]] const game::StateUpdatePayload& lastUpdate() const { return lastUpdate_; }
  [[nodiscard]] int updates() const { return updates_; }

 private:
  EntityId target_{};
  game::StateUpdatePayload lastUpdate_{};
  int updates_{0};
};

struct Fixture {
  game::FpsApplication app;
  Cluster cluster;
  ZoneId zone;

  explicit Fixture(std::uint64_t seed = 42, game::FpsConfig fps = {})
      : app(fps), cluster(app, ClusterConfig{ServerConfig{}, ClientEndpoint::Config{}, seed}) {
    zone = cluster.createZone("arena", fps.arenaOrigin, fps.arenaExtent);
  }

  static game::FpsConfig smallArena() {
    game::FpsConfig fps;
    fps.arenaExtent = {100, 100};  // everything within attack range
    return fps;
  }
};

TEST(ClusterTest, ServersStartAndTick) {
  Fixture f;
  const ServerId s = f.cluster.addServer(f.zone);
  f.cluster.run(SimDuration::seconds(1));
  EXPECT_TRUE(f.cluster.server(s).running());
  EXPECT_GE(f.cluster.server(s).tickCount(), 20u);  // ~25 ticks per second
  EXPECT_LE(f.cluster.server(s).tickCount(), 30u);
}

TEST(ClusterTest, ClientsReceiveStateUpdates) {
  Fixture f;
  f.cluster.addServer(f.zone);
  const ClientId c1 = f.cluster.connectClient(f.zone, std::make_unique<ScriptedProvider>());
  const ClientId c2 = f.cluster.connectClient(f.zone, std::make_unique<ScriptedProvider>());
  f.cluster.run(SimDuration::seconds(2));
  EXPECT_GT(f.cluster.client(c1).updatesReceived(), 30u);
  EXPECT_GT(f.cluster.client(c2).updatesReceived(), 30u);
}

TEST(ClusterTest, LeastLoadedConnectBalances) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  for (int i = 0; i < 10; ++i) {
    f.cluster.connectClient(f.zone, std::make_unique<BotProvider>());
  }
  EXPECT_EQ(f.cluster.server(a).connectedUsers(), 5u);
  EXPECT_EQ(f.cluster.server(b).connectedUsers(), 5u);
  EXPECT_EQ(f.cluster.zoneUserCount(f.zone), 10u);
}

TEST(ClusterTest, ReplicationCreatesShadows) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  for (int i = 0; i < 6; ++i) {
    f.cluster.connectClient(f.zone, std::make_unique<BotProvider>());
  }
  f.cluster.run(SimDuration::seconds(1));
  // Every replica sees the full zone population: 3 active + 3 shadow each.
  EXPECT_EQ(f.cluster.server(a).world().avatarCount(), 6u);
  EXPECT_EQ(f.cluster.server(b).world().avatarCount(), 6u);
  EXPECT_EQ(f.cluster.server(a).world().activeCount(a), 3u);
  EXPECT_EQ(f.cluster.server(b).world().activeCount(b), 3u);
}

TEST(ClusterTest, ShadowPositionsTrackActives) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  const ClientId c = f.cluster.connectClientTo(a, std::make_unique<ScriptedProvider>());
  f.cluster.run(SimDuration::seconds(2));
  const EntityId avatar = f.cluster.client(c).avatar();
  const auto active = f.cluster.server(a).world().find(avatar);
  const auto shadow = f.cluster.server(b).world().find(avatar);
  ASSERT_TRUE(active.has_value());
  ASSERT_TRUE(shadow.has_value());
  EXPECT_FALSE(shadow->activeOn(b));
  // The avatar moved east at 80 units/s for ~2 s; the shadow must track it
  // closely (within one round of replication lag).
  EXPECT_GT(active->position.x, 150.0);
  EXPECT_NEAR(shadow->position.x, active->position.x, 25.0);
}

TEST(ClusterTest, ForwardedInputsDamageRemoteEntities) {
  Fixture f(42, Fixture::smallArena());
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  auto attackerProvider = std::make_unique<ScriptedProvider>();
  ScriptedProvider* attacker = attackerProvider.get();
  const ClientId cAttacker = f.cluster.connectClientTo(a, std::move(attackerProvider));
  const ClientId cVictim = f.cluster.connectClientTo(b, std::make_unique<ScriptedProvider>());
  (void)cAttacker;
  f.cluster.run(SimDuration::milliseconds(300));  // let shadows appear

  const EntityId victim = f.cluster.client(cVictim).avatar();
  attacker->setTarget(victim);
  f.cluster.run(SimDuration::seconds(1));

  const auto victimRecord = f.cluster.server(b).world().find(victim);
  ASSERT_TRUE(victimRecord.has_value());
  // Attacks crossed servers; the victim must have taken damage on its owner
  // (health drops below spawn value 100, possibly after respawns).
  EXPECT_LT(victimRecord->health, 100.0);
  const MonitoringSnapshot monB = f.cluster.server(b).monitoring();
  EXPECT_GT(monB.phaseAvgMicros[static_cast<std::size_t>(Phase::kFa)], 0.0);
}

TEST(ClusterTest, MigrationMovesUserWithoutLoss) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  std::vector<ClientId> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(f.cluster.connectClientTo(a, std::make_unique<BotProvider>()));
  }
  f.cluster.run(SimDuration::milliseconds(500));
  EXPECT_EQ(f.cluster.server(a).connectedUsers(), 8u);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(f.cluster.migrateClient(clients[static_cast<std::size_t>(i)], b));
  }
  f.cluster.run(SimDuration::seconds(1));

  EXPECT_EQ(f.cluster.server(a).connectedUsers(), 5u);
  EXPECT_EQ(f.cluster.server(b).connectedUsers(), 3u);
  EXPECT_EQ(f.cluster.zoneUserCount(f.zone), 8u);
  // Ownership moved: the migrated avatars are active on b everywhere.
  for (int i = 0; i < 3; ++i) {
    const ClientId c = clients[static_cast<std::size_t>(i)];
    EXPECT_EQ(f.cluster.clientServer(c), b);
    const EntityId avatar = f.cluster.client(c).avatar();
    const auto onB = f.cluster.server(b).world().find(avatar);
    ASSERT_TRUE(onB.has_value());
    EXPECT_TRUE(onB->activeOn(b));
  }
  // Migrated clients keep receiving updates from the new server.
  const std::uint64_t before = f.cluster.client(clients[0]).updatesReceived();
  f.cluster.run(SimDuration::seconds(1));
  EXPECT_GT(f.cluster.client(clients[0]).updatesReceived(), before + 10);
}

TEST(ClusterTest, MigrationChargesBothSides) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  std::vector<ClientId> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(f.cluster.connectClientTo(a, std::make_unique<BotProvider>()));
  }
  f.cluster.run(SimDuration::milliseconds(500));
  f.cluster.migrateClient(clients[0], b);
  f.cluster.run(SimDuration::seconds(1));
  EXPECT_EQ(f.cluster.server(a).monitoring().migrationsInitiated, 1u);
  EXPECT_EQ(f.cluster.server(b).monitoring().migrationsReceived, 1u);
}

TEST(ClusterTest, MigrationRejectsInvalidRequests) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  const ZoneId otherZone = f.cluster.createZone("other");
  const ServerId c = f.cluster.addServer(otherZone);
  const ClientId client = f.cluster.connectClientTo(a, std::make_unique<BotProvider>());

  EXPECT_FALSE(f.cluster.migrateClient(client, a));          // same server
  EXPECT_FALSE(f.cluster.migrateClient(client, c));          // cross-zone
  EXPECT_FALSE(f.cluster.migrateClient(ClientId{999}, b));   // unknown client
  EXPECT_TRUE(f.cluster.migrateClient(client, b));
  EXPECT_FALSE(f.cluster.migrateClient(client, b));  // already migrating
}

TEST(ClusterTest, DisconnectRemovesEverywhere) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  const ClientId c = f.cluster.connectClientTo(a, std::make_unique<BotProvider>());
  f.cluster.run(SimDuration::milliseconds(500));
  const EntityId avatar = f.cluster.client(c).avatar();
  ASSERT_TRUE(f.cluster.server(b).world().find(avatar).has_value());  // shadow exists

  f.cluster.disconnectClient(c);
  f.cluster.run(SimDuration::milliseconds(500));
  EXPECT_FALSE(f.cluster.server(a).world().find(avatar).has_value());
  EXPECT_FALSE(f.cluster.server(b).world().find(avatar).has_value());  // shadow retired
  EXPECT_EQ(f.cluster.clientCount(), 0u);
}

TEST(ClusterTest, ConservationAuditCountsDuplicateAndMissingAvatars) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  const ClientId onA = f.cluster.connectClientTo(a, std::make_unique<BotProvider>());
  const ClientId onB = f.cluster.connectClientTo(b, std::make_unique<BotProvider>());
  f.cluster.run(SimDuration::seconds(1));
  Cluster::ConservationAudit audit = f.cluster.auditConservation();
  EXPECT_EQ(audit.duplicateAvatars, 0u);
  EXPECT_EQ(audit.missingAvatars, 0u);

  // b takes ownership of its shadow of a's avatar: two active copies.
  EntityRecord copy;
  copy.id = f.cluster.client(onA).avatar();
  copy.zone = f.zone;
  copy.owner = b;
  copy.client = onA;
  f.cluster.server(b).world().upsert(copy);
  audit = f.cluster.auditConservation();
  EXPECT_EQ(audit.duplicateAvatars, 1u);
  EXPECT_EQ(audit.missingAvatars, 0u);

  // b drops its own avatar: only a's shadow of it is left.
  ASSERT_TRUE(f.cluster.server(b).world().remove(f.cluster.client(onB).avatar()));
  audit = f.cluster.auditConservation();
  EXPECT_EQ(audit.duplicateAvatars, 1u);
  EXPECT_EQ(audit.missingAvatars, 1u);
}

TEST(ClusterTest, RemoveServerRequiresNoUsers) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  const ClientId c = f.cluster.connectClientTo(b, std::make_unique<BotProvider>());
  EXPECT_THROW(f.cluster.removeServer(b), std::logic_error);
  f.cluster.migrateClient(c, a);
  f.cluster.run(SimDuration::seconds(1));
  EXPECT_NO_THROW(f.cluster.removeServer(b));
  EXPECT_FALSE(f.cluster.hasServer(b));
  EXPECT_EQ(f.cluster.zones().replicaCount(f.zone), 1u);
}

TEST(ClusterTest, RemoveServerHandsNpcsToSurvivor) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  f.cluster.spawnNpcs(f.zone, 10);  // 5 on each replica
  EXPECT_EQ(f.cluster.server(a).world().npcCount(), 5u);
  f.cluster.removeServer(b);
  // All 10 NPCs now owned by a.
  EXPECT_EQ(f.cluster.server(a).world().countIf([&](ConstEntityRef e) {
              return e.isNpc() && e.owner == a;
            }),
            10u);
}

TEST(ClusterTest, NpcsSpawnDistributed) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  const ServerId b = f.cluster.addServer(f.zone);
  const ServerId c = f.cluster.addServer(f.zone);
  f.cluster.spawnNpcs(f.zone, 9);
  EXPECT_EQ(f.cluster.server(a).world().countIf(
                [&](ConstEntityRef e) { return e.isNpc() && e.owner == a; }),
            3u);
  EXPECT_EQ(f.cluster.server(b).world().countIf(
                [&](ConstEntityRef e) { return e.isNpc() && e.owner == b; }),
            3u);
  EXPECT_EQ(f.cluster.server(c).world().countIf(
                [&](ConstEntityRef e) { return e.isNpc() && e.owner == c; }),
            3u);
}

TEST(ClusterTest, InstancingCreatesIndependentCopy) {
  Fixture f;
  f.cluster.addServer(f.zone);
  const ZoneId inst = f.cluster.createInstance(f.zone);
  EXPECT_NE(inst, f.zone);
  EXPECT_EQ(f.cluster.zones().zone(inst).instanceOf, f.zone);
  const ServerId s = f.cluster.addServer(inst);
  f.cluster.connectClient(inst, std::make_unique<BotProvider>());
  f.cluster.run(SimDuration::milliseconds(500));
  EXPECT_EQ(f.cluster.server(s).connectedUsers(), 1u);
  EXPECT_EQ(f.cluster.zoneUserCount(f.zone), 0u);
}

TEST(ClusterTest, MonitoringSnapshotFields) {
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  for (int i = 0; i < 20; ++i) {
    f.cluster.connectClient(f.zone, std::make_unique<BotProvider>());
  }
  f.cluster.run(SimDuration::seconds(2));
  const MonitoringSnapshot snapshot = f.cluster.server(a).monitoring();
  EXPECT_EQ(snapshot.server, a);
  EXPECT_EQ(snapshot.zone, f.zone);
  EXPECT_EQ(snapshot.activeUsers, 20u);
  EXPECT_EQ(snapshot.totalAvatars, 20u);
  EXPECT_GT(snapshot.tickAvgMs, 0.0);
  EXPECT_GE(snapshot.tickMaxMs, snapshot.tickAvgMs);
  EXPECT_GT(snapshot.cpuLoad, 0.0);
  EXPECT_LT(snapshot.cpuLoad, 1.0);
  EXPECT_GT(snapshot.ticksObserved, 40u);
  EXPECT_GT(snapshot.phaseAvgMicros[static_cast<std::size_t>(Phase::kAoi)], 0.0);
}

TEST(ClusterTest, OverloadStretchesTicks) {
  // One reference-speed server with far more users than n_max(1): each tick
  // costs more than the 40 ms interval, so fewer ticks fit per second and
  // the CPU account saturates.
  Fixture f;
  const ServerId a = f.cluster.addServer(f.zone);
  for (int i = 0; i < 500; ++i) {
    f.cluster.connectClientTo(a, std::make_unique<BotProvider>());
  }
  f.cluster.run(SimDuration::seconds(3));
  const MonitoringSnapshot snapshot = f.cluster.server(a).monitoring();
  EXPECT_GT(snapshot.tickAvgMs, 40.0);
  EXPECT_NEAR(f.cluster.server(a).cpuAccount().load(), 1.0, 1e-9);
  // Tick rate degraded below 25 Hz.
  EXPECT_LT(f.cluster.server(a).tickCount(), 70u);
}

TEST(ClusterTest, FasterServerHasShorterTicks) {
  Fixture slow(7), fast(7);
  const ServerId sSlow = slow.cluster.addServer(slow.zone, 1.0);
  const ServerId sFast = fast.cluster.addServer(fast.zone, 2.0);
  for (int i = 0; i < 100; ++i) {
    slow.cluster.connectClient(slow.zone, std::make_unique<BotProvider>());
    fast.cluster.connectClient(fast.zone, std::make_unique<BotProvider>());
  }
  slow.cluster.run(SimDuration::seconds(2));
  fast.cluster.run(SimDuration::seconds(2));
  const double slowTick = slow.cluster.server(sSlow).monitoring().tickAvgMs;
  const double fastTick = fast.cluster.server(sFast).monitoring().tickAvgMs;
  EXPECT_GT(slowTick, 0.0);
  EXPECT_NEAR(fastTick, slowTick / 2.0, slowTick * 0.2);
}

TEST(ClusterTest, RunsAreDeterministicPerSeed) {
  auto runOnce = [](std::uint64_t seed) {
    Fixture f(seed);
    const ServerId a = f.cluster.addServer(f.zone);
    f.cluster.addServer(f.zone);
    std::vector<ClientId> clients;
    for (int i = 0; i < 30; ++i) {
      clients.push_back(f.cluster.connectClient(f.zone, std::make_unique<BotProvider>()));
    }
    f.cluster.run(SimDuration::seconds(2));
    const MonitoringSnapshot snapshot = f.cluster.server(a).monitoring();
    return std::tuple{snapshot.tickAvgMs, snapshot.totalAvatars,
                      f.cluster.client(clients[0]).updatesReceived(),
                      f.cluster.network().totals().bytes};
  };
  const auto run1 = runOnce(123);
  const auto run2 = runOnce(123);
  const auto run3 = runOnce(456);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(std::get<3>(run1), std::get<3>(run3));
}

TEST(ClusterTest, LateJoiningReplicaLearnsExistingEntities) {
  Fixture f;
  f.cluster.addServer(f.zone);
  for (int i = 0; i < 10; ++i) {
    f.cluster.connectClient(f.zone, std::make_unique<BotProvider>());
  }
  f.cluster.run(SimDuration::seconds(1));
  const ServerId late = f.cluster.addServer(f.zone);
  f.cluster.run(SimDuration::milliseconds(300));
  // The late replica received shadows for all 10 avatars via replica sync.
  EXPECT_EQ(f.cluster.server(late).world().avatarCount(), 10u);
  EXPECT_EQ(f.cluster.server(late).connectedUsers(), 0u);
}

}  // namespace
}  // namespace roia::rtf
