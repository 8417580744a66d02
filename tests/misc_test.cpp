// Coverage for the remaining small components: the zone directory and
// client-endpoint lifecycle edge cases.
#include <gtest/gtest.h>

#include <memory>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "rtf/cluster.hpp"
#include "rtf/zone.hpp"

namespace roia {
namespace {

// ---------- zone directory ----------

TEST(ZoneDirectoryTest, ZonesAndReplicas) {
  rtf::ZoneDirectory directory;
  rtf::ZoneDescriptor zone;
  zone.id = ZoneId{1};
  zone.name = "plains";
  zone.origin = {0, 0};
  zone.extent = {100, 50};
  directory.addZone(zone);

  EXPECT_TRUE(directory.hasZone(ZoneId{1}));
  EXPECT_FALSE(directory.hasZone(ZoneId{2}));
  EXPECT_EQ(directory.zone(ZoneId{1}).name, "plains");

  directory.addReplica(ZoneId{1}, ServerId{10});
  directory.addReplica(ZoneId{1}, ServerId{11});
  EXPECT_EQ(directory.replicaCount(ZoneId{1}), 2u);
  EXPECT_EQ(directory.replicas(ZoneId{1}),
            (std::vector<ServerId>{ServerId{10}, ServerId{11}}));

  directory.removeReplica(ZoneId{1}, ServerId{10});
  EXPECT_EQ(directory.replicas(ZoneId{1}), (std::vector<ServerId>{ServerId{11}}));
  directory.removeReplica(ZoneId{9}, ServerId{1});  // unknown zone: no-op
  EXPECT_EQ(directory.replicaCount(ZoneId{9}), 0u);
  EXPECT_TRUE(directory.replicas(ZoneId{9}).empty());
}

TEST(ZoneDirectoryTest, ContainsUsesHalfOpenBounds) {
  rtf::ZoneDescriptor zone;
  zone.origin = {10, 10};
  zone.extent = {90, 40};
  EXPECT_TRUE(zone.contains({10, 10}));     // inclusive lower edge
  EXPECT_TRUE(zone.contains({99.9, 49.9}));
  EXPECT_FALSE(zone.contains({100, 30}));   // exclusive upper edge
  EXPECT_FALSE(zone.contains({50, 50}));
  EXPECT_FALSE(zone.contains({9.9, 30}));
}

TEST(ZoneDirectoryTest, ZoneIdsListsEverything) {
  rtf::ZoneDirectory directory;
  for (std::uint64_t id : {3u, 1u, 2u}) {
    rtf::ZoneDescriptor zone;
    zone.id = ZoneId{id};
    directory.addZone(zone);
  }
  auto ids = directory.zoneIds();
  EXPECT_EQ(ids.size(), 3u);
}

// ---------- client endpoint lifecycle ----------

TEST(ClientEndpointTest, StopIsIdempotentAndFinal) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  const ClientId c = cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  cluster.run(SimDuration::seconds(1));
  const std::uint64_t updates = cluster.client(c).updatesReceived();
  EXPECT_GT(updates, 0u);

  cluster.client(c).stop();
  cluster.client(c).stop();  // idempotent
  cluster.run(SimDuration::seconds(1));
  // No further inputs sent nor updates received after stop.
  EXPECT_EQ(cluster.client(c).updatesReceived(), updates);
  EXPECT_FALSE(cluster.client(c).active());
}

TEST(ClientEndpointTest, ReconnectTargetsNewServerNode) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  const ClientId c = cluster.connectClientTo(a, std::make_unique<game::BotProvider>());
  EXPECT_EQ(cluster.client(c).server(), a);
  cluster.migrateClient(c, b);
  cluster.run(SimDuration::seconds(1));
  EXPECT_EQ(cluster.client(c).server(), b);
  EXPECT_EQ(cluster.client(c).avatar(), cluster.client(c).avatar());
}

TEST(ClientEndpointTest, InputsArriveAtConfiguredRate) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  const ServerId s = cluster.addServer(zone);
  cluster.connectClientTo(s, std::make_unique<game::BotProvider>());
  cluster.run(SimDuration::seconds(2));
  // 25 Hz input rate: roughly 50 batches applied in 2 s.
  const rtf::MonitoringSnapshot snapshot = cluster.server(s).monitoring();
  EXPECT_GT(snapshot.ticksObserved, 45u);
}

}  // namespace
}  // namespace roia
