// Robustness and failure-injection tests: malformed wire input must raise
// DecodeError (never crash or smear), stressed components must match
// reference models, and the cluster must tolerate abrupt client/server
// disappearance mid-protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "game/bots.hpp"
#include "game/commands.hpp"
#include "game/fps_app.hpp"
#include "game/player_stats.hpp"
#include "game/state_update.hpp"
#include "rtf/cluster.hpp"
#include "serialize/message.hpp"
#include "sim/event_queue.hpp"
#include "wire_samples.hpp"

namespace roia {
namespace {

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t maxLen) {
  std::vector<std::uint8_t> bytes(rng.uniformInt(0, maxLen));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
  return bytes;
}

// ---------- decoder fuzzing: random garbage must throw, never crash ----------

TEST(FuzzTest, FrameDecoderRejectsGarbage) {
  Rng rng(0xF00D);
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = randomBytes(rng, 64);
    try {
      (void)ser::decodeFrame(bytes);
      ++accepted;  // astronomically unlikely (valid magic + CRC)
    } catch (const ser::DecodeError&) {
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzTest, BitflippedFramesNeverDecodeSilently) {
  // Start from a VALID frame and flip one bit anywhere: either the CRC
  // catches it or (for flips inside the trailing CRC field itself) the
  // mismatch is caught — decode must never succeed.
  ser::Frame frame;
  frame.type = ser::MessageType::kClientInput;
  frame.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto good = ser::encodeFrame(frame);
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = good;
      bad[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_THROW((void)ser::decodeFrame(bad), ser::DecodeError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(FuzzTest, MessageDecodersRejectGarbagePayloads) {
  // Every frame decoder the server and the monitoring collector run, each
  // followed by its encoder on whatever it accepted (wire_samples.hpp).
  Rng rng(0xBEEF);
  for (int i = 0; i < 2000; ++i) {
    ser::Frame frame;
    frame.payload = randomBytes(rng, 48);
    for (const wire_samples::FrameSample& row : wire_samples::kFrameSamples) {
      frame.type = row.type;
      // Each either throws or produces a value without UB; both are
      // acceptable — ASAN/UBSAN-clean execution is the real assertion.
      try {
        (void)row.reencode(frame);
      } catch (const ser::DecodeError&) {
      }
    }
  }
  SUCCEED();
}

TEST(FuzzTest, GameCodecsRejectGarbage) {
  // The bots' ids decoder must reject exactly what the full decoder
  // rejects, and read the same ids from everything else.
  std::vector<EntityId> ids;
  auto idsDecoderAgrees = [&ids](std::span<const std::uint8_t> bytes) {
    std::optional<game::StateUpdatePayload> full;
    try {
      full = game::decodeStateUpdate(bytes);
    } catch (const ser::DecodeError&) {
    }
    bool idsRejected = false;
    try {
      game::decodeVisibleIds(bytes, ids);
    } catch (const ser::DecodeError&) {
      idsRejected = true;
    }
    if (idsRejected || !full) return idsRejected == !full.has_value();
    std::vector<EntityId> expected;
    for (const game::VisibleEntity& e : full->visible) expected.push_back(e.id);
    return ids == expected;
  };
  // Every truncation of a real update, so rows and counts are cut at each
  // byte, not only random bytes that rarely get past the first row.
  std::vector<std::uint8_t> golden;
  game::encodeStateUpdate(wire_samples::stateUpdate(), golden);
  for (std::size_t n = 0; n <= golden.size(); ++n) {
    ASSERT_TRUE(idsDecoderAgrees(std::span<const std::uint8_t>(golden).first(n))) << "prefix " << n;
  }

  Rng rng(0xCAFE);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = randomBytes(rng, 32);
    try {
      (void)game::decodeCommands(bytes);
    } catch (const ser::DecodeError&) {
    }
    ASSERT_TRUE(idsDecoderAgrees(bytes)) << "input " << i;
    try {
      (void)game::decodeStats(bytes);
    } catch (const ser::DecodeError&) {
    }
  }
  SUCCEED();
}

// ---------- event queue vs. reference model ----------

TEST(StressTest, EventQueueMatchesReferenceModel) {
  Rng rng(0x5EED);
  sim::EventQueue queue;
  // Reference: multimap of (time, seq) -> alive flag.
  struct Ref {
    SimTime at;
    std::uint64_t tag{0};
    bool alive{true};
  };
  std::map<std::uint64_t, Ref> reference;  // seq -> record
  std::vector<sim::EventHandle> handles;
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;
  std::uint64_t nextTag = 1;

  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.nextDouble();
    if (dice < 0.55 || queue.empty()) {
      const SimTime at{static_cast<std::int64_t>(rng.uniformInt(0, 1000))};
      const std::uint64_t tag = nextTag++;
      const auto handle = queue.schedule(at, [tag, &fired, at] {
        fired.emplace_back(at.micros, tag);
      });
      handles.push_back(handle);
      reference.emplace(handle.seq, Ref{at, tag, true});
    } else if (dice < 0.7 && !handles.empty()) {
      const std::size_t pick = rng.uniformInt(0, handles.size() - 1);
      queue.cancel(handles[pick]);
      auto it = reference.find(handles[pick].seq);
      if (it != reference.end()) it->second.alive = false;
    } else {
      SimTime at;
      const std::size_t before = fired.size();
      queue.pop(at)();
      ASSERT_EQ(fired.size(), before + 1);
      // The fired event must be the earliest alive (time, seq) in reference.
      // The map iterates in ascending seq order, so strict < on time picks
      // the lowest seq among equal times automatically.
      std::optional<std::uint64_t> bestSeq;
      SimTime bestAt = SimTime::max();
      for (const auto& [seq, ref] : reference) {
        if (!ref.alive) continue;
        if (!bestSeq || ref.at < bestAt) {
          bestAt = ref.at;
          bestSeq = seq;
        }
      }
      ASSERT_TRUE(bestSeq.has_value());
      ASSERT_EQ(fired.back().first, bestAt.micros);
      ASSERT_EQ(fired.back().second, reference.at(*bestSeq).tag);
      reference.erase(*bestSeq);
    }
  }
}

// ---------- failure injection in the cluster ----------

TEST(FailureInjectionTest, ClientVanishesMidSession) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  cluster.addServer(zone);
  std::vector<ClientId> clients;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(cluster.connectClient(zone, std::make_unique<game::BotProvider>()));
  }
  cluster.run(SimDuration::seconds(1));
  // Drop half the clients abruptly; servers keep ticking and the survivors
  // keep getting updates.
  for (int i = 0; i < 10; ++i) cluster.disconnectClient(clients[static_cast<std::size_t>(i)]);
  cluster.run(SimDuration::seconds(1));
  EXPECT_EQ(cluster.zoneUserCount(zone), 10u);
  const std::uint64_t before = cluster.client(clients[15]).updatesReceived();
  cluster.run(SimDuration::seconds(1));
  EXPECT_GT(cluster.client(clients[15]).updatesReceived(), before);
}

TEST(FailureInjectionTest, MigrationTargetVanishesBeforeHandover) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  const ServerId c = cluster.addServer(zone);
  const ClientId client = cluster.connectClientTo(a, std::make_unique<game::BotProvider>());
  cluster.run(SimDuration::milliseconds(500));

  // Request migration to b, then remove b before its next tick can adopt.
  ASSERT_TRUE(cluster.migrateClient(client, b));
  cluster.removeServer(b);
  cluster.run(SimDuration::seconds(2));

  // The user is not lost: either still on a (hand-over never completed) or
  // it reached b before shutdown — but b is gone, so it must be on a.
  // The session must keep functioning either way.
  EXPECT_EQ(cluster.zoneUserCount(zone), 1u);
  EXPECT_TRUE(cluster.hasClient(client));
  (void)c;
}

TEST(FailureInjectionTest, DisconnectDuringMigrationIsClean) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  const ClientId client = cluster.connectClientTo(a, std::make_unique<game::BotProvider>());
  cluster.run(SimDuration::milliseconds(500));
  ASSERT_TRUE(cluster.migrateClient(client, b));
  cluster.disconnectClient(client);  // user quits mid-handover
  cluster.run(SimDuration::seconds(2));
  EXPECT_EQ(cluster.clientCount(), 0u);
  // No zombie avatars on either server once syncs settle.
  std::size_t avatars = cluster.server(a).world().avatarCount() +
                        cluster.server(b).world().avatarCount();
  EXPECT_LE(avatars, 2u);  // transient shadow may linger one sync round
}

TEST(FailureInjectionTest, RapidChurnKeepsInvariants) {
  game::FpsApplication app;
  rtf::Cluster cluster(app, rtf::ClusterConfig{});
  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  cluster.addServer(zone);
  Rng rng(77);
  std::vector<ClientId> clients;
  for (int round = 0; round < 40; ++round) {
    // Join a few...
    for (int j = 0; j < 3; ++j) {
      clients.push_back(cluster.connectClient(zone, std::make_unique<game::BotProvider>()));
    }
    // ...kick a random one...
    if (!clients.empty() && rng.chance(0.6)) {
      const std::size_t pick = rng.uniformInt(0, clients.size() - 1);
      cluster.disconnectClient(clients[pick]);
      clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // ...and bounce one between the replicas.
    if (!clients.empty()) {
      const std::size_t pick = rng.uniformInt(0, clients.size() - 1);
      const std::vector<ServerId> servers = cluster.serverIds();
      cluster.migrateClient(clients[pick], servers[round % servers.size()]);
    }
    cluster.run(SimDuration::milliseconds(120));
  }
  cluster.run(SimDuration::seconds(1));
  EXPECT_EQ(cluster.zoneUserCount(zone), clients.size());
  for (const ClientId c : clients) {
    EXPECT_TRUE(cluster.hasClient(c));
  }
}

}  // namespace
}  // namespace roia
