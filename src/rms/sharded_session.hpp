// Sharded-world session runner: a zone grid hosted by per-zone server
// groups, bots roaming the whole world (crossing borders triggers the
// deterministic zone-handoff protocol), and steady-state tick measurement
// per zone. This is the harness behind the ext_zone_sharding sweep and the
// chaos handoff tests: it also audits entity conservation — every client
// owned by exactly one live avatar, no duplicates, no losses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "net/fault.hpp"
#include "obs/telemetry.hpp"
#include "rtf/server.hpp"

namespace roia::rms {

struct ShardedSessionConfig {
  /// Application template. arenaOrigin/arenaExtent are overwritten with the
  /// full multi-zone world rectangle so bots roam across zone borders.
  game::FpsConfig fps{};
  rtf::ServerConfig server{};
  game::BotConfig bots{};

  std::size_t gridCols{2};
  std::size_t gridRows{1};
  Vec2 worldOrigin{0.0, 0.0};
  Vec2 zoneExtent{1000.0, 1000.0};
  std::size_t replicasPerZone{2};
  /// Cross-zone AOI band; 0 disables border shadows.
  double borderWidth{60.0};

  std::size_t users{100};
  std::size_t npcsPerZone{0};
  SimDuration warmup{SimDuration::seconds(5)};
  /// Measured steady-state phase, after warmup.
  SimDuration duration{SimDuration::seconds(20)};
  std::uint64_t seed{42};

  /// Optional link faults for chaos runs (loss/dup/jitter on every link).
  std::optional<net::FaultParams> linkFaults{};
  obs::Telemetry* telemetry{nullptr};
};

struct ShardedSessionSummary {
  std::size_t zones{0};
  std::size_t servers{0};
  std::size_t users{0};

  // Steady-state tick stats (sampled per monitoring window after warmup),
  // worst zone / worst replica.
  double steadyAvgTickMs{0.0};
  double steadyP95TickMs{0.0};
  double steadyMaxTickMs{0.0};

  std::uint64_t handoffsInitiated{0};
  std::uint64_t handoffsReceived{0};
  std::uint64_t borderShadows{0};

  // Entity conservation at session end: every connected client must own
  // exactly one active avatar across all servers
  // (rtf::Cluster::auditConservation).
  std::size_t duplicateAvatars{0};
  std::size_t missingAvatars{0};

  [[nodiscard]] bool conserved() const {
    return duplicateAvatars == 0 && missingAvatars == 0;
  }
};

/// Runs a sharded session: grid creation, per-zone replication, bot churnless
/// population, warmup, measured steady phase, and the conservation audit.
[[nodiscard]] ShardedSessionSummary runShardedSession(const ShardedSessionConfig& config);

}  // namespace roia::rms
