#include "game/fps_app.hpp"

#include <algorithm>
#include <span>

#include "common/log.hpp"
#include "game/player_stats.hpp"
#include "game/state_update.hpp"
#include "serialize/byte_buffer.hpp"
#include "serialize/crc32.hpp"

namespace roia::game {

std::unique_ptr<InterestPolicy> makeInterestPolicy(const FpsConfig& config) {
  if (config.interestPolicy == InterestPolicyKind::kGrid) {
    const double cell = config.gridCellSize > 0.0 ? config.gridCellSize : config.aoiRadius * 0.5;
    return std::make_unique<GridInterest>(cell, config.interestCosts);
  }
  return std::make_unique<EuclideanInterest>(config.interestCosts);
}

void applyGridInterestProfile(FpsConfig& config) {
  config.interestPolicy = InterestPolicyKind::kGrid;
  // Slot-handle gather over contiguous SoA columns instead of hash find +
  // fat-record walk per visible id (see header).
  config.suGatherPerEntityCost = 0.12;
}

FpsApplication::FpsApplication(FpsConfig config)
    : config_(config), interest_(makeInterestPolicy(config)) {}

void FpsApplication::setInterestPolicy(std::unique_ptr<InterestPolicy> policy) {
  if (policy != nullptr) interest_ = std::move(policy);
}

void FpsApplication::onTickBegin(rtf::World& world, rtf::CostMeter& meter) {
  rtf::PhaseScope scope(meter, rtf::Phase::kAoi);
  interest_->prepare(world, meter);
}

void FpsApplication::applyUserInput(rtf::World& world, rtf::EntityRef avatar,
                                    std::span<const std::uint8_t> commands,
                                    rtf::CostMeter& meter, rtf::ForwardSink& forward, Rng& rng) {
  const CommandBatch batch = decodeCommands(commands);
  if (batch.move) {
    applyMove(avatar, *batch.move, meter);
  }
  if (batch.attack) {
    applyAttack(world, avatar, *batch.attack, meter, forward, rng);
  }
}

void FpsApplication::applyMove(rtf::EntityRef avatar, const MoveCommand& move,
                               rtf::CostMeter& meter) {
  meter.charge(config_.moveApplyCost);
  const Vec2 dir = move.direction.normalized();
  avatar.velocity = dir * config_.moveSpeed;
  avatar.position += avatar.velocity * config_.tickSeconds;
  clampToArena(avatar.position);
}

// roia-hot
void FpsApplication::applyAttack(rtf::World& world, rtf::EntityRef attacker,
                                 const AttackCommand& attack, rtf::CostMeter& meter,
                                 rtf::ForwardSink& forward, Rng& rng) {
  const double rangeSq = config_.attackRange * config_.attackRange;
  std::size_t hitSlot = rtf::World::npos;
  if (config_.interestPolicy == InterestPolicyKind::kGrid) {
    // Grid profile: the spatial index answers "who could this attack hit"
    // with the occupancy of the cells overlapping the attack circle, so
    // validation cost is local instead of O(avatars).
    const std::size_t candidates =
        interest_->scanCandidates(world, attacker.position, config_.attackRange);
    meter.charge(config_.attackValidateBaseCost +
                 config_.attackScanPerEntityCost * static_cast<double>(candidates));
    const std::size_t s = world.slotOf(attack.target);
    if (s != rtf::World::npos && world.kinds()[s] == rtf::EntityKind::kAvatar &&
        attack.target != attacker.id &&
        world.positions()[s].distanceSq(attacker.position) <= rangeSq) {
      hitSlot = s;
    }
  } else {
    // Euclidean baseline: hit resolution iterates through all users to
    // check who is hit by the attack (the paper's stated reason t_ua grows
    // super-linearly). The scan is genuinely performed, not just charged.
    const std::span<const std::uint64_t> ids = world.ids();
    const std::span<const rtf::EntityKind> kinds = world.kinds();
    const std::span<const Vec2> positions = world.positions();
    std::size_t scanned = 0;
    const std::size_t n = ids.size();
    for (std::size_t s = 0; s < n; ++s) {
      if (kinds[s] != rtf::EntityKind::kAvatar || ids[s] == attacker.id.value) continue;
      ++scanned;
      if (ids[s] == attack.target.value &&
          positions[s].distanceSq(attacker.position) <= rangeSq) {
        hitSlot = s;
      }
    }
    meter.charge(config_.attackValidateBaseCost +
                 config_.attackScanPerEntityCost * static_cast<double>(scanned));
  }
  if (hitSlot == rtf::World::npos) return;

  rtf::EntityRef hit = world.refAt(hitSlot);
  if (hit.owner == attacker.owner) {
    // Target is active on this server: apply the hit locally.
    meter.charge(config_.applyHitCost);
    if (applyDamage(hit, config_.attackDamage, &rng, meter)) {
      creditKill(attacker, meter);
    }
    hit.version += 1;
  } else {
    // Target is a shadow entity: forward the interaction to its server.
    forward.forwardInteraction(
        hit.id, attacker.id,
        encodeInteraction(Interaction{Interaction::Kind::kAttack, config_.attackDamage}));
  }
}

void FpsApplication::applyForwardedInteraction(rtf::World& world, rtf::EntityRef target,
                                               EntityId source,
                                               std::span<const std::uint8_t> payload,
                                               rtf::CostMeter& meter,
                                               rtf::ForwardSink& forward) {
  const Interaction interaction = decodeInteraction(payload);
  meter.charge(config_.fwdApplyCost);
  switch (interaction.kind) {
    case Interaction::Kind::kAttack: {
      const bool killed = applyDamage(target, interaction.damage, nullptr, meter);
      target.version += 1;
      if (killed) {
        // Credit the attacker on its own responsible server: if the
        // attacker is active here, book it directly; otherwise forward a
        // kill-credit interaction back.
        if (auto attacker = world.find(source)) {
          if (attacker->owner == target.owner) {
            creditKill(*attacker, meter);
          } else {
            forward.forwardInteraction(
                source, target.id,
                encodeInteraction(Interaction{Interaction::Kind::kKillCredit, 0.0}));
          }
        }
      }
      break;
    }
    case Interaction::Kind::kKillCredit:
      creditKill(target, meter);
      break;
  }
}

bool FpsApplication::applyDamage(rtf::EntityRef target, double damage, Rng* rng,
                                 rtf::CostMeter& meter) {
  target.health -= damage;
  if (target.health > 0.0) return false;
  target.health = config_.respawnHealth;
  if (rng != nullptr) {
    // Respawn at a random arena position to break up kill clusters.
    target.position = {rng->uniform(config_.arenaOrigin.x,
                                    config_.arenaOrigin.x + config_.arenaExtent.x),
                       rng->uniform(config_.arenaOrigin.y,
                                    config_.arenaOrigin.y + config_.arenaExtent.y)};
  }
  meter.charge(config_.statsUpdateCost);
  PlayerStats stats = decodeStats(target.appData);
  ++stats.deaths;
  target.appData = encodeStats(stats);
  return true;
}

void FpsApplication::creditKill(rtf::EntityRef attacker, rtf::CostMeter& meter) {
  meter.charge(config_.statsUpdateCost);
  PlayerStats stats = decodeStats(attacker.appData);
  ++stats.kills;
  stats.score += config_.killScore;
  attacker.appData = encodeStats(stats);
  attacker.version += 1;  // propagate the scoreboard change to shadows
}

std::vector<std::uint8_t> FpsApplication::exportUserState(rtf::ConstEntityRef avatar,
                                                          rtf::CostMeter& meter) {
  // The entity's appData already travels inside the migration snapshot; the
  // application attaches an integrity token so the target can verify the
  // blob survived the hand-over intact.
  meter.charge(config_.statsUpdateCost);
  ser::ByteWriter writer(4);
  writer.writeU32(ser::crc32(avatar.appData));
  return std::move(writer).take();
}

void FpsApplication::importUserState(rtf::EntityRef avatar, std::span<const std::uint8_t> state,
                                     rtf::CostMeter& meter) {
  meter.charge(config_.statsUpdateCost);
  if (state.size() != 4) return;  // older peer without the token
  ser::ByteReader reader(state);
  const std::uint32_t expected = reader.readU32();
  if (ser::crc32(avatar.appData) != expected) {
    logWarn("game.fps", "migration state checksum mismatch for entity ", avatar.id.value);
  }
}

void FpsApplication::onShadowUpdated(rtf::World& world, rtf::EntityRef shadow,
                                     rtf::CostMeter& meter) {
  // Interest-management upkeep: the spatial index bucket of the shadow moves
  // and density-proportional subscriber lists are touched. Under Euclidean
  // every avatar is a candidate (the knob behind the replication overhead);
  // under the grid only the occupancy around the shadow is.
  meter.charge(config_.shadowIndexBaseCost +
               config_.shadowIndexPerEntityCost *
                   static_cast<double>(
                       interest_->scanCandidates(world, shadow.position, config_.aoiRadius)));
}

void FpsApplication::updateNpc(rtf::World& world, rtf::EntityRef npc, rtf::CostMeter& meter,
                               Rng& rng) {
  // NPC AI scans users for a target, then wanders. The candidate count
  // comes from the IM algorithm: all avatars under Euclidean, the local
  // occupancy under the grid.
  meter.charge(config_.npcBaseCost +
               config_.npcScanPerEntityCost *
                   static_cast<double>(
                       interest_->scanCandidates(world, npc.position, config_.aoiRadius)));
  if (rng.chance(0.15)) {
    npc.velocity = Vec2{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}.normalized() *
                   (config_.moveSpeed * 0.5);
  }
  npc.position += npc.velocity * config_.tickSeconds;
  clampToArena(npc.position);
}

void FpsApplication::computeAreaOfInterest(const rtf::World& world, rtf::ConstEntityRef viewer,
                                           rtf::CostMeter& meter,
                                           std::vector<std::uint32_t>& out) {
  // Delegated to the configured interest-management algorithm; the default
  // EuclideanInterest is the paper's Euclidean Distance Algorithm.
  interest_->query(world, viewer, config_.aoiRadius, meter, out);
}

// roia-hot
void FpsApplication::buildStateUpdate(const rtf::World& world, rtf::ConstEntityRef viewer,
                                      std::span<const std::uint32_t> visible,
                                      rtf::CostMeter& meter, std::vector<std::uint8_t>& out) {
  StateUpdatePayload& payload = payloadScratch_;
  payload.visible.clear();
  payload.self = VisibleEntity{viewer.id, static_cast<float>(viewer.position.x),
                               static_cast<float>(viewer.position.y),
                               static_cast<float>(viewer.health)};
  payload.visible.reserve(visible.size());
  // Slot handles gather straight from the SoA columns: no per-visible-id
  // hash lookup (slots were resolved by the AOI query this same tick).
  const std::span<const std::uint64_t> ids = world.ids();
  const std::span<const Vec2> positions = world.positions();
  const std::span<const double> healths = world.healths();
  double cost = 0.0;
  for (const std::uint32_t s : visible) {
    cost += config_.suGatherPerEntityCost;
    payload.visible.push_back(VisibleEntity{EntityId{ids[s]}, static_cast<float>(positions[s].x),
                                            static_cast<float>(positions[s].y),
                                            static_cast<float>(healths[s])});
  }
  meter.charge(cost);
  encodeStateUpdate(payload, out);
}

void FpsApplication::clampToArena(Vec2& position) const {
  position.x = std::clamp(position.x, config_.arenaOrigin.x,
                          config_.arenaOrigin.x + config_.arenaExtent.x);
  position.y = std::clamp(position.y, config_.arenaOrigin.y,
                          config_.arenaOrigin.y + config_.arenaExtent.y);
}

}  // namespace roia::game
