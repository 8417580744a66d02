#include "game/bots.hpp"

#include <algorithm>

#include "game/state_update.hpp"

namespace roia::game {

std::vector<std::uint8_t> BotProvider::nextCommands(SimTime now, Rng& rng) {
  (void)now;
  CommandBatch batch;

  // Move every tick; change heading occasionally.
  if (!hasHeading_ || rng.chance(config_.turnProbability)) {
    heading_ = Vec2{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}.normalized();
    if (heading_.lengthSq() == 0.0) heading_ = {1.0, 0.0};
    hasHeading_ = true;
  }
  batch.move = MoveCommand{heading_};

  // Attack probability grows with the number of potential targets.
  const double p = std::min(config_.attackProbabilityCap,
                            config_.attackBaseProbability +
                                config_.attackPerVisibleProbability *
                                    static_cast<double>(seenEntities_.size()));
  if (!seenEntities_.empty() && rng.chance(p)) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniformInt(0, seenEntities_.size() - 1));
    batch.attack = AttackCommand{seenEntities_[pick], heading_};
    ++attacksIssued_;
  }

  ++commandsIssued_;
  return encodeCommands(batch);
}

void BotProvider::onStateUpdate(std::span<const std::uint8_t> update) {
  // Bots act on ids only: read them straight out of the update.
  decodeVisibleIds(update, seenEntities_);
}

void BotProvider::onStateView(std::uint64_t serverTick, ClientId self,
                              std::span<const rtf::EntitySnapshot> view) {
  (void)serverTick;
  // Same seen-list as the full codec: the view carries the bot's own avatar
  // too (it is the baseline for the client's own state), which the full
  // update reports as `self`, not as a visible entity — filter it out. The
  // view ascends by id, matching the slot-ordered full list.
  seenEntities_.clear();
  for (const rtf::EntitySnapshot& snapshot : view) {
    if (snapshot.client == self) continue;
    seenEntities_.push_back(snapshot.id);
  }
}

}  // namespace roia::game
