// Randomly interacting computer-controlled bots, the workload generator of
// the paper's experiments ("in order to simulate an average workload, we use
// randomly interacting, computer-controlled bots").
//
// Each bot always moves (with occasional direction changes) and attacks a
// randomly chosen visible entity with a probability that grows with the
// number of visible targets — reproducing the paper's observation that the
// attack-command frequency increases almost linearly with the user number.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "game/commands.hpp"
#include "rtf/client.hpp"

namespace roia::game {

struct BotConfig {
  double turnProbability{0.12};
  double attackBaseProbability{0.08};
  /// Added attack probability per visible entity.
  double attackPerVisibleProbability{0.010};
  double attackProbabilityCap{0.85};
};

class BotProvider final : public rtf::InputProvider {
 public:
  explicit BotProvider(BotConfig config = {}) : config_(config) {}

  std::vector<std::uint8_t> nextCommands(SimTime now, Rng& rng) override;
  void onStateUpdate(std::span<const std::uint8_t> update) override;
  void onStateView(std::uint64_t serverTick, ClientId self,
                   std::span<const rtf::EntitySnapshot> view) override;

  [[nodiscard]] std::size_t lastVisibleCount() const { return seenEntities_.size(); }
  [[nodiscard]] std::uint64_t attacksIssued() const { return attacksIssued_; }
  [[nodiscard]] std::uint64_t commandsIssued() const { return commandsIssued_; }

 private:
  BotConfig config_;
  Vec2 heading_{1.0, 0.0};
  bool hasHeading_{false};
  std::vector<EntityId> seenEntities_;
  std::uint64_t attacksIssued_{0};
  std::uint64_t commandsIssued_{0};
};

}  // namespace roia::game
