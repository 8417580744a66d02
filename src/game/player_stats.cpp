#include "game/player_stats.hpp"

#include "serialize/wire.hpp"

namespace roia::game {

template <class IO>
void wire(IO& io, ser::WireRef<IO, PlayerStats> stats) {
  io.var(stats.kills);
  io.var(stats.deaths);
  io.var(stats.score);
}

std::vector<std::uint8_t> encodeStats(const PlayerStats& stats) {
  return ser::encodeWire(stats, 12);
}

PlayerStats decodeStats(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return PlayerStats{};
  return ser::decodeWire<PlayerStats>(bytes);
}

}  // namespace roia::game
