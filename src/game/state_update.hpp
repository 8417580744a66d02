// State update payload of the FPS demo: the filtered set of visible
// entities, encoded compactly. Clients decode it to drive their bots.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace roia::game {

struct VisibleEntity {
  EntityId id;
  float x{0.0f};
  float y{0.0f};
  float health{0.0f};
};

struct StateUpdatePayload {
  /// The viewer's own state leads the update.
  VisibleEntity self;
  std::vector<VisibleEntity> visible;
};

/// Encodes into `out`, reusing its capacity (hot path: one update per client
/// per tick). The sole encode entry point: a value-returning overload would
/// allocate on the hot path, so callers that want a fresh buffer pass one in.
void encodeStateUpdate(const StateUpdatePayload& payload, std::vector<std::uint8_t>& out);
[[nodiscard]] StateUpdatePayload decodeStateUpdate(std::span<const std::uint8_t> bytes);

/// Decodes only the ids of the visible entities into `ids` (cleared, then
/// reserved to the decoded count): each row's id is read and its floats
/// are skipped with the same bounds check, so it throws ser::DecodeError on
/// exactly the inputs decodeStateUpdate rejects, but no StateUpdatePayload
/// is built. The receive path of a bot, which acts on ids only.
void decodeVisibleIds(std::span<const std::uint8_t> bytes, std::vector<EntityId>& ids);

}  // namespace roia::game
