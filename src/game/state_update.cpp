#include "game/state_update.hpp"

#include "serialize/wire.hpp"

namespace roia::game {

template <class IO>
void wire(IO& io, ser::WireRef<IO, VisibleEntity> e) {
  io.var(e.id.value);
  io.f32(e.x);
  io.f32(e.y);
  io.f32(e.health);
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, StateUpdatePayload> payload) {
  wire(io, payload.self);
  io.list(payload.visible, [&](auto& e) { wire(io, e); });
}

void encodeStateUpdate(const StateUpdatePayload& payload, std::vector<std::uint8_t>& out) {
  ser::ByteWriter writer(std::move(out));
  writer.reserve(16 + payload.visible.size() * 16);
  ser::WireOut io(writer);
  wire(io, payload);
  out = std::move(writer).take();
}

StateUpdatePayload decodeStateUpdate(std::span<const std::uint8_t> bytes) {
  return ser::decodeWire<StateUpdatePayload>(bytes);
}

// roia-hot
void decodeVisibleIds(std::span<const std::uint8_t> bytes, std::vector<EntityId>& ids) {
  // A row is the VisibleEntity walker's id varint and three F32s (x, y,
  // health). One bounds-checked skip over the floats rejects exactly the
  // inputs their reads would.
  constexpr std::size_t kRowFloatBytes = 3 * sizeof(float);
  ser::ByteReader reader(bytes);
  ser::WireIn io(reader);
  reader.readVarU64();  // the viewer's own row
  reader.skip(kRowFloatBytes);
  const std::uint64_t count = io.listCount();
  ids.clear();
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.push_back(EntityId{reader.readVarU64()});
    reader.skip(kRowFloatBytes);
  }
}

}  // namespace roia::game
