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
  ser::ByteReader reader(bytes);
  ser::WireIn io(reader);
  VisibleEntity row;
  wire(io, row);  // the viewer's own state
  const std::uint64_t count = io.listCount();
  ids.clear();
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    wire(io, row);
    ids.push_back(row.id);
  }
}

}  // namespace roia::game
