#include "game/commands.hpp"

#include "serialize/wire.hpp"

namespace roia::game {
namespace {

constexpr std::uint8_t kHasMove = 0x01;
constexpr std::uint8_t kHasAttack = 0x02;

}  // namespace

std::vector<std::uint8_t> encodeCommands(const CommandBatch& batch) {
  ser::ByteWriter writer(32);
  std::uint8_t flags = 0;
  if (batch.move) flags |= kHasMove;
  if (batch.attack) flags |= kHasAttack;
  writer.writeU8(flags);
  if (batch.move) {
    writer.writeF32(static_cast<float>(batch.move->direction.x));
    writer.writeF32(static_cast<float>(batch.move->direction.y));
  }
  if (batch.attack) {
    writer.writeVarU64(batch.attack->target.value);
    writer.writeF32(static_cast<float>(batch.attack->aim.x));
    writer.writeF32(static_cast<float>(batch.attack->aim.y));
  }
  return std::move(writer).take();
}

CommandBatch decodeCommands(std::span<const std::uint8_t> bytes) {
  ser::ByteReader reader(bytes);
  CommandBatch batch;
  const std::uint8_t flags = reader.readU8();
  if (flags & kHasMove) {
    MoveCommand move;
    move.direction.x = reader.readF32();
    move.direction.y = reader.readF32();
    batch.move = move;
  }
  if (flags & kHasAttack) {
    AttackCommand attack;
    attack.target = EntityId{reader.readVarU64()};
    attack.aim.x = reader.readF32();
    attack.aim.y = reader.readF32();
    batch.attack = attack;
  }
  return batch;
}

template <class IO>
void wire(IO& io, ser::WireRef<IO, Interaction> interaction) {
  io.u8(interaction.kind);
  io.f64(interaction.damage);
}

std::vector<std::uint8_t> encodeInteraction(const Interaction& interaction) {
  return ser::encodeWire(interaction, 12);
}

Interaction decodeInteraction(std::span<const std::uint8_t> bytes) {
  return ser::decodeWire<Interaction>(bytes);
}

}  // namespace roia::game
