// Fixture: hardware entropy drawn two frames below the encode path. The
// std::random_device line is a hard source, reported exactly once under
// determinism-taint; since it reaches a sink, that one finding must carry
// the full entropy -> jitterSeed -> encodeBeacon source-to-sink chain.
// Never compiled.
#include <cstdint>
#include <random>

struct Writer {
  void writeU32(std::uint32_t) {}
};

std::uint32_t entropy() {
  std::random_device dev;
  return dev();
}

std::uint32_t jitterSeed() {
  return entropy() | 1u;
}

void encodeBeacon(Writer& w) {
  w.writeU32(jitterSeed());
}
