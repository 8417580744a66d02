// Fixture: wire structs pinned by the drifted manifest beside this tree.
// The self-test asserts exact wire-schema-drift findings against
// wire_manifest_drifted.json, then regenerates a fresh manifest and
// asserts the same tree passes clean. Never compiled.
#pragma once
#include <cstdint>

// Stand-in for ser::WireRef (serialize/wire.hpp). Each walker in
// messages.cpp takes its struct as WireRef<IO, T>: a const reference
// when encoding through WireOut, a mutable one when decoding through
// WireIn. The adapters need no declaration here, because the linter
// only reads this tree and nothing compiles it.
//
// The self-test pins the struct line numbers below.
template <class IO, class T>
using WireRef = const T&;

// Drift vs the manifest: the manifest still lists a `nonce` field.
struct PingMsg {
  std::uint64_t id{0};
  std::uint64_t sentAt{0};
};

// Drift vs the manifest: `status` is declared std::uint64_t there.
struct PongMsg {
  std::uint64_t id{0};
  std::uint32_t status{0};
};

// Drift vs the manifest: this struct is not in the manifest at all.
struct NewMsg {
  std::uint32_t token{0};
};
