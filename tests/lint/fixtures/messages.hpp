// Fixture: a wire message whose field walker silently dropped a field.
// The serialization-coverage rule anchors on files named messages.hpp.
#pragma once

#include <cstdint>

template <class IO, class T>
using WireRef = const T&;  // stand-in for ser::WireRef

struct ProbeMsg {
  std::uint64_t id{0};
  std::uint64_t payload{0};
  std::uint64_t checksum{0};
};
