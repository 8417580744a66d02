// Field walkers: each fixed-layout wire struct names its fields once, in
// wire order, in one function template
//
//   template <class IO> void wire(IO& io, ser::WireRef<IO, T> value);
//
// that runs in both directions. Over a WireOut each call appends the field
// with the ByteWriter call it names; over a WireIn the same call reads it
// back with the matching ByteReader call. Encoder and decoder cannot drift
// apart, and the bytes are exactly those of the ByteWriter calls.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "serialize/byte_buffer.hpp"
#include "serialize/message.hpp"

namespace roia::ser {

/// The walked value: const when encoding, mutable when decoding.
template <class IO, class T>
using WireRef = std::conditional_t<IO::kDecoding, T&, const T&>;

/// Encoding side: each method appends one field.
class WireOut {
 public:
  static constexpr bool kDecoding = false;
  explicit WireOut(ByteWriter& writer) : writer_(writer) {}

  void var(std::uint64_t v) { writer_.writeVarU64(v); }
  void svar(std::int64_t v) { writer_.writeVarI64(v); }
  /// Zigzag varint of the wrapping difference `v - base`.
  void svarDelta(std::uint64_t base, std::uint64_t v) {
    svar(static_cast<std::int64_t>(v - base));
  }
  /// One byte; enums travel as their underlying value.
  template <class T>
  void u8(T v) { writer_.writeU8(static_cast<std::uint8_t>(v)); }
  /// IEEE-754 single; a double is narrowed on the wire.
  template <std::floating_point T>
  void f32(T v) { writer_.writeF32(static_cast<float>(v)); }
  void f64(double v) { writer_.writeF64(v); }
  void bytes(std::span<const std::uint8_t> v) { writer_.writeBytes(v); }
  /// Varint count, then `each(element)` for every element in order.
  template <class T, class Each>
  void list(const std::vector<T>& v, Each&& each) {
    writer_.writeVarU64(v.size());
    for (const T& element : v) each(element);
  }
  /// Optional trailing varint: written only when non-zero.
  void tailVar(std::uint64_t v) {
    if (v != 0) writer_.writeVarU64(v);
  }

 private:
  ByteWriter& writer_;
};

/// Same method names as WireOut, each reading its field in place. Every
/// read is bounds-checked by ByteReader and throws DecodeError.
class WireIn {
 public:
  static constexpr bool kDecoding = true;
  explicit WireIn(ByteReader& reader) : reader_(reader) {}

  template <std::unsigned_integral T>
  void var(T& v) { v = static_cast<T>(reader_.readVarU64()); }
  void svar(std::int64_t& v) { v = reader_.readVarI64(); }
  void svarDelta(std::uint64_t base, std::uint64_t& v) {
    v = base + static_cast<std::uint64_t>(reader_.readVarI64());
  }
  template <class T>
  void u8(T& v) { v = static_cast<T>(reader_.readU8()); }
  template <std::floating_point T>
  void f32(T& v) { v = reader_.readF32(); }
  void f64(double& v) { v = reader_.readF64(); }
  /// Copies the byte string once, into `v`'s existing capacity.
  void bytes(std::vector<std::uint8_t>& v) {
    const std::span<const std::uint8_t> s = reader_.readByteSpan();
    v.assign(s.begin(), s.end());
  }
  /// Reads a list's varint count. Every element takes at least one byte,
  /// so a count beyond the remaining payload is malformed and must not
  /// drive a huge reservation.
  std::uint64_t listCount() {
    const std::uint64_t count = reader_.readVarU64();
    if (count > reader_.remaining()) throw DecodeError("implausible list count");
    return count;
  }
  /// Replaces `v` with the decoded elements, appended one by one.
  template <class T, class Each>
  void list(std::vector<T>& v, Each&& each) {
    const std::uint64_t count = listCount();
    v.clear();
    v.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) each(v.emplace_back());
  }
  void tailVar(std::uint64_t& v) {
    if (!reader_.atEnd()) v = reader_.readVarU64();
  }

 private:
  ByteReader& reader_;
};

/// Encodes `value` with its wire() walker (found by argument-dependent
/// lookup) into a buffer reserved to `reserveBytes`.
template <class T>
[[nodiscard]] std::vector<std::uint8_t> encodeWire(const T& value, std::size_t reserveBytes) {
  ByteWriter writer(reserveBytes);
  WireOut out(writer);
  wire(out, value);
  return std::move(writer).take();
}

template <class T>
[[nodiscard]] T decodeWire(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  WireIn in(reader);
  T value;
  wire(in, value);
  return value;
}

template <class T>
[[nodiscard]] Frame encodeWireFrame(MessageType type, const T& value, std::size_t reserveBytes) {
  return Frame{type, encodeWire(value, reserveBytes)};
}

/// Decodes the payload of a `type` frame; DecodeError on any other type.
template <class T>
[[nodiscard]] T decodeWireFrame(const Frame& frame, MessageType type) {
  if (frame.type != type) throw DecodeError("unexpected frame type");
  return decodeWire<T>(frame.payload);
}

}  // namespace roia::ser
