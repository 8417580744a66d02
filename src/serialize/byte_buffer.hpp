// Binary (de)serialization primitives used by the simulated network stack.
//
// RTF performs implicit (de)serialization of user inputs and state updates;
// this module is our equivalent. Encoded sizes feed both the bandwidth model
// and the CPU cost model (serialization cost is proportional to bytes, which
// is exactly the assumption the paper makes for t_su / t_*_dser).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace roia::ser {

/// Thrown by ByteReader on malformed or truncated input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only encoder. Integers use little-endian fixed width or LEB128
/// varints; floats are bit-cast to their IEEE-754 representation.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserveBytes) { buffer_.reserve(reserveBytes); }
  /// Adopts an existing buffer to reuse its capacity across encodes: the
  /// contents are cleared, the allocation is kept. Pair with take().
  explicit ByteWriter(std::vector<std::uint8_t>&& reuse) : buffer_(std::move(reuse)) {
    buffer_.clear();
  }

  // Fixed-width integers are materialized as little-endian byte arrays and
  // bulk-appended: one capacity check instead of one per byte. They are
  // inline because every entity row of a full-codec update writes several.
  void writeU8(std::uint8_t v) { buffer_.push_back(v); }
  // roia-hot
  void writeU16(std::uint16_t v) { appendLittleEndian<2>(v); }
  // roia-hot
  void writeU32(std::uint32_t v) { appendLittleEndian<4>(v); }
  // roia-hot
  void writeU64(std::uint64_t v) { appendLittleEndian<8>(v); }
  void writeI32(std::int32_t v) { writeU32(static_cast<std::uint32_t>(v)); }
  void writeI64(std::int64_t v) { writeU64(static_cast<std::uint64_t>(v)); }
  void writeF32(float v) { writeU32(std::bit_cast<std::uint32_t>(v)); }
  void writeF64(double v) { writeU64(std::bit_cast<std::uint64_t>(v)); }
  void writeBool(bool v) { writeU8(v ? 1 : 0); }

  /// Unsigned LEB128 varint (1-10 bytes).
  void writeVarU64(std::uint64_t v);
  /// Signed varint via zigzag encoding.
  void writeVarI64(std::int64_t v);

  /// Length-prefixed (varint) byte string.
  void writeBytes(std::span<const std::uint8_t> bytes);
  void writeString(std::string_view s);

  /// Raw bulk append, no length prefix.
  void appendRaw(const std::uint8_t* data, std::size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
  }
  void appendRaw(std::span<const std::uint8_t> bytes) { appendRaw(bytes.data(), bytes.size()); }

  /// Pre-size the underlying buffer for a known-ahead encode size.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buffer_); }
  void clear() { buffer_.clear(); }

 private:
  template <std::size_t N, class T>
  void appendLittleEndian(T v) {
    std::uint8_t raw[N];
    for (std::size_t i = 0; i < N; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
    // Growing here, geometrically, leaves the insert no reallocation path:
    // inlined, that path draws a false -Wstringop-overflow from g++ 12.
    if (buffer_.capacity() - buffer_.size() < N) buffer_.reserve(2 * buffer_.capacity() + N);
    buffer_.insert(buffer_.end(), raw, raw + N);
  }

  std::vector<std::uint8_t> buffer_;
};

/// Consuming decoder over a borrowed byte span. Every read validates bounds
/// and throws DecodeError on truncation, so corrupted frames cannot smear
/// into undefined behaviour.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  // Fixed-width reads, inline like their ByteWriter counterparts; each one
  // checks its bounds first.
  // roia-hot
  std::uint8_t readU8() {
    require(1);
    return data_[offset_++];
  }
  std::uint16_t readU16() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(data_[offset_]) |
                            static_cast<std::uint16_t>(data_[offset_ + 1]) << 8;
    offset_ += 2;
    return v;
  }
  // roia-hot
  std::uint32_t readU32() {
    require(4);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += 4;
    return v;
  }
  // roia-hot
  std::uint64_t readU64() {
    require(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += 8;
    return v;
  }
  std::int32_t readI32() { return static_cast<std::int32_t>(readU32()); }
  std::int64_t readI64() { return static_cast<std::int64_t>(readU64()); }
  float readF32() { return std::bit_cast<float>(readU32()); }
  double readF64() { return std::bit_cast<double>(readU64()); }
  bool readBool() { return readU8() != 0; }

  std::uint64_t readVarU64();
  std::int64_t readVarI64();

  /// Steps over `n` bytes without reading them, bounds-checked like a read.
  void skip(std::size_t n) {
    require(n);
    offset_ += n;
  }

  std::vector<std::uint8_t> readBytes();
  /// Length-prefixed byte string as a view into the input (no copy).
  std::span<const std::uint8_t> readByteSpan();
  std::string readString();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - offset_; }
  [[nodiscard]] bool atEnd() const { return remaining() == 0; }
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw DecodeError("truncated buffer");
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_{0};
};

/// Zigzag transforms for signed varints.
constexpr std::uint64_t zigzagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace roia::ser
