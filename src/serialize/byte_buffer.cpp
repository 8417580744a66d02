#include "serialize/byte_buffer.hpp"

namespace roia::ser {

// roia-hot
void ByteWriter::writeVarU64(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

// roia-hot
void ByteWriter::writeVarI64(std::int64_t v) { writeVarU64(zigzagEncode(v)); }

// roia-hot
void ByteWriter::writeBytes(std::span<const std::uint8_t> bytes) {
  writeVarU64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::writeString(std::string_view s) {
  writeVarU64(s.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buffer_.insert(buffer_.end(), p, p + s.size());
}

// roia-hot
std::uint64_t ByteReader::readVarU64() {
  std::uint64_t result = 0;
  int shift = 0;
  while (true) {
    require(1);
    const std::uint8_t byte = data_[offset_++];
    if (shift == 63 && (byte & 0xFE) != 0) throw DecodeError("varint overflow");
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) throw DecodeError("varint too long");
  }
  return result;
}

std::int64_t ByteReader::readVarI64() { return zigzagDecode(readVarU64()); }

std::vector<std::uint8_t> ByteReader::readBytes() {
  const std::span<const std::uint8_t> bytes = readByteSpan();
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

std::span<const std::uint8_t> ByteReader::readByteSpan() {
  const std::uint64_t len = readVarU64();
  require(len);
  const std::span<const std::uint8_t> out = data_.subspan(offset_, len);
  offset_ += len;
  return out;
}

std::string ByteReader::readString() {
  const std::uint64_t len = readVarU64();
  require(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_), len);
  offset_ += len;
  return out;
}

}  // namespace roia::ser
