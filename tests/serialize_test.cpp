// Tests for the serialization substrate: primitive round-trips, varint edge
// cases, CRC32 vectors, frame encode/decode and corruption detection.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "serialize/byte_buffer.hpp"
#include "serialize/crc32.hpp"
#include "serialize/message.hpp"

namespace roia::ser {
namespace {

TEST(ByteBufferTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.writeU8(0xAB);
  w.writeU16(0xBEEF);
  w.writeU32(0xDEADBEEF);
  w.writeU64(0x0123456789ABCDEFULL);
  w.writeI32(-42);
  w.writeI64(-1234567890123LL);
  w.writeF32(3.5f);
  w.writeF64(-2.25);
  w.writeBool(true);
  w.writeBool(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.readU8(), 0xAB);
  EXPECT_EQ(r.readU16(), 0xBEEF);
  EXPECT_EQ(r.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.readU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.readI32(), -42);
  EXPECT_EQ(r.readI64(), -1234567890123LL);
  EXPECT_FLOAT_EQ(r.readF32(), 3.5f);
  EXPECT_DOUBLE_EQ(r.readF64(), -2.25);
  EXPECT_TRUE(r.readBool());
  EXPECT_FALSE(r.readBool());
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteBufferTest, StringsAndBytes) {
  ByteWriter w;
  w.writeString("hello ROIA");
  w.writeString("");
  const std::vector<std::uint8_t> blob{1, 2, 3, 255};
  w.writeBytes(blob);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.readString(), "hello ROIA");
  EXPECT_EQ(r.readString(), "");
  EXPECT_EQ(r.readBytes(), blob);
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteBufferTest, TruncatedReadThrows) {
  ByteWriter w;
  w.writeU32(1);
  ByteReader r(w.bytes());
  r.readU16();
  EXPECT_THROW(r.readU32(), DecodeError);
}

TEST(ByteBufferTest, TruncatedStringThrows) {
  ByteWriter w;
  w.writeVarU64(100);  // claims 100 bytes follow, none do
  ByteReader r(w.bytes());
  EXPECT_THROW(r.readString(), DecodeError);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  ByteWriter w;
  w.writeVarU64(GetParam());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readVarU64(), GetParam());
  EXPECT_TRUE(r.atEnd());
}

INSTANTIATE_TEST_SUITE_P(EdgeValues, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                                           (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 123,
                                           std::numeric_limits<std::uint64_t>::max()));

class SignedVarintRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SignedVarintRoundTrip, Signed) {
  ByteWriter w;
  w.writeVarI64(GetParam());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readVarI64(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(EdgeValues, SignedVarintRoundTrip,
                         ::testing::Values(0LL, 1LL, -1LL, 63LL, -64LL, 64LL, -65LL,
                                           std::numeric_limits<std::int64_t>::max(),
                                           std::numeric_limits<std::int64_t>::min()));

TEST(VarintTest, SmallValuesAreOneByte) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL}) {
    ByteWriter w;
    w.writeVarU64(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
  ByteWriter w;
  w.writeVarU64(128);
  EXPECT_EQ(w.size(), 2u);
}

TEST(VarintTest, ZigzagMapping) {
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(-2), 3u);
  for (std::int64_t v : {-1000000LL, -3LL, 0LL, 5LL, 99999LL}) {
    EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
  }
}

TEST(VarintTest, RandomizedRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next() >> (rng.uniformInt(0, 63));
    ByteWriter w;
    w.writeVarU64(v);
    ByteReader r(w.bytes());
    ASSERT_EQ(r.readVarU64(), v);
  }
}

TEST(VarintTest, MalformedOverlongThrows) {
  // 11 continuation bytes cannot encode a valid u64.
  std::vector<std::uint8_t> bad(11, 0x80);
  ByteReader r(bad);
  EXPECT_THROW(r.readVarU64(), DecodeError);
}

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32(std::span(p, s.size())), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  const auto all = std::span(p, s.size());
  std::uint32_t state = crc32Init();
  state = crc32Update(state, all.subspan(0, 10));
  state = crc32Update(state, all.subspan(10));
  EXPECT_EQ(crc32Final(state), crc32(all));
}

TEST(FrameTest, RoundTrip) {
  Frame frame;
  frame.type = MessageType::kStateUpdate;
  frame.payload = {1, 2, 3, 4, 5};
  const auto bytes = encodeFrame(frame);
  EXPECT_EQ(bytes.size(), encodedFrameSize(frame.payload.size()));
  const Frame decoded = decodeFrame(bytes);
  EXPECT_EQ(decoded.type, MessageType::kStateUpdate);
  EXPECT_EQ(decoded.payload, frame.payload);
}

TEST(FrameTest, EmptyPayload) {
  Frame frame;
  frame.type = MessageType::kHeartbeat;
  const Frame decoded = decodeFrame(encodeFrame(frame));
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(FrameTest, CorruptionDetected) {
  Frame frame;
  frame.type = MessageType::kClientInput;
  frame.payload = {9, 8, 7, 6};
  auto bytes = encodeFrame(frame);
  bytes[5] ^= 0xFF;  // flip payload bits
  EXPECT_THROW(decodeFrame(bytes), DecodeError);
}

TEST(FrameTest, BadMagicDetected) {
  Frame frame;
  frame.type = MessageType::kClientInput;
  frame.payload = {1};
  auto bytes = encodeFrame(frame);
  // Corrupt the magic AND fix up the CRC so only the magic check can fail.
  bytes[0] ^= 0x01;
  const auto body = std::span(bytes).subspan(0, bytes.size() - 4);
  const std::uint32_t crc = crc32(body);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  EXPECT_THROW(decodeFrame(bytes), DecodeError);
}

TEST(FrameTest, TooShortThrows) {
  std::vector<std::uint8_t> tiny{1, 2, 3};
  EXPECT_THROW(decodeFrame(tiny), DecodeError);
}

TEST(FrameTest, RandomizedPayloadRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Frame frame;
    frame.type = MessageType::kForwardedInput;
    const std::size_t len = rng.uniformInt(0, 300);
    frame.payload.resize(len);
    for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    const Frame decoded = decodeFrame(encodeFrame(frame));
    ASSERT_EQ(decoded.payload, frame.payload);
  }
}

TEST(FrameTest, EncodedSizePredictionMatches) {
  for (std::size_t payload : {0u, 1u, 127u, 128u, 5000u}) {
    Frame frame;
    frame.type = MessageType::kMonitoring;
    frame.payload.assign(payload, 0x5A);
    EXPECT_EQ(encodeFrame(frame).size(), encodedFrameSize(payload)) << payload;
  }
}

}  // namespace
}  // namespace roia::ser
