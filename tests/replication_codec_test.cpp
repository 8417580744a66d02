// Snapshot codec tests: full-mode wire compatibility with the legacy
// layout, delta entry round-trips, quantization error bounds, baseline
// sender/receiver resync over lossy links, and cluster-level properties
// (full-vs-delta run equivalence on a clean network, shadow consistency
// under chaos with the delta codec).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "net/fault.hpp"
#include "rtf/cluster.hpp"
#include "rtf/snapshot_codec.hpp"
#include "serialize/byte_buffer.hpp"

namespace roia::rtf {
namespace {

EntitySnapshot sampleSnapshot() {
  EntitySnapshot s;
  s.id = EntityId{42};
  s.kind = EntityKind::kNpc;
  s.owner = ServerId{3};
  s.client = ClientId{7};
  s.x = 123.625f;
  s.y = -45.0f;
  s.vx = 1.5f;
  s.vy = -2.25f;
  s.health = 87.5f;
  s.version = 19;
  s.appData = {0xde, 0xad, 0xbe};
  return s;
}

/// Reference lattice point of `v`: roundHalfAway(v * scale) / scale, or
/// `v` itself when `scale` <= 0 (an exact field).
float onLattice(float v, double scale) {
  if (scale <= 0.0) return v;
  return static_cast<float>(
      static_cast<double>(roundHalfAway(static_cast<double>(v) * scale)) / scale);
}

/// Copy of `s` snapped onto the codec's lattices: what a receiver decodes
/// for `s` sent raw.
EntitySnapshot quantized(const SnapshotCodec& codec, EntitySnapshot s) {
  const ReplicationProfile& profile = codec.profile();
  s.x = onLattice(s.x, profile.positionScale);
  s.y = onLattice(s.y, profile.positionScale);
  s.vx = onLattice(s.vx, profile.velocityScale);
  s.vy = onLattice(s.vy, profile.velocityScale);
  return s;
}

/// `s` written as a keyframe entry (against the implicit default) and read
/// back through the codec.
EntitySnapshot keyframeRoundTrip(const SnapshotCodec& codec, const EntitySnapshot& s) {
  ser::ByteWriter writer;
  codec.writeEntry(writer, nullptr, s, codec.diff(EntitySnapshot{}, s, kAllFields));
  const std::vector<std::uint8_t> bytes = std::move(writer).take();
  ser::ByteReader reader(bytes);
  EntitySnapshot decoded;
  codec.readEntry(reader, s.id, nullptr, decoded);
  EXPECT_TRUE(reader.atEnd());
  return decoded;
}

constexpr FieldMask kScaledFields =
    fieldBit(SnapshotField::kX) | fieldBit(SnapshotField::kY) | fieldBit(SnapshotField::kVx) |
    fieldBit(SnapshotField::kVy);

void expectSnapshotEq(const EntitySnapshot& a, const EntitySnapshot& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.vx, b.vx);
  EXPECT_EQ(a.vy, b.vy);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.appData, b.appData);
}

TEST(SnapshotCodecTest, FullEncodingMatchesLegacyLayout) {
  const EntitySnapshot s = sampleSnapshot();
  ser::ByteWriter viaSchema;
  SnapshotCodec::writeSnapshot(viaSchema, s);

  // The legacy free-function layout, written by hand: id, kind, owner,
  // client, x, y, vx, vy, health, version, appData.
  ser::ByteWriter legacy;
  legacy.writeVarU64(s.id.value);
  legacy.writeU8(static_cast<std::uint8_t>(s.kind));
  legacy.writeVarU64(s.owner.value);
  legacy.writeVarU64(s.client.value);
  legacy.writeF32(s.x);
  legacy.writeF32(s.y);
  legacy.writeF32(s.vx);
  legacy.writeF32(s.vy);
  legacy.writeF32(s.health);
  legacy.writeVarU64(s.version);
  legacy.writeBytes(s.appData);

  EXPECT_EQ(std::move(viaSchema).take(), std::move(legacy).take());
}

TEST(SnapshotCodecTest, FullRoundTripPreservesEveryField) {
  const EntitySnapshot s = sampleSnapshot();
  ser::ByteWriter writer;
  SnapshotCodec::writeSnapshot(writer, s);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();
  ser::ByteReader reader(bytes);
  expectSnapshotEq(SnapshotCodec::readSnapshot(reader), s);
  EXPECT_TRUE(reader.atEnd());
}

TEST(SnapshotCodecTest, SchemaCoversEveryFieldExactlyOnce) {
  const auto rows = snapshotSchema();
  ASSERT_EQ(rows.size(), 11u);
  FieldMask seen = 0;
  bool sawId = false;
  for (const SnapshotSchemaRow& row : rows) {
    if (row.field == SnapshotField::kId) {
      EXPECT_FALSE(sawId);
      sawId = true;
      continue;
    }
    const FieldMask bit = fieldBit(row.field);
    EXPECT_EQ(seen & bit, 0) << "duplicate schema row for field "
                             << static_cast<int>(row.field);
    seen |= bit;
  }
  EXPECT_TRUE(sawId);
  EXPECT_EQ(seen, kAllFields);
}

TEST(SnapshotCodecTest, DeltaEntryRoundTripAgainstBaseline) {
  const SnapshotCodec codec{ReplicationProfile{}};
  // The sender diffs raw state, as encodeView does; x is off the lattice.
  EntitySnapshot base = sampleSnapshot();
  base.x += 0.01f;
  EntitySnapshot now = base;
  now.x += 5.0f;
  now.health = 31.0f;
  now.version += 3;

  const EntryDiff diff = codec.diff(base, now, kAllFields);
  EXPECT_EQ(diff.mask, fieldBit(SnapshotField::kX) | fieldBit(SnapshotField::kHealth) |
                           fieldBit(SnapshotField::kVersion));

  ser::ByteWriter writer;
  codec.writeEntry(writer, &base, now, diff);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();

  // The receiver holds the base's lattice image and decodes now's.
  const EntitySnapshot held = quantized(codec, base);
  ser::ByteReader reader(bytes);
  EntitySnapshot decoded;
  codec.readEntry(reader, base.id, &held, decoded);
  expectSnapshotEq(decoded, quantized(codec, now));
  EXPECT_TRUE(reader.atEnd());
}

TEST(SnapshotCodecTest, DeltaEntryFromImplicitDefaultBaseline) {
  const SnapshotCodec codec{ReplicationProfile{}};
  EntitySnapshot now = sampleSnapshot();
  now.y -= 0.01f;  // off the lattice
  const EntitySnapshot base{};  // keyframe / spawn: implicit default
  const EntryDiff diff = codec.diff(base, now, kAllFields);

  ser::ByteWriter writer;
  codec.writeEntry(writer, nullptr, now, diff);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();

  ser::ByteReader reader(bytes);
  EntitySnapshot decoded;
  codec.readEntry(reader, now.id, nullptr, decoded);
  expectSnapshotEq(decoded, quantized(codec, now));
}

TEST(SnapshotCodecTest, QuantizationErrorIsBoundedByHalfStep) {
  // Non-power-of-two scales included on purpose: the bound must come from
  // symmetric rounding, not from binary-exact lattice coincidences.
  for (const double scale : {16.0, 8.0, 10.0, 3.0, 7.5}) {
    ReplicationProfile profile;
    profile.positionScale = scale;
    profile.velocityScale = scale;
    const SnapshotCodec codec{profile};
    const double bound = 0.5 / scale + 1e-6;
    for (float v = -100.0f; v <= 100.0f; v += 0.37f) {
      EntitySnapshot s;
      s.x = v;
      s.y = -v;
      s.vx = v * 0.25f;
      s.vy = -v * 0.25f;
      const EntitySnapshot q = keyframeRoundTrip(codec, s);
      EXPECT_LE(std::abs(static_cast<double>(q.x) - static_cast<double>(s.x)), bound)
          << "scale " << scale << " value " << v;
      EXPECT_LE(std::abs(static_cast<double>(q.y) - static_cast<double>(s.y)), bound);
      EXPECT_LE(std::abs(static_cast<double>(q.vx) - static_cast<double>(s.vx)), bound);
      EXPECT_LE(std::abs(static_cast<double>(q.vy) - static_cast<double>(s.vy)), bound);
    }

    // A sender keeps raw baselines and its receiver their lattice images,
    // so both must sit on the same lattice step: a decoded value has no
    // scaled bit in diff against its raw value, for |value * scale| up to
    // 2^23 - 1. Ties (v * scale = k + 1/2) are drawn on purpose.
    const double limit = 0x1p23 - 1.0;
    Rng rng(0x1A771CE);
    for (int i = 0; i < 4000; ++i) {
      double scaled = i < 2 ? (i == 0 ? limit : -limit) : rng.uniform(-limit, limit);
      if (i % 4 == 3) scaled = std::floor(scaled) + 0.5;
      float v = static_cast<float>(scaled / scale);
      if (std::abs(static_cast<double>(v) * scale) > limit) v = std::nextafter(v, 0.0f);
      EntitySnapshot s;
      s.x = v;
      s.y = -v;
      s.vx = v;
      s.vy = -v;
      const EntitySnapshot decoded = keyframeRoundTrip(codec, s);
      EXPECT_EQ(codec.diff(decoded, s, kAllFields).mask & kScaledFields, 0)
          << "scale " << scale << " value " << v;
    }
  }
}

TEST(SnapshotCodecTest, NonPositiveScaleKeepsValuesExact) {
  ReplicationProfile profile;
  profile.positionScale = 0.0;
  profile.velocityScale = 0.0;
  const SnapshotCodec codec{profile};
  EntitySnapshot s = sampleSnapshot();
  s.x += 0.01f;  // off every lattice
  expectSnapshotEq(keyframeRoundTrip(codec, s), s);
}

TEST(SnapshotCodecTest, ChangedFieldsComparesOnTheLattice) {
  const SnapshotCodec codec{ReplicationProfile{}};  // positionScale 16
  EntitySnapshot base = quantized(codec, sampleSnapshot());
  EntitySnapshot below = base;
  below.x += 0.01f;  // far less than half a 1/16 lattice step
  EXPECT_EQ(codec.diff(base, below, kAllFields).mask, 0);
  EntitySnapshot above = base;
  above.x += 0.2f;  // more than one lattice step
  EXPECT_EQ(codec.diff(base, above, kAllFields).mask, fieldBit(SnapshotField::kX));
}

// --- baseline sender/receiver --------------------------------------------

struct Link {
  SnapshotCodec codec;
  BaselineSender sender;
  BaselineReceiver receiver;

  explicit Link(ReplicationProfile profile = {}, FieldMask fields = kAllFields)
      : codec(profile), sender(codec, fields), receiver(codec) {}

  /// Encodes `view` at `tick`; delivers and acks when `deliver` is set.
  /// Returns the decoded view when one was applied.
  std::optional<BaselineReceiver::DecodedView> step(std::uint64_t tick, const SnapshotView& view,
                                                    std::vector<EntityId> removed = {},
                                                    bool deliver = true) {
    ser::ByteWriter out;
    sender.encodeView(tick, view, removed, out);
    const std::vector<std::uint8_t> payload = std::move(out).take();
    if (!deliver) return std::nullopt;
    auto decoded = receiver.decodeView(payload);
    if (decoded.has_value()) sender.onAck(decoded->serverTick);
    return decoded;
  }
};

SnapshotView quantizedView(const SnapshotCodec& codec, const SnapshotView& view) {
  SnapshotView out;
  for (const EntitySnapshot& snap : view) out.push_back(quantized(codec, snap));
  return out;
}

void expectViewEq(std::span<const EntitySnapshot> got, const SnapshotView& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id);
    expectSnapshotEq(got[i], want[i]);
  }
}

/// Test view of sample entities with the given ids (pass them ascending).
SnapshotView makeView(std::initializer_list<std::uint64_t> ids) {
  SnapshotView view;
  for (const std::uint64_t id : ids) {
    EntitySnapshot s = sampleSnapshot();
    s.id = EntityId{id};
    s.x = static_cast<float>(id) * 3.1f;
    s.y = static_cast<float>(id) * -1.7f;
    view.push_back(s);
  }
  return view;
}

/// The entry of `view` with id `id`; throws when there is none.
EntitySnapshot& entry(SnapshotView& view, std::uint64_t id) {
  const auto it = std::find_if(view.begin(), view.end(),
                               [id](const EntitySnapshot& s) { return s.id.value == id; });
  if (it == view.end()) throw std::out_of_range("no view entry with that id");
  return *it;
}

/// The ticks of the views `receiver` holds live, ascending.
std::vector<std::uint64_t> liveTicks(const BaselineReceiver& receiver) {
  std::vector<std::uint64_t> ticks;
  for (const RetainedView& slot : receiver.retained()) {
    if (slot.live) ticks.push_back(slot.tick);
  }
  std::sort(ticks.begin(), ticks.end());
  return ticks;
}

/// The baseline tick a view payload names, read from its header (flag,
/// tick, baseline tick); nullopt for a keyframe.
std::optional<std::uint64_t> namedBaseline(std::span<const std::uint8_t> payload) {
  ser::ByteReader header(payload);
  if ((header.readU8() & 1u) != 0) return std::nullopt;
  (void)header.readVarU64();
  return header.readVarU64();
}


TEST(BaselineLinkTest, KeyframeThenDeltasReconstructSpawnsMovesAndDespawns) {
  Link link;
  SnapshotView view = makeView({1, 2, 5});

  auto first = link.step(1, view);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->keyframe);
  expectViewEq(first->view, quantizedView(link.codec, view));

  // Move an entity and spawn a new one: the next frame is a delta.
  entry(view, 2).x += 10.0f;
  view.push_back([] {  // id 9 sorts last
    EntitySnapshot s = sampleSnapshot();
    s.id = EntityId{9};
    return s;
  }());
  auto second = link.step(2, view);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->keyframe);
  expectViewEq(second->view, quantizedView(link.codec, view));

  // Despawn: the entity leaves the view and is announced as removed.
  std::erase_if(view, [](const EntitySnapshot& s) { return s.id == EntityId{5}; });
  auto third = link.step(3, view, {EntityId{5}});
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(third->keyframe);
  ASSERT_EQ(third->removed.size(), 1u);
  EXPECT_EQ(third->removed.front(), EntityId{5});
  expectViewEq(third->view, quantizedView(link.codec, view));
}

TEST(BaselineLinkTest, DeltaFramesAreSmallerThanKeyframes) {
  Link link;
  SnapshotView view = makeView({1, 2, 3, 4, 5, 6, 7, 8});
  ser::ByteWriter key;
  link.sender.encodeView(1, view, {}, key);
  ASSERT_TRUE(link.receiver.decodeView(key.bytes()).has_value());
  link.sender.onAck(1);

  entry(view, 3).x += 1.0f;  // one entity moved one world unit
  ser::ByteWriter delta;
  link.sender.encodeView(2, view, {}, delta);
  EXPECT_LT(delta.size() * 4, key.size());
}

TEST(BaselineLinkTest, KeyframeResyncAfterAckLoss) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 4;
  profile.keyframeInterval = 1000;  // periodic keyframes out of the way
  Link link(profile);
  SnapshotView view = makeView({1, 2});

  ASSERT_TRUE(link.step(1, view).has_value());  // delivered + acked

  // The link goes dark: frames (and therefore acks) are lost. The sender
  // keeps diffing against tick 1 while the window allows it...
  for (std::uint64_t tick = 2; tick <= 5; ++tick) {
    entry(view, 1).x += 1.0f;
    link.step(tick, view, {}, /*deliver=*/false);
  }
  // ...then falls back to keyframes once the ack is older than the window.
  entry(view, 1).x += 1.0f;
  ser::ByteWriter out;
  EXPECT_TRUE(link.sender.encodeView(6, view, {}, out));

  // The receiver lost every frame since tick 1, yet the keyframe applies
  // (no baseline needed) and fully resyncs the view.
  auto decoded = link.receiver.decodeView(out.bytes());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->keyframe);
  expectViewEq(decoded->view, quantizedView(link.codec, view));
}

TEST(BaselineLinkTest, StaleFramesAndUnknownBaselinesAreSkippedNotApplied) {
  Link link;
  SnapshotView view = makeView({1});

  ser::ByteWriter first;
  link.sender.encodeView(5, view, {}, first);
  ASSERT_TRUE(link.receiver.decodeView(first.bytes()).has_value());
  link.sender.onAck(5);

  // A reordered copy of an old tick must not regress the receiver.
  EXPECT_FALSE(link.receiver.decodeView(first.bytes()).has_value());

  // A delta against a baseline the receiver never applied is skipped: the
  // sender acked tick 6 (say, the ack raced a drop of the frame itself).
  entry(view, 1).x += 1.0f;
  ser::ByteWriter lost;
  link.sender.encodeView(6, view, {}, lost);
  link.sender.onAck(6);
  entry(view, 1).x += 1.0f;
  ser::ByteWriter delta;
  link.sender.encodeView(7, view, {}, delta);
  EXPECT_FALSE(link.receiver.decodeView(delta.bytes()).has_value());
}

TEST(BaselineLinkTest, AcksForNeverSentTicksAreIgnored) {
  Link link;
  link.sender.onAck(999);  // stale ack from a previous link incarnation
  EXPECT_FALSE(link.sender.hasAcked());
  SnapshotView view = makeView({1});
  ser::ByteWriter out;
  EXPECT_TRUE(link.sender.encodeView(1, view, {}, out));
}

TEST(BaselineLinkTest, MalformedPayloadsThrowInsteadOfSmearing) {
  Link link;
  // An implausible entry count must not drive a huge allocation.
  ser::ByteWriter bogus;
  bogus.writeU8(1);          // keyframe
  bogus.writeVarU64(1);      // tick
  bogus.writeVarU64(1u << 20);  // entry count far beyond the payload
  EXPECT_THROW(link.receiver.decodeView(bogus.bytes()), ser::DecodeError);

  // Non-ascending entry ids (a zero gap after the first entry) are wire
  // corruption by construction.
  ser::ByteWriter dup;
  dup.writeU8(1);
  dup.writeVarU64(2);
  dup.writeVarU64(2);   // two entries
  dup.writeVarU64(7);   // id 7
  dup.writeVarU64(0);   // empty mask
  dup.writeVarU64(0);   // zero gap -> id 7 again
  EXPECT_THROW(link.receiver.decodeView(dup.bytes()), ser::DecodeError);

  // Neither are gaps that wrap past 2^64 back to a smaller id.
  ser::ByteWriter wrap;
  wrap.writeU8(1);
  wrap.writeVarU64(3);
  wrap.writeVarU64(2);   // two entries
  wrap.writeVarU64(7);   // id 7
  wrap.writeVarU64(0);   // empty mask
  wrap.writeVarU64(~std::uint64_t{0});  // 7 + gap wraps to id 6
  wrap.writeVarU64(0);
  EXPECT_THROW(link.receiver.decodeView(wrap.bytes()), ser::DecodeError);

  // Removed ids ascend as well: a removed-id gap that wraps throws too.
  ser::ByteWriter removedWrap;
  removedWrap.writeU8(1);
  removedWrap.writeVarU64(4);
  removedWrap.writeVarU64(0);   // no entries
  removedWrap.writeVarU64(2);   // two removed ids
  removedWrap.writeVarU64(7);   // id 7
  removedWrap.writeVarU64(~std::uint64_t{0});  // wraps to id 6
  EXPECT_THROW(link.receiver.decodeView(removedWrap.bytes()), ser::DecodeError);

  // A zero removed-id gap is legal: the sender sorts removals but does not
  // dedupe them.
  ser::ByteWriter repeated;
  repeated.writeU8(1);
  repeated.writeVarU64(5);
  repeated.writeVarU64(0);
  repeated.writeVarU64(2);
  repeated.writeVarU64(7);
  repeated.writeVarU64(0);  // id 7 again
  const auto decoded = link.receiver.decodeView(repeated.bytes());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::vector<EntityId>(decoded->removed.begin(), decoded->removed.end()),
            (std::vector<EntityId>{EntityId{7}, EntityId{7}}));
}

// A frame that throws part-way through its entries must leave the receiver
// as it was: no tick watermark moved, no slot turned live, no view dropped.
TEST(BaselineLinkTest, MalformedFrameLeavesBaselinesIntact) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 4;
  profile.keyframeInterval = 1000;  // periodic keyframes out of the way
  Link link(profile);
  SnapshotView view = makeView({1, 2});
  ASSERT_TRUE(link.step(1, view).has_value());  // delivered + acked

  // A delta at tick 9 against baseline 1: entry 1 moves, then entry 2
  // repeats id 1 (a zero gap) and the decode throws.
  ser::ByteWriter broken;
  broken.writeU8(0);
  broken.writeVarU64(9);
  broken.writeVarU64(1);  // baseline tick
  broken.writeVarU64(2);  // two entries
  broken.writeVarU64(1);  // id 1
  broken.writeVarU64(fieldBit(SnapshotField::kX));
  broken.writeVarI64(40);  // x moves 40 lattice steps
  broken.writeVarU64(0);  // zero gap: id 1 again
  broken.writeVarU64(0);
  broken.writeVarU64(0);  // no removals
  EXPECT_THROW(link.receiver.decodeView(broken.bytes()), ser::DecodeError);
  EXPECT_EQ(link.receiver.latestTick(), 1u);

  // Tick 9 never turned live, so a delta naming it is skipped.
  ser::ByteWriter onBroken;
  onBroken.writeU8(0);
  onBroken.writeVarU64(10);
  onBroken.writeVarU64(9);  // baseline tick
  onBroken.writeVarU64(0);
  onBroken.writeVarU64(0);
  EXPECT_FALSE(link.receiver.decodeView(onBroken.bytes()).has_value());

  // Baseline 1 survived both frames: the next delta against it decodes to
  // the lattice image of the view sent.
  entry(view, 2).x += 7.3f;
  ser::ByteWriter out;
  ASSERT_FALSE(link.sender.encodeView(5, view, {}, out));
  auto decoded = link.receiver.decodeView(out.bytes());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->keyframe);
  expectViewEq(decoded->view, quantizedView(link.codec, view));
}

// Nor may it raise the floor: a baseline named by a frame that did not
// parse says nothing about the sender's ack. Here the broken frame names
// tick 3 while the sender's ack stays at tick 1, so the periodic keyframe
// that follows must keep view 1, which the delta after it names.
TEST(BaselineLinkTest, MalformedDeltaLeavesTheFloorWhereItWas) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 16;
  profile.keyframeInterval = 3;
  Link link(profile);
  SnapshotView view = makeView({1, 2});
  ASSERT_TRUE(link.step(1, view).has_value());  // keyframe, delivered + acked
  for (std::uint64_t tick = 2; tick <= 3; ++tick) {  // delivered, acks lost
    entry(view, 1).x += 1.0f;
    ser::ByteWriter out;
    ASSERT_FALSE(link.sender.encodeView(tick, view, {}, out));
    ASSERT_TRUE(link.receiver.decodeView(out.bytes()).has_value());
  }

  // A delta at tick 9 against baseline 3 whose second entry repeats id 1.
  ser::ByteWriter broken;
  broken.writeU8(0);
  broken.writeVarU64(9);
  broken.writeVarU64(3);  // baseline tick
  broken.writeVarU64(2);  // two entries
  broken.writeVarU64(1);  // id 1
  broken.writeVarU64(0);
  broken.writeVarU64(0);  // zero gap: id 1 again
  broken.writeVarU64(0);
  broken.writeVarU64(0);  // no removals
  EXPECT_THROW(link.receiver.decodeView(broken.bytes()), ser::DecodeError);
  EXPECT_EQ(liveTicks(link.receiver), (std::vector<std::uint64_t>{1, 2, 3}));

  entry(view, 2).x += 1.0f;
  ser::ByteWriter key;
  ASSERT_TRUE(link.sender.encodeView(4, view, {}, key));  // periodic keyframe
  ASSERT_TRUE(link.receiver.decodeView(key.bytes()).has_value());
  entry(view, 2).x += 1.0f;
  ser::ByteWriter out;
  ASSERT_FALSE(link.sender.encodeView(5, view, {}, out));
  ASSERT_EQ(namedBaseline(out.bytes()), 1u);
  auto decoded = link.receiver.decodeView(out.bytes());
  ASSERT_TRUE(decoded.has_value());
  expectViewEq(decoded->view, quantizedView(link.codec, view));
}

TEST(BaselineLinkTest, NonAscendingViewsAreRejectedBeforeEncoding) {
  Link link;
  ser::ByteWriter out;
  EXPECT_THROW(link.sender.encodeView(1, makeView({2, 1}), {}, out), std::invalid_argument);
  EXPECT_THROW(link.sender.encodeView(1, makeView({1, 3, 3}), {}, out), std::invalid_argument);
  EXPECT_EQ(out.size(), 0u);
  // Nothing was retained: the next view is still the link's first keyframe.
  EXPECT_TRUE(link.sender.encodeView(2, makeView({1, 2}), {}, out));
}

// A sender diffs only against an acked tick >= tick - W, so the oldest
// baseline a frame at T can name is T - W, and the receiver has applied up
// to T - 1 by then. Its window must still hold that view.
TEST(BaselineLinkTest, ReceiverKeepsTheOldestBaselineASenderMayName) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 4;
  profile.keyframeInterval = 1000;  // periodic keyframes out of the way
  Link link(profile);
  SnapshotView view = makeView({1, 2, 3});
  constexpr std::uint64_t kT = 10;
  const std::uint64_t oldest = kT - profile.baselineAckWindow;
  // Every frame up to T - 1 applies; only the acks up to T - W arrive.
  for (std::uint64_t tick = 1; tick < kT; ++tick) {
    entry(view, 1).x += 1.0f;
    ser::ByteWriter out;
    link.sender.encodeView(tick, view, {}, out);
    ASSERT_TRUE(link.receiver.decodeView(out.bytes()).has_value()) << "tick " << tick;
    if (tick <= oldest) link.sender.onAck(tick);
  }
  ASSERT_EQ(link.receiver.latestTick(), kT - 1);

  entry(view, 1).x += 1.0f;
  ser::ByteWriter out;
  ASSERT_FALSE(link.sender.encodeView(kT, view, {}, out));
  // Header: delta flag, tick, baseline tick (one varint byte each here).
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out.bytes()[2], oldest);
  auto decoded = link.receiver.decodeView(out.bytes());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->keyframe);
  expectViewEq(decoded->view, quantizedView(link.codec, view));
}

// Seeded lossy link: frames and acks are dropped, acks arrive 0..W ticks
// late and out of order, entities move, spawn and despawn. Some ticks send
// no frame at all (a shed observer's link skips them), and acks for those
// never-sent ticks arrive too. The receiver's retention (the W window and
// its floor) must never lose a baseline the sender names, and every
// applied view must be exactly the lattice image of the view that was sent.
TEST(BaselineLinkTest, LossyLinkDecodesEveryFrameWhoseBaselineWasApplied) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 4;
  Link link(profile, kAllFields);
  Rng rng(0xB45E);
  SnapshotView view;
  std::uint64_t nextId = 3;
  for (int i = 0; i < 24; ++i, nextId += 3) view.push_back(makeView({nextId}).front());

  struct Ack {
    std::uint64_t due;
    std::uint64_t tick;
  };
  std::deque<Ack> acks;
  std::set<std::uint64_t> applied;
  std::size_t deltasDecoded = 0;
  for (std::uint64_t tick = 1; tick <= 2000; ++tick) {
    for (auto it = acks.begin(); it != acks.end();) {
      if (it->due > tick) {
        ++it;
        continue;
      }
      link.sender.onAck(it->tick);
      it = acks.erase(it);
    }
    if (rng.chance(0.1)) {  // tick skipped: no frame, yet an ack for it
      acks.push_back({tick + rng.uniformInt(0, profile.baselineAckWindow), tick});
      continue;
    }
    for (EntitySnapshot& s : view) {
      if (!rng.chance(0.2)) continue;
      s.x += static_cast<float>(rng.uniform(-2.0, 2.0));
      s.y += static_cast<float>(rng.uniform(-2.0, 2.0));
      s.version += 1;
    }
    std::vector<EntityId> removed;
    if (rng.chance(0.05)) {
      const std::size_t victim = static_cast<std::size_t>(rng.uniformInt(0, view.size() - 1));
      removed.push_back(view[victim].id);
      view.erase(view.begin() + static_cast<std::ptrdiff_t>(victim));
      EntitySnapshot spawned = sampleSnapshot();
      spawned.id = EntityId{nextId};
      nextId += 1 + rng.uniformInt(0, 3);
      view.push_back(spawned);
    }

    ser::ByteWriter out;
    const bool keyframe = link.sender.encodeView(tick, view, removed, out);
    if (rng.chance(0.2)) continue;  // frame dropped

    bool baselineApplied = true;
    if (!keyframe) {
      // Header: flag, tick, then the baseline tick.
      ser::ByteReader header(out.bytes());
      (void)header.readU8();
      (void)header.readVarU64();
      baselineApplied = applied.contains(header.readVarU64());
    }
    auto decoded = link.receiver.decodeView(out.bytes());
    ASSERT_EQ(decoded.has_value(), baselineApplied) << "tick " << tick;
    if (!decoded) continue;
    EXPECT_EQ(decoded->keyframe, keyframe);
    expectViewEq(decoded->view, quantizedView(link.codec, view));
    EXPECT_EQ(std::vector<EntityId>(decoded->removed.begin(), decoded->removed.end()), removed);
    applied.insert(tick);
    if (!keyframe) ++deltasDecoded;
    if (rng.chance(0.2)) continue;  // ack dropped
    acks.push_back({tick + rng.uniformInt(0, profile.baselineAckWindow), tick});
  }
  EXPECT_GT(deltasDecoded, 800u);
}

// The lossy link at several windows, with frames delivered 0..2 ticks late
// so they overtake each other. A frame at or below the receiver's latest
// tick is stale and skipped; every other frame whose baseline was applied
// decodes to the lattice image of the view sent. After each decode the
// receiver holds no view older than the newest baseline a decoded frame
// named (its floor), nor than latest - W.
TEST(BaselineLinkTest, ReorderedLossyLinksKeepOnlyBaselinesASenderCanName) {
  for (const std::uint64_t window : {1, 2, 4, 16}) {
    SCOPED_TRACE(window);
    ReplicationProfile profile;
    profile.baselineAckWindow = window;
    Link link(profile, kAllFields);
    Rng rng(0xF100D + window);
    SnapshotView view;
    std::uint64_t nextId = 3;
    for (int i = 0; i < 24; ++i, nextId += 3) view.push_back(makeView({nextId}).front());

    struct InFlight {
      std::uint64_t due;
      std::uint64_t tick;
      std::vector<std::uint8_t> payload;
      SnapshotView sent;
      std::vector<EntityId> removed;
    };
    struct Ack {
      std::uint64_t due;
      std::uint64_t tick;
    };
    std::vector<InFlight> frames;
    std::vector<Ack> acks;
    std::set<std::uint64_t> applied;
    std::uint64_t floor = 0;
    std::size_t deltasDecoded = 0;
    std::size_t staleSkipped = 0;
    for (std::uint64_t tick = 1; tick <= 2000; ++tick) {
      std::erase_if(acks, [&](const Ack& ack) {
        if (ack.due > tick) return false;
        link.sender.onAck(ack.tick);
        return true;
      });
      if (rng.chance(0.1)) {  // tick skipped: no frame, yet an ack for it
        acks.push_back({tick + rng.uniformInt(0, window), tick});
        continue;
      }
      for (EntitySnapshot& s : view) {
        if (!rng.chance(0.2)) continue;
        s.x += static_cast<float>(rng.uniform(-2.0, 2.0));
        s.version += 1;
      }
      std::vector<EntityId> removed;
      if (rng.chance(0.05)) {
        const std::size_t victim = static_cast<std::size_t>(rng.uniformInt(0, view.size() - 1));
        removed.push_back(view[victim].id);
        view.erase(view.begin() + static_cast<std::ptrdiff_t>(victim));
        EntitySnapshot spawned = sampleSnapshot();
        spawned.id = EntityId{nextId};
        nextId += 1 + rng.uniformInt(0, 3);
        view.push_back(spawned);
      }
      ser::ByteWriter out;
      link.sender.encodeView(tick, view, removed, out);
      if (!rng.chance(0.2)) {  // else the frame is dropped
        frames.push_back({tick + rng.uniformInt(0, 2), tick, std::move(out).take(), view, removed});
      }

      for (auto it = frames.begin(); it != frames.end();) {
        if (it->due > tick) {
          ++it;
          continue;
        }
        const InFlight frame = std::move(*it);
        it = frames.erase(it);
        const bool stale = link.receiver.hasView() && frame.tick <= link.receiver.latestTick();
        const std::optional<std::uint64_t> named = namedBaseline(frame.payload);
        const bool applicable = !stale && (!named || applied.contains(*named));
        auto decoded = link.receiver.decodeView(frame.payload);
        ASSERT_EQ(decoded.has_value(), applicable) << "tick " << frame.tick;
        if (!decoded) {
          if (stale) ++staleSkipped;
          continue;
        }
        expectViewEq(decoded->view, quantizedView(link.codec, frame.sent));
        EXPECT_EQ(std::vector<EntityId>(decoded->removed.begin(), decoded->removed.end()),
                  frame.removed);
        applied.insert(frame.tick);
        if (named) {
          EXPECT_GE(*named, floor) << "tick " << frame.tick;
          floor = *named;
          ++deltasDecoded;
        }
        const std::uint64_t oldest = std::max(floor, frame.tick - std::min(frame.tick, window));
        for (const std::uint64_t live : liveTicks(link.receiver)) {
          ASSERT_GE(live, oldest) << "tick " << frame.tick;
        }
        if (rng.chance(0.2)) continue;  // ack dropped
        acks.push_back({tick + rng.uniformInt(0, window), frame.tick});
      }
    }
    EXPECT_GT(deltasDecoded, 200u);
    EXPECT_GT(staleSkipped, 50u);
  }
}

// A sender's acked tick never falls, so no frame names a baseline older
// than one a decoded frame has named: the receiver dropped those views,
// and skips a frame naming one without touching the views it holds.
TEST(BaselineLinkTest, DeltaAgainstABaselineBelowTheFloorIsSkipped) {
  ReplicationProfile profile;
  profile.keyframeInterval = 1000;  // periodic keyframes out of the way
  Link link(profile);
  SnapshotView view = makeView({1, 2});
  for (std::uint64_t tick = 1; tick <= 3; ++tick) {
    entry(view, 1).x += 1.0f;
    ASSERT_TRUE(link.step(tick, view).has_value());
  }
  // Tick 3 named tick 2: views 2 and 3 are all a sender can still name.
  ASSERT_EQ(liveTicks(link.receiver), (std::vector<std::uint64_t>{2, 3}));

  ser::ByteWriter older;  // a delta at tick 4 against tick 1
  older.writeU8(0);
  older.writeVarU64(4);
  older.writeVarU64(1);  // baseline tick
  older.writeVarU64(0);
  older.writeVarU64(0);
  EXPECT_FALSE(link.receiver.decodeView(older.bytes()).has_value());
  EXPECT_EQ(link.receiver.latestTick(), 3u);
  EXPECT_EQ(liveTicks(link.receiver), (std::vector<std::uint64_t>{2, 3}));

  entry(view, 2).y += 2.0f;
  auto decoded = link.step(4, view);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->keyframe);
  expectViewEq(decoded->view, quantizedView(link.codec, view));
}

// On a clean link acked every tick each delta names the tick before it, so
// the receiver holds that view and the newest. A periodic keyframe names
// none: until the next delta names it, the view the delta before it named
// stays too.
TEST(BaselineLinkTest, CleanAckedLinkHoldsTwoViewsOrThreeAfterAKeyframe) {
  Link link;  // the default profile: W = 16, a keyframe every 64 ticks
  SnapshotView view = makeView({1, 2, 3, 4});
  std::size_t periodicKeyframes = 0;
  for (std::uint64_t tick = 1; tick <= 200; ++tick) {
    entry(view, 1 + tick % 4).x += 1.0f;
    auto decoded = link.step(tick, view);
    ASSERT_TRUE(decoded.has_value());
    const std::size_t live = liveTicks(link.receiver).size();
    if (decoded->keyframe && tick > 1) {
      ++periodicKeyframes;
      EXPECT_EQ(live, 3u) << "tick " << tick;
    } else {
      EXPECT_LE(live, 2u) << "tick " << tick;
    }
    EXPECT_LE(link.receiver.retained().size(), 4u) << "tick " << tick;
  }
  EXPECT_EQ(periodicKeyframes, 3u);
}

// A re-homed client resets its receiver and then hears from a server whose
// ticks may lie far below its old server's. The reset drops the floor too:
// the new sender keyframes until its first ack lands, and its first delta
// names its first keyframe, below the old server's baselines.
TEST(BaselineLinkTest, ResetDropsTheFloorOfThePreviousServer) {
  Link link;
  SnapshotView view = makeView({1, 2});
  for (std::uint64_t tick = 500; tick <= 503; ++tick) {
    entry(view, 1).x += 1.0f;
    ASSERT_TRUE(link.step(tick, view).has_value());
  }

  link.receiver.reset();
  BaselineSender next{link.codec, kAllFields};
  for (const std::uint64_t tick : {300, 301}) {  // the ack for 300 is still in flight
    ser::ByteWriter key;
    ASSERT_TRUE(next.encodeView(tick, view, {}, key));
    ASSERT_TRUE(link.receiver.decodeView(key.bytes()).has_value());
  }
  next.onAck(300);
  entry(view, 2).x += 1.0f;
  ser::ByteWriter out;
  ASSERT_FALSE(next.encodeView(302, view, {}, out));
  ASSERT_EQ(namedBaseline(out.bytes()), 300u);
  auto decoded = link.receiver.decodeView(out.bytes());
  ASSERT_TRUE(decoded.has_value());
  expectViewEq(decoded->view, quantizedView(link.codec, view));
}

// --- cluster-level properties --------------------------------------------

struct EntityState {
  std::uint64_t id{0};
  double x{0}, y{0}, vx{0}, vy{0}, health{0};
  std::uint64_t version{0};
  bool operator==(const EntityState&) const = default;
};

std::vector<std::vector<EntityState>> runScenario(ReplicationCodec codec, std::uint64_t seed,
                                                  std::size_t bots) {
  game::FpsApplication app;
  ClusterConfig config;
  config.serverTemplate.replication.codec = codec;
  config.seed = seed;
  Cluster cluster(app, config);
  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  cluster.addServer(zone);
  for (std::size_t i = 0; i < bots; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }
  cluster.run(SimDuration::seconds(3));

  std::vector<std::vector<EntityState>> worlds;
  for (const ServerId id : cluster.serverIds()) {
    std::vector<EntityState> entities;
    cluster.server(id).world().forEach([&](const auto& e) {
      entities.push_back(EntityState{e.id.value, e.position.x, e.position.y, e.velocity.x,
                                     e.velocity.y, e.health, e.version});
    });
    worlds.push_back(std::move(entities));
  }
  return worlds;
}

// The delta codec changes the wire, not the game: bots decide from the id
// set they see, the view carries the same information as the full update,
// and quantization only affects what clients *display*. A full-mode run and
// a delta-mode run from the same seed must therefore produce bit-identical
// authoritative worlds.
TEST(ReplicationPropertyTest, FullAndDeltaRunsAreEquivalentOnACleanNetwork) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const std::size_t bots : {4ull, 10ull}) {
      const auto full = runScenario(ReplicationCodec::kFull, seed, bots);
      const auto delta = runScenario(ReplicationCodec::kDelta, seed, bots);
      ASSERT_EQ(full.size(), delta.size());
      for (std::size_t s = 0; s < full.size(); ++s) {
        EXPECT_EQ(full[s], delta[s]) << "seed " << seed << " bots " << bots << " server " << s;
      }
    }
  }
}

// Chaos on the replica links breaks baselines; the ack-window keyframe
// fallback must heal every shadow once the network recovers. Cross-mode
// equality does NOT hold under faults (drops perturb the two runs
// differently), so this checks delta-mode self-consistency instead.
TEST(ReplicationPropertyTest, DeltaShadowsReconvergeAfterChaosHeals) {
  game::FpsApplication app;
  ClusterConfig config;
  config.serverTemplate.replication.codec = ReplicationCodec::kDelta;
  config.seed = 0xC0DEC;
  Cluster cluster(app, config);
  const ZoneId zone = cluster.createZone("arena");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  for (int i = 0; i < 8; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }
  cluster.run(SimDuration::seconds(1));

  net::FaultInjector& faults = cluster.enableFaultInjection(0x5EED);
  net::FaultParams storm;
  storm.dropProbability = 0.3;
  storm.jitterMax = SimDuration::milliseconds(5);
  faults.setDefaultFaults(storm);
  cluster.run(SimDuration::seconds(2));
  faults.setDefaultFaults(net::FaultParams{});

  // Quiesce past the keyframe interval so every replica link has resynced.
  cluster.run(SimDuration::seconds(4));

  EXPECT_EQ(cluster.server(a).world().avatarCount(), 8u);
  EXPECT_EQ(cluster.server(b).world().avatarCount(), 8u);
  for (const ClientId c : cluster.clientIds()) {
    const EntityId avatar = cluster.client(c).avatar();
    const auto onA = cluster.server(a).world().find(avatar);
    const auto onB = cluster.server(b).world().find(avatar);
    ASSERT_TRUE(onA.has_value());
    ASSERT_TRUE(onB.has_value());
    // One of the two is the active copy; the other is a shadow at most a
    // replication round-trip behind. Same tolerance as the full-codec
    // shadow-tracking test.
    EXPECT_NEAR(onA->position.x, onB->position.x, 25.0);
    EXPECT_NEAR(onA->position.y, onB->position.y, 25.0);
    EXPECT_EQ(onA->client, onB->client);
  }
}

}  // namespace
}  // namespace roia::rtf
