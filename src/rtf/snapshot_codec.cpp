#include "rtf/snapshot_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "common/math.hpp"

namespace roia::rtf {
namespace {

// The implicit default baseline entry of keyframes and spawns.
const EntitySnapshot kDefaultEntry{};

// One lattice step per world unit times scale; symmetric rounding so the
// quantization error bound |decoded - true| <= 0.5/scale holds everywhere.
std::int64_t quant(float v, double scale) {
  return roundHalfAway(static_cast<double>(v) * scale);
}

float dequant(std::int64_t q, double scale) {
  return static_cast<float>(static_cast<double>(q) / scale);
}

/// A scaled field travels as its lattice step from the base entry (zigzag
/// varint), an unscaled one as raw F32. The sender found the step with the
/// mask (SnapshotCodec::diff); the receiver adds it to the base's lattice
/// value.
template <class IO>
void scaledField(IO& io, float base, ser::WireRef<IO, float> now,
                 ser::WireRef<IO, std::int64_t> step, double scale) {
  if (scale <= 0.0) {
    io.f32(now);
    return;
  }
  io.svar(step);
  if constexpr (IO::kDecoding) now = dequant(quant(base, scale) + step, scale);
}

/// `to = from`, but the appData vector is touched only when either side
/// holds bytes: client views never do, and an empty-to-empty assignment
/// still costs a call per entry. The structured binding names every data
/// member, so a field added to EntitySnapshot does not compile here until
/// it is copied too.
void copyEntry(EntitySnapshot& to, const EntitySnapshot& from) {
  const auto& [id, kind, owner, client, x, y, vx, vy, health, version, appData] = from;
  to.id = id;
  to.kind = kind;
  to.owner = owner;
  to.client = client;
  to.x = x;
  to.y = y;
  to.vx = vx;
  to.vy = vy;
  to.health = health;
  to.version = version;
  if (!to.appData.empty() || !appData.empty()) to.appData = appData;
}

// The schema table. Row order is the wire order of both the full snapshot
// layout and the masked fields inside a delta entry; it must stay the
// legacy order (id, kind, owner, client, x, y, vx, vy, health, version,
// appData) so full-mode bytes never move.
constexpr SnapshotSchemaRow kSnapshotSchema[] = {
    {SnapshotField::kId},
    {SnapshotField::kKind},
    {SnapshotField::kOwner},
    {SnapshotField::kClient},
    {SnapshotField::kX},
    {SnapshotField::kY},
    {SnapshotField::kVx},
    {SnapshotField::kVy},
    {SnapshotField::kHealth},
    {SnapshotField::kVersion},
    {SnapshotField::kAppData},
};

/// Converts to any member type; only ever named in unevaluated checks.
struct AnyMember {
  template <class T>
  operator T() const;
};

/// The number of members of aggregate T: the largest n for which
/// T{AnyMember, ... n times} is well-formed.
template <class T, class... Members>
constexpr std::size_t memberCount() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return memberCount<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

// A member added to EntitySnapshot needs its schema row (and its case in
// the walkers below) before this compiles.
static_assert(std::size(kSnapshotSchema) == memberCount<EntitySnapshot>(),
              "every EntitySnapshot member needs a kSnapshotSchema row");

/// The maskable fields in wire order: kSnapshotSchema without its id row.
constexpr std::array<SnapshotField, std::size(kSnapshotSchema) - 1> kWireOrder = [] {
  std::array<SnapshotField, std::size(kSnapshotSchema) - 1> order{};
  std::size_t next = 0;
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    if (row.field != SnapshotField::kId) order[next++] = row.field;
  }
  return order;
}();

/// Every mask with its bits renumbered to wire order: bit i of
/// kWireMask[mask] stands for kWireOrder[i], so walking its set bits from
/// the lowest visits exactly the masked fields, in wire order.
constexpr std::array<FieldMask, kAllFields + 1> kWireMask = [] {
  std::array<FieldMask, kAllFields + 1> table{};
  for (std::size_t mask = 0; mask < table.size(); ++mask) {
    for (std::size_t i = 0; i < kWireOrder.size(); ++i) {
      if ((mask & fieldBit(kWireOrder[i])) != 0) table[mask] |= static_cast<FieldMask>(1u << i);
    }
  }
  return table;
}();

/// The delta entry layout: the mask, then every masked field in schema
/// order, positions and velocities as lattice steps and the version as a
/// difference against `from` (the baseline entry). When decoding, `s` holds
/// the baseline on entry, so `from` may alias it. Mask bits no field owns
/// are ignored.
template <class IO>
void wireEntry(IO& io, const EntitySnapshot& from, ser::WireRef<IO, EntitySnapshot> s,
               ser::WireRef<IO, EntryDiff> diff, const ReplicationProfile& profile) {
  io.var(diff.mask);
  for (FieldMask rest = kWireMask[diff.mask & kAllFields]; rest != 0; rest &= rest - 1) {
    switch (kWireOrder[std::countr_zero(rest)]) {
      case SnapshotField::kId:
        break;
      case SnapshotField::kKind:
        io.u8(s.kind);
        break;
      case SnapshotField::kOwner:
        io.var(s.owner.value);
        break;
      case SnapshotField::kClient:
        io.var(s.client.value);
        break;
      case SnapshotField::kX:
        scaledField(io, from.x, s.x, diff.x, profile.positionScale);
        break;
      case SnapshotField::kY:
        scaledField(io, from.y, s.y, diff.y, profile.positionScale);
        break;
      case SnapshotField::kVx:
        scaledField(io, from.vx, s.vx, diff.vx, profile.velocityScale);
        break;
      case SnapshotField::kVy:
        scaledField(io, from.vy, s.vy, diff.vy, profile.velocityScale);
        break;
      case SnapshotField::kHealth:
        io.f32(s.health);
        break;
      case SnapshotField::kVersion:
        io.svarDelta(from.version, s.version);
        break;
      case SnapshotField::kAppData:
        io.bytes(s.appData);
        break;
    }
  }
}

/// One merge-walk step: advances `cursor` through the id-ascending `view`
/// to `id` and returns that entry, or nullptr when `view` has none. Ids
/// visited in ascending order cost one pass over `view` in total.
const EntitySnapshot* seek(std::span<const EntitySnapshot> view, std::size_t& cursor,
                           EntityId id) {
  while (cursor < view.size() && view[cursor].id.value < id.value) ++cursor;
  return cursor < view.size() && view[cursor].id == id ? &view[cursor] : nullptr;
}

RetainedView* findLive(std::vector<RetainedView>& slots, std::uint64_t tick) {
  for (RetainedView& slot : slots) {
    if (slot.live && slot.tick == tick) return &slot;
  }
  return nullptr;
}

/// A dead slot for the next view, which takes over its buffer (a new slot
/// only when none is dead). The caller marks it live once the view is
/// complete.
RetainedView& deadSlot(std::vector<RetainedView>& slots) {
  const auto dead = std::find_if(slots.begin(), slots.end(),
                                 [](const RetainedView& slot) { return !slot.live; });
  return dead != slots.end() ? *dead : slots.emplace_back();
}

/// The one retention rule of both link ends. A sender diffs only against
/// an acked tick >= tick - W (W = baselineAckWindow), so once `newest` is
/// stored no later frame can name a view older than newest - W (one view
/// of slack), nor one older than `floor`, the acked tick as that end knows
/// it (the sender's own, or the newest baseline a receiver has seen named):
/// their slots die.
void forgetOld(std::vector<RetainedView>& slots, std::uint64_t newest, std::uint64_t window,
               std::uint64_t floor) {
  const std::uint64_t oldest = std::max(newest - std::min(newest, window), floor);
  for (RetainedView& slot : slots) {
    if (slot.tick < oldest) slot.live = false;
  }
}

}  // namespace

std::span<const SnapshotSchemaRow> snapshotSchema() { return kSnapshotSchema; }

template <class IO>
void wire(IO& io, ser::WireRef<IO, EntitySnapshot> snapshot) {
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    switch (row.field) {
      case SnapshotField::kId:
        io.var(snapshot.id.value);
        break;
      case SnapshotField::kKind:
        io.u8(snapshot.kind);
        break;
      case SnapshotField::kOwner:
        io.var(snapshot.owner.value);
        break;
      case SnapshotField::kClient:
        io.var(snapshot.client.value);
        break;
      case SnapshotField::kX:
        io.f32(snapshot.x);
        break;
      case SnapshotField::kY:
        io.f32(snapshot.y);
        break;
      case SnapshotField::kVx:
        io.f32(snapshot.vx);
        break;
      case SnapshotField::kVy:
        io.f32(snapshot.vy);
        break;
      case SnapshotField::kHealth:
        io.f32(snapshot.health);
        break;
      case SnapshotField::kVersion:
        io.var(snapshot.version);
        break;
      case SnapshotField::kAppData:
        io.bytes(snapshot.appData);
        break;
    }
  }
}

template void wire<ser::WireOut>(ser::WireOut&, const EntitySnapshot&);
template void wire<ser::WireIn>(ser::WireIn&, EntitySnapshot&);

// roia-hot
void SnapshotCodec::writeSnapshot(ser::ByteWriter& writer, const EntitySnapshot& snapshot) {
  ser::WireOut out(writer);
  wire(out, snapshot);
}

EntitySnapshot SnapshotCodec::readSnapshot(ser::ByteReader& reader) {
  ser::WireIn in(reader);
  EntitySnapshot snapshot;
  wire(in, snapshot);
  return snapshot;
}

ser::Frame SnapshotCodec::encodeStateUpdate(std::uint64_t serverTick,
                                            std::span<const std::uint8_t> update) {
  ser::ByteWriter writer(8 + update.size());
  writer.writeVarU64(serverTick);
  writer.writeBytes(update);
  ser::Frame frame;
  frame.type = ser::MessageType::kStateUpdate;
  frame.payload = std::move(writer).take();
  return frame;
}

// roia-hot
StateUpdateMsg SnapshotCodec::decodeStateUpdate(const ser::Frame& frame) {
  if (frame.type != ser::MessageType::kStateUpdate) {
    throw ser::DecodeError("unexpected frame type");
  }
  ser::ByteReader reader(frame.payload);
  StateUpdateMsg msg;
  msg.serverTick = reader.readVarU64();
  msg.update = reader.readByteSpan();
  return msg;
}

EntryDiff SnapshotCodec::diff(const EntitySnapshot& base, const EntitySnapshot& now,
                              FieldMask allowed) const {
  // Fields outside `allowed` are never compared: a client link skips the
  // velocity lattice and the appData bytes it never sends. Each allowed
  // scaled coordinate is quantized once per side, for the mask and the step.
  EntryDiff result;
  const auto mark = [&result, allowed](SnapshotField field, auto differs) {
    if ((allowed & fieldBit(field)) != 0 && differs()) result.mask |= fieldBit(field);
  };
  const auto lattice = [](float b, float n, double scale, std::int64_t& step) {
    if (scale <= 0.0) return b != n;
    const std::int64_t qb = quant(b, scale);
    const std::int64_t qn = quant(n, scale);
    step = qn - qb;
    return qn != qb;
  };
  const double ps = profile_.positionScale;
  const double vs = profile_.velocityScale;
  mark(SnapshotField::kX, [&] { return lattice(base.x, now.x, ps, result.x); });
  mark(SnapshotField::kY, [&] { return lattice(base.y, now.y, ps, result.y); });
  mark(SnapshotField::kVx, [&] { return lattice(base.vx, now.vx, vs, result.vx); });
  mark(SnapshotField::kVy, [&] { return lattice(base.vy, now.vy, vs, result.vy); });
  mark(SnapshotField::kHealth, [&] { return base.health != now.health; });
  mark(SnapshotField::kVersion, [&] { return base.version != now.version; });
  mark(SnapshotField::kKind, [&] { return base.kind != now.kind; });
  mark(SnapshotField::kOwner, [&] { return base.owner != now.owner; });
  mark(SnapshotField::kClient, [&] { return base.client != now.client; });
  mark(SnapshotField::kAppData, [&] { return base.appData != now.appData; });
  return result;
}

// roia-hot
void SnapshotCodec::writeEntry(ser::ByteWriter& writer, const EntitySnapshot* base,
                               const EntitySnapshot& now, const EntryDiff& diff) const {
  ser::WireOut out(writer);
  wireEntry(out, base != nullptr ? *base : kDefaultEntry, now, diff, profile_);
}

// roia-hot
void SnapshotCodec::readEntry(ser::ByteReader& reader, EntityId id, const EntitySnapshot* base,
                              EntitySnapshot& out) const {
  copyEntry(out, base != nullptr ? *base : kDefaultEntry);
  out.id = id;
  ser::WireIn in(reader);
  EntryDiff read;
  wireEntry(in, out, out, read, profile_);
}

// roia-hot
bool BaselineSender::encodeView(std::uint64_t tick, std::span<const EntitySnapshot> view,
                                std::span<const EntityId> removed, ser::ByteWriter& out) {
  const auto notAscending = [](const EntitySnapshot& a, const EntitySnapshot& b) {
    return a.id.value >= b.id.value;
  };
  if (std::adjacent_find(view.begin(), view.end(), notAscending) != view.end()) {
    throw std::invalid_argument("encodeView: view ids must be strictly ascending");
  }

  const ReplicationProfile& profile = codec_->profile();
  const RetainedView* acked = hasAcked_ ? findLive(sent_, ackedTick_) : nullptr;
  const bool baselineUsable = acked != nullptr && tick >= ackedTick_ &&
                              tick - ackedTick_ <= profile.baselineAckWindow;
  const bool periodicDue =
      !sentAny_ || profile.keyframeInterval == 0 || tick - lastKeyframeTick_ >= profile.keyframeInterval;
  const bool keyframe = !baselineUsable || periodicDue;

  out.writeU8(keyframe ? 1 : 0);
  out.writeVarU64(tick);
  std::span<const EntitySnapshot> baseline;
  if (!keyframe) {
    out.writeVarU64(ackedTick_);
    baseline = acked->view;
  }

  // Entries walk the view in ascending id order, so ids are gap-encoded:
  // the first absolute, the rest as the (positive) difference from the
  // previous entry — one byte for dense id ranges. The baseline ascends
  // too, so one merge walk finds every entry's base.
  out.writeVarU64(view.size());
  std::uint64_t prevId = 0;
  std::size_t cursor = 0;
  for (const EntitySnapshot& snap : view) {
    out.writeVarU64(snap.id.value - prevId);
    prevId = snap.id.value;
    const EntitySnapshot* base = seek(baseline, cursor, snap.id);
    codec_->writeEntry(out, base, snap,
                       codec_->diff(base != nullptr ? *base : kDefaultEntry, snap, fields_));
  }
  removedIds_.clear();
  for (const EntityId id : removed) removedIds_.push_back(id.value);
  std::sort(removedIds_.begin(), removedIds_.end());
  out.writeVarU64(removedIds_.size());
  prevId = 0;
  for (const std::uint64_t id : removedIds_) {
    out.writeVarU64(id - prevId);
    prevId = id;
  }

  if (keyframe) lastKeyframeTick_ = tick;
  sentAny_ = true;
  // The view is retained as sent: diff snaps both sides onto the lattice,
  // so a raw baseline yields the steps its lattice image would.
  forgetOld(sent_, tick, profile.baselineAckWindow, ackedTick_);
  RetainedView* slot = findLive(sent_, tick);  // a re-encode replaces its tick's view
  if (slot == nullptr) slot = &deadSlot(sent_);
  slot->view.resize(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) copyEntry(slot->view[i], view[i]);
  slot->tick = tick;
  slot->live = true;
  return keyframe;
}

void BaselineSender::onAck(std::uint64_t tick) {
  // Acks for ticks we do not hold (stale acks from a previous incarnation
  // of this link after re-homing or crash recovery, or acks for views the
  // window already dropped) must not poison the baseline selection.
  if (findLive(sent_, tick) == nullptr) return;
  if (hasAcked_ && tick <= ackedTick_) return;
  ackedTick_ = tick;
  hasAcked_ = true;
}

// roia-hot
std::optional<BaselineReceiver::DecodedView> BaselineReceiver::decodeView(
    std::span<const std::uint8_t> payload) {
  ser::ByteReader reader(payload);
  const std::uint8_t flags = reader.readU8();
  const bool keyframe = (flags & 1u) != 0;
  const std::uint64_t tick = reader.readVarU64();
  if (hasLatest_ && tick <= latest_) return std::nullopt;

  // Decoding into a dead slot, a frame that fails to parse leaves every
  // retained view as it was.
  RetainedView& slot = deadSlot(views_);
  std::span<const EntitySnapshot> baseline;
  std::uint64_t baseTick = floor_;
  if (!keyframe) {
    baseTick = reader.readVarU64();
    const RetainedView* base = findLive(views_, baseTick);
    // Baseline lost (the ack for it raced a drop) or older than one already
    // named: skip the frame; the sender keyframes once its ack window
    // expires.
    if (base == nullptr) return std::nullopt;
    baseline = base->view;
  }

  const std::uint64_t count = reader.readVarU64();
  // Every entry occupies multiple bytes; a count beyond the remaining
  // payload is malformed (and must not drive a huge allocation).
  if (count > reader.remaining()) throw ser::DecodeError("implausible entry count");
  SnapshotView& view = slot.view;
  view.resize(count);
  std::uint64_t prevId = 0;
  std::size_t cursor = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t gap = reader.readVarU64();
    // Ids strictly ascend, which the merge walks over retained views rely
    // on: a zero gap repeats an id, a wrapping one goes backwards.
    if (i > 0 && (gap == 0 || gap > std::numeric_limits<std::uint64_t>::max() - prevId)) {
      throw ser::DecodeError("non-ascending entry id");
    }
    const EntityId id{prevId + gap};
    prevId = id.value;
    codec_->readEntry(reader, id, seek(baseline, cursor, id), view[i]);
  }
  const std::uint64_t removedCount = reader.readVarU64();
  if (removedCount > reader.remaining()) throw ser::DecodeError("implausible removed count");
  removed_.clear();
  prevId = 0;
  for (std::uint64_t i = 0; i < removedCount; ++i) {
    const std::uint64_t gap = reader.readVarU64();
    // Removed ids ascend too; a zero gap repeats a removal (the sender
    // sorts them but does not dedupe them), a wrapping one goes backwards.
    if (gap > std::numeric_limits<std::uint64_t>::max() - prevId) {
      throw ser::DecodeError("non-ascending removed id");
    }
    prevId += gap;
    removed_.push_back(EntityId{prevId});
  }

  latest_ = tick;
  hasLatest_ = true;
  // No later frame names a view older than this frame's baseline: the
  // sender names its acked tick, which never falls, and frames at or below
  // `latest_` were refused above. A keyframe keeps the floor.
  floor_ = baseTick;
  forgetOld(views_, tick, codec_->profile().baselineAckWindow, floor_);
  slot.tick = tick;
  slot.live = true;
  return DecodedView{tick, keyframe, view, removed_};
}

void BaselineReceiver::reset() {
  for (RetainedView& slot : views_) slot.live = false;
  latest_ = 0;
  hasLatest_ = false;
  floor_ = 0;
}

}  // namespace roia::rtf
