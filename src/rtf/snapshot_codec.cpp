#include "rtf/snapshot_codec.hpp"

#include <algorithm>
#include <cmath>

namespace roia::rtf {
namespace {

// One lattice step per world unit times scale; symmetric rounding so the
// quantization error bound |decoded - true| <= 0.5/scale holds everywhere.
std::int64_t quant(float v, double scale) {
  return std::llround(static_cast<double>(v) * scale);
}

float dequant(std::int64_t q, double scale) {
  return static_cast<float>(static_cast<double>(q) / scale);
}

/// Zigzag varint of the lattice delta when scaled, raw F32 otherwise. The
/// value is computed content, so each direction is written out.
void scaledDelta(ser::WireOut& io, float base, float now, double scale) {
  if (scale > 0.0) {
    io.svar(quant(now, scale) - quant(base, scale));
  } else {
    io.f32(now);
  }
}

void scaledDelta(ser::WireIn& io, float base, float& now, double scale) {
  if (scale > 0.0) {
    std::int64_t delta = 0;
    io.svar(delta);
    now = dequant(quant(base, scale) + delta, scale);
  } else {
    io.f32(now);
  }
}

bool scaledEqual(float a, float b, double scale) {
  if (scale > 0.0) return quant(a, scale) == quant(b, scale);
  return a == b;
}

// The schema table. Row order is the wire order of both the full snapshot
// layout and the masked fields inside a delta entry; it must stay the
// legacy order (id, kind, owner, client, x, y, vx, vy, health, version,
// appData) so full-mode bytes never move. roia-lint checks that every
// EntitySnapshot member appears here.
constexpr SnapshotSchemaRow kSnapshotSchema[] = {
    {SnapshotField::kId, "id"},
    {SnapshotField::kKind, "kind"},
    {SnapshotField::kOwner, "owner"},
    {SnapshotField::kClient, "client"},
    {SnapshotField::kX, "x"},
    {SnapshotField::kY, "y"},
    {SnapshotField::kVx, "vx"},
    {SnapshotField::kVy, "vy"},
    {SnapshotField::kHealth, "health"},
    {SnapshotField::kVersion, "version"},
    {SnapshotField::kAppData, "appData"},
};

/// The delta entry layout: the mask, then every masked field in schema
/// order, positions and velocities as lattice deltas and the version as a
/// difference against `from` (the baseline entry). When decoding, `s` holds
/// the baseline on entry, so `from` may alias it.
template <class IO>
void wireEntry(IO& io, const EntitySnapshot& from, ser::WireRef<IO, EntitySnapshot> s,
               ser::WireRef<IO, FieldMask> mask, const ReplicationProfile& profile) {
  io.var(mask);
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    if (row.field == SnapshotField::kId) continue;
    if ((mask & fieldBit(row.field)) == 0) continue;
    switch (row.field) {
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
        scaledDelta(io, from.x, s.x, profile.positionScale);
        break;
      case SnapshotField::kY:
        scaledDelta(io, from.y, s.y, profile.positionScale);
        break;
      case SnapshotField::kVx:
        scaledDelta(io, from.vx, s.vx, profile.velocityScale);
        break;
      case SnapshotField::kVy:
        scaledDelta(io, from.vy, s.vy, profile.velocityScale);
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

StateUpdateMsg SnapshotCodec::decodeStateUpdate(const ser::Frame& frame) {
  if (frame.type != ser::MessageType::kStateUpdate) {
    throw ser::DecodeError("unexpected frame type");
  }
  ser::ByteReader reader(frame.payload);
  StateUpdateMsg msg;
  msg.serverTick = reader.readVarU64();
  msg.update = reader.readBytes();
  return msg;
}

EntitySnapshot SnapshotCodec::quantized(const EntitySnapshot& snapshot) const {
  EntitySnapshot out = snapshot;
  if (profile_.positionScale > 0.0) {
    out.x = dequant(quant(out.x, profile_.positionScale), profile_.positionScale);
    out.y = dequant(quant(out.y, profile_.positionScale), profile_.positionScale);
  }
  if (profile_.velocityScale > 0.0) {
    out.vx = dequant(quant(out.vx, profile_.velocityScale), profile_.velocityScale);
    out.vy = dequant(quant(out.vy, profile_.velocityScale), profile_.velocityScale);
  }
  return out;
}

FieldMask SnapshotCodec::changedFields(const EntitySnapshot& base, const EntitySnapshot& now,
                                       FieldMask allowed) const {
  FieldMask mask = 0;
  if (!scaledEqual(base.x, now.x, profile_.positionScale)) mask |= fieldBit(SnapshotField::kX);
  if (!scaledEqual(base.y, now.y, profile_.positionScale)) mask |= fieldBit(SnapshotField::kY);
  if (!scaledEqual(base.vx, now.vx, profile_.velocityScale)) mask |= fieldBit(SnapshotField::kVx);
  if (!scaledEqual(base.vy, now.vy, profile_.velocityScale)) mask |= fieldBit(SnapshotField::kVy);
  if (base.health != now.health) mask |= fieldBit(SnapshotField::kHealth);
  if (base.version != now.version) mask |= fieldBit(SnapshotField::kVersion);
  if (base.kind != now.kind) mask |= fieldBit(SnapshotField::kKind);
  if (base.owner != now.owner) mask |= fieldBit(SnapshotField::kOwner);
  if (base.client != now.client) mask |= fieldBit(SnapshotField::kClient);
  if (base.appData != now.appData) mask |= fieldBit(SnapshotField::kAppData);
  return static_cast<FieldMask>(mask & allowed);
}

// roia-hot
void SnapshotCodec::writeEntry(ser::ByteWriter& writer, const EntitySnapshot* base,
                               const EntitySnapshot& now, FieldMask mask) const {
  static const EntitySnapshot kDefault{};
  ser::WireOut out(writer);
  wireEntry(out, base != nullptr ? *base : kDefault, now, mask, profile_);
}

EntitySnapshot SnapshotCodec::readEntry(ser::ByteReader& reader, EntityId id,
                                        const SnapshotView* baseline) const {
  EntitySnapshot s;
  if (baseline != nullptr) {
    auto it = baseline->find(id);
    if (it != baseline->end()) s = it->second;
  }
  s.id = id;
  ser::WireIn in(reader);
  FieldMask mask = 0;
  wireEntry(in, s, s, mask, profile_);
  return s;
}

BaselineSender::EncodeResult BaselineSender::encodeView(std::uint64_t tick, SnapshotView view,
                                                        std::span<const EntityId> removed,
                                                        ser::ByteWriter& out) {
  const ReplicationProfile& profile = codec_->profile();
  for (auto& [id, snap] : view) snap = codec_->quantized(snap);

  const bool baselineUsable = hasAcked_ && tick >= ackedTick_ &&
                              tick - ackedTick_ <= profile.baselineAckWindow &&
                              sent_.find(ackedTick_) != sent_.end();
  const bool periodicDue =
      !sentAny_ || profile.keyframeInterval == 0 || tick - lastKeyframeTick_ >= profile.keyframeInterval;
  const bool keyframe = !baselineUsable || periodicDue;

  out.writeU8(keyframe ? 1 : 0);
  out.writeVarU64(tick);
  const SnapshotView* baseline = nullptr;
  if (!keyframe) {
    out.writeVarU64(ackedTick_);
    baseline = &sent_.at(ackedTick_);
  }

  // Entries walk the view in ascending id order (std::map), so ids are
  // gap-encoded: the first absolute, the rest as the (positive) difference
  // from the previous entry — one byte for dense id ranges.
  out.writeVarU64(view.size());
  std::uint64_t prevId = 0;
  for (const auto& [id, snap] : view) {
    out.writeVarU64(id.value - prevId);
    prevId = id.value;
    const EntitySnapshot* base = nullptr;
    if (baseline != nullptr) {
      auto it = baseline->find(id);
      if (it != baseline->end()) base = &it->second;
    }
    static const EntitySnapshot kDefault{};
    const FieldMask mask = codec_->changedFields(base != nullptr ? *base : kDefault, snap, fields_);
    codec_->writeEntry(out, base, snap, mask);
  }
  std::vector<std::uint64_t> removedIds;
  removedIds.reserve(removed.size());
  for (const EntityId id : removed) removedIds.push_back(id.value);
  std::sort(removedIds.begin(), removedIds.end());
  out.writeVarU64(removedIds.size());
  prevId = 0;
  for (const std::uint64_t id : removedIds) {
    out.writeVarU64(id - prevId);
    prevId = id;
  }

  const EncodeResult result{keyframe, view.size()};
  if (keyframe) lastKeyframeTick_ = tick;
  sentAny_ = true;
  sent_.insert_or_assign(tick, std::move(view));

  // Retained views are bounded: keep enough history to cover acks that are
  // still in flight, never evicting the acked baseline itself.
  const std::size_t cap = static_cast<std::size_t>(2 * profile.baselineAckWindow + 2);
  while (sent_.size() > cap) {
    auto it = sent_.begin();
    if (hasAcked_ && it->first == ackedTick_) ++it;
    if (it == sent_.end()) break;
    sent_.erase(it);
  }
  return result;
}

void BaselineSender::onAck(std::uint64_t tick) {
  // Acks for ticks we never sent (stale acks from a previous incarnation of
  // this link after re-homing or crash recovery) must not poison the
  // baseline selection.
  if (sent_.find(tick) == sent_.end()) return;
  if (hasAcked_ && tick <= ackedTick_) return;
  ackedTick_ = tick;
  hasAcked_ = true;
  sent_.erase(sent_.begin(), sent_.lower_bound(tick));
}

std::optional<BaselineReceiver::DecodedView> BaselineReceiver::decodeView(
    std::span<const std::uint8_t> payload) {
  ser::ByteReader reader(payload);
  const std::uint8_t flags = reader.readU8();
  const bool keyframe = (flags & 1u) != 0;
  const std::uint64_t tick = reader.readVarU64();
  if (hasLatest_ && tick <= latest_) return std::nullopt;

  const SnapshotView* baseline = nullptr;
  if (!keyframe) {
    const std::uint64_t baselineTick = reader.readVarU64();
    auto it = views_.find(baselineTick);
    // Baseline lost (the ack for it raced a drop): skip the frame; the
    // sender keyframes once its ack window expires.
    if (it == views_.end()) return std::nullopt;
    baseline = &it->second;
  }

  const std::uint64_t count = reader.readVarU64();
  // Every entry occupies multiple bytes; a count beyond the remaining
  // payload is malformed (and must not drive a huge allocation).
  if (count > reader.remaining()) throw ser::DecodeError("implausible entry count");
  SnapshotView view;
  std::uint64_t prevId = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t gap = reader.readVarU64();
    if (i > 0 && gap == 0) throw ser::DecodeError("non-ascending entry id");
    const EntityId id{prevId + gap};
    prevId = id.value;
    view.insert_or_assign(id, codec_->readEntry(reader, id, baseline));
  }
  const std::uint64_t removedCount = reader.readVarU64();
  if (removedCount > reader.remaining()) throw ser::DecodeError("implausible removed count");
  std::vector<EntityId> removed;
  removed.reserve(removedCount);
  prevId = 0;
  for (std::uint64_t i = 0; i < removedCount; ++i) {
    prevId += reader.readVarU64();
    removed.push_back(EntityId{prevId});
  }

  latest_ = tick;
  hasLatest_ = true;
  auto [stored, inserted] = views_.insert_or_assign(tick, std::move(view));
  (void)inserted;
  const std::uint64_t keep = 2 * codec_->profile().baselineAckWindow + 2;
  while (!views_.empty() && views_.begin()->first + keep < latest_) {
    views_.erase(views_.begin());
  }
  return DecodedView{tick, keyframe, &stored->second, std::move(removed)};
}

void BaselineReceiver::reset() {
  views_.clear();
  latest_ = 0;
  hasLatest_ = false;
}

}  // namespace roia::rtf
