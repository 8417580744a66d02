// Schema-driven snapshot codec: one per-field schema table drives the full
// (legacy wire-compatible) encoding and the delta encoding, and a
// static_assert ties its row count to EntitySnapshot's member count, so a
// field added to EntitySnapshot cannot silently skip the wire.
//
// Full mode writes every field of every entity each tick — byte-identical
// to the original free-function codec. Delta mode encodes a *view* (the
// entity set one link is interested in, an id-sorted flat array) against
// an acked baseline view retained per link: each entry carries a bit-packed
// field-presence mask and only the fields that changed since the baseline,
// with positions and velocities quantized to fixed-point lattices and
// transmitted as zigzag varint deltas. When no ack lands inside the
// baseline window the sender falls back to a keyframe (a delta against the
// implicit default view), so drops, migration, zone handoff and crash
// recovery all resync through the existing transport without a side
// channel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "rtf/entity.hpp"
#include "serialize/message.hpp"
#include "serialize/wire.hpp"

namespace roia::rtf {

/// Which snapshot codec a server (and its clients/replica peers) runs.
enum class ReplicationCodec : std::uint8_t {
  kFull = 0,   ///< full entity state every tick (the paper's baseline)
  kDelta = 1,  ///< baseline-tracked masked deltas with quantization
};

/// Replication knobs carried by ServerConfig and mirrored to clients by the
/// cluster, so both ends of every link agree on the wire format.
struct ReplicationProfile {
  ReplicationCodec codec{ReplicationCodec::kFull};
  /// Fixed-point lattice units per world unit for x/y; <= 0 keeps exact
  /// F32 (replica links always use the exact variant, see Server).
  double positionScale{16.0};
  /// Lattice units per world-unit-per-second for vx/vy; <= 0 exact.
  double velocityScale{8.0};
  /// A keyframe is forced every this many ticks even with a live baseline,
  /// bounding the damage of an undetected sender/receiver divergence.
  std::uint64_t keyframeInterval{64};
  /// Without an ack newer than tick - window the sender stops trusting its
  /// baseline and keyframes until acks resume.
  std::uint64_t baselineAckWindow{16};
  /// CPU cost (reference microseconds) per entity gathered into a delta
  /// view — the delta analogue of suGatherPerEntityCost.
  double deltaGatherPerEntityCost{0.25};
};

/// Field identities of EntitySnapshot. Mask bit = 1 << value; bits are
/// ordered by change frequency (movement first) so the common masks fit a
/// one-byte varint, independent of the wire order fixed by kSnapshotSchema.
enum class SnapshotField : std::uint8_t {
  kX = 0,
  kY = 1,
  kVx = 2,
  kVy = 3,
  kHealth = 4,
  kVersion = 5,
  kKind = 6,
  kOwner = 7,
  kClient = 8,
  kAppData = 9,
  kId,  ///< the entry key: always written, never masked
};

using FieldMask = std::uint16_t;

[[nodiscard]] constexpr FieldMask fieldBit(SnapshotField field) {
  return static_cast<FieldMask>(1u << static_cast<unsigned>(field));
}

/// Every maskable field (replica links: shadows mirror owner state exactly).
inline constexpr FieldMask kAllFields = 0x3FF;
/// What a game client needs: pose, health, and the owning client id (how a
/// client recognises its own avatar in the view). Velocity is excluded to
/// match the information content of the full-codec client update, which
/// carries {id, x, y, health} only; `version` is excluded deliberately — it
/// bumps every tick and would cost a mask bit per entry.
inline constexpr FieldMask kClientViewFields =
    fieldBit(SnapshotField::kX) | fieldBit(SnapshotField::kY) |
    fieldBit(SnapshotField::kHealth) | fieldBit(SnapshotField::kClient);

/// One entry against its baseline entry, as a sender finds it: the mask of
/// fields whose encoded value differs, and the lattice step (now - base) of
/// each compared scaled field, 0 for the others. Each coordinate is
/// quantized once per side and serves both the mask and the written step.
struct EntryDiff {
  FieldMask mask{0};
  std::int64_t x{0};
  std::int64_t y{0};
  std::int64_t vx{0};
  std::int64_t vy{0};
};

/// The entity set one link sees, in strictly ascending id order: encode
/// order and equality checks are deterministic, and the codec finds each
/// entry's baseline entry with one merge walk.
using SnapshotView = std::vector<EntitySnapshot>;

/// The full snapshot layout: every field in kSnapshotSchema order (see
/// serialize/wire.hpp). Instantiated for ser::WireOut and ser::WireIn in
/// snapshot_codec.cpp, so message walkers can nest snapshots.
template <class IO>
void wire(IO& io, ser::WireRef<IO, EntitySnapshot> snapshot);

/// Server -> client: filtered world delta produced by the application.
struct StateUpdateMsg {
  std::uint64_t serverTick{0};
  /// The application-defined encoding, read in place: a view into the
  /// payload of the decoded frame, valid only while that frame lives.
  std::span<const std::uint8_t> update;
};

/// One row of the snapshot schema: the EntitySnapshot field it serializes.
/// Row order in kSnapshotSchema *is* the wire order.
struct SnapshotSchemaRow {
  SnapshotField field;
};

/// The schema table, in wire order (see snapshot_codec.cpp).
[[nodiscard]] std::span<const SnapshotSchemaRow> snapshotSchema();

class SnapshotCodec {
 public:
  SnapshotCodec() = default;
  explicit SnapshotCodec(const ReplicationProfile& profile) : profile_(profile) {}

  [[nodiscard]] const ReplicationProfile& profile() const { return profile_; }

  // --- full codec (profile-independent; byte-identical to the legacy
  // free functions, so default-mode harness output never moves) ---

  /// Writes every field of `snapshot` in schema order.
  static void writeSnapshot(ser::ByteWriter& writer, const EntitySnapshot& snapshot);
  [[nodiscard]] static EntitySnapshot readSnapshot(ser::ByteReader& reader);

  /// Frames an application-encoded state update (hot path: encodes straight
  /// from the server's reused scratch buffer).
  [[nodiscard]] static ser::Frame encodeStateUpdate(std::uint64_t serverTick,
                                                    std::span<const std::uint8_t> update);
  /// The returned update views `frame`'s payload (no copy), so a
  /// temporary frame is refused at compile time.
  [[nodiscard]] static StateUpdateMsg decodeStateUpdate(const ser::Frame& frame);
  static StateUpdateMsg decodeStateUpdate(const ser::Frame&& frame) = delete;

  // --- delta building blocks (profile-dependent) ---

  /// Compares `now` with its baseline entry `base` over the fields in
  /// `allowed`. Scaled fields (x/y at positionScale, vx/vy at
  /// velocityScale; a scale <= 0 keeps the field exact) compare on their
  /// fixed-point lattices, and their steps are what writeEntry sends;
  /// appData is compared only when `allowed` includes it. A raw value and
  /// its lattice point give the same step while |value * scale| < 2^23, so
  /// `base` may be either (DESIGN §16).
  [[nodiscard]] EntryDiff diff(const EntitySnapshot& base, const EntitySnapshot& now,
                               FieldMask allowed) const;

  /// Writes one delta entry: `diff.mask`, then the masked fields in schema
  /// order, scaled ones as their `diff` steps. The entry's id is written by
  /// the caller (BaselineSender gap-encodes ascending ids). `base` is the
  /// baseline entry (nullptr = implicit default, used by keyframes and
  /// spawns).
  void writeEntry(ser::ByteWriter& writer, const EntitySnapshot* base, const EntitySnapshot& now,
                  const EntryDiff& diff) const;

  /// Reads one delta entry for `id` (already decoded by the caller) into
  /// `out`: `base` (nullptr = implicit default) with the masked fields
  /// applied. `out` is assigned in place, so its appData capacity is reused.
  void readEntry(ser::ByteReader& reader, EntityId id, const EntitySnapshot* base,
                 EntitySnapshot& out) const;

 private:
  ReplicationProfile profile_{};
};

/// One view a link end retains as a baseline, keyed by tick. A dead slot
/// keeps its buffer, and the next view stored takes it over, so steady-state
/// retention allocates nothing.
struct RetainedView {
  std::uint64_t tick{0};
  bool live{false};
  SnapshotView view;
};

/// Per-link delta sender: retains the views it has sent, as the caller
/// passed them (not snapped to the lattice), keyed by tick, and diffs each
/// new view against the newest acked one. Falls back to keyframes when the
/// ack stream stalls (baselineAckWindow) or on the periodic schedule
/// (keyframeInterval).
class BaselineSender {
 public:
  BaselineSender(const SnapshotCodec& codec, FieldMask fields)
      : codec_(&codec), fields_(fields) {}

  /// Encodes `view` for `tick` into `out`, retains a copy of it as a
  /// future baseline, and returns whether the frame is a keyframe. `view`
  /// must be in strictly ascending id order; otherwise this throws
  /// std::invalid_argument before writing anything. `removed` lists ids
  /// that left the sender's responsibility entirely (world removals, not
  /// view exits — receivers treat absence from the view as "out of
  /// interest", not "gone").
  bool encodeView(std::uint64_t tick, std::span<const EntitySnapshot> view,
                  std::span<const EntityId> removed, ser::ByteWriter& out);

  /// Acknowledges that the receiver holds the view of `tick`. Acks for
  /// ticks this sender does not hold (never sent, already forgotten, or
  /// stale acks after re-homing or crash recovery) are ignored.
  void onAck(std::uint64_t tick);

  [[nodiscard]] bool hasAcked() const { return hasAcked_; }

 private:
  const SnapshotCodec* codec_;
  FieldMask fields_;
  /// The views of ticks max(acked, newest - W) .. newest (W =
  /// baselineAckWindow): with an ack every tick, the acked view and the
  /// newest. Dead slots wait for reuse.
  std::vector<RetainedView> sent_;
  std::vector<std::uint64_t> removedIds_;
  std::uint64_t ackedTick_{0};
  bool hasAcked_{false};
  std::uint64_t lastKeyframeTick_{0};
  bool sentAny_{false};
};

/// Per-link delta receiver: reconstructs views from keyframes/deltas,
/// retains them as baselines, and rejects frames it cannot apply (stale
/// tick, missing baseline after a drop) — the sender heals via keyframe
/// once the ack window expires.
class BaselineReceiver {
 public:
  explicit BaselineReceiver(const SnapshotCodec& codec) : codec_(&codec) {}

  struct DecodedView {
    std::uint64_t serverTick{0};
    bool keyframe{false};
    /// Both owned by the receiver; valid until the next decodeView/reset.
    std::span<const EntitySnapshot> view;
    std::span<const EntityId> removed;
  };

  /// Applies one view payload. Returns nullopt when the frame is not
  /// applicable (stale tick, or a baseline never applied or older than one
  /// already named); throws ser::DecodeError on malformed bytes, leaving
  /// the retained views and the floor as they were.
  std::optional<DecodedView> decodeView(std::span<const std::uint8_t> payload);

  /// Drops all baselines, the tick watermark and the floor (client
  /// re-homing, replica link reset after crash recovery).
  void reset();

  [[nodiscard]] bool hasView() const { return hasLatest_; }
  [[nodiscard]] std::uint64_t latestTick() const { return latest_; }
  /// Every slot, live or dead, in no particular order.
  [[nodiscard]] std::span<const RetainedView> retained() const { return views_; }

 private:
  const SnapshotCodec* codec_;
  /// The views of ticks max(floor, latest - W) .. latest (W =
  /// baselineAckWindow): every delta that can still apply names one of
  /// them (DESIGN §16). With an ack every tick, the last baseline named
  /// and the newest view. A frame decodes into a dead slot, which turns
  /// live once the frame has parsed.
  std::vector<RetainedView> views_;
  std::vector<EntityId> removed_;
  std::uint64_t latest_{0};
  bool hasLatest_{false};
  /// The newest baseline tick a fully parsed delta has named: the sender's
  /// acked tick as this end knows it.
  std::uint64_t floor_{0};
};

}  // namespace roia::rtf
