// Entity model of the RTF substrate.
//
// Replication (Fig. 1 of the paper) keeps a complete copy of the zone state
// on every replica: each server is *responsible* for a disjoint subset of
// entities (its "active entities") and mirrors the rest as "shadow
// entities" whose state arrives from the owning servers each tick.
//
// Storage note: the World stores entities column-wise (SoA, see
// rtf/world.hpp). EntityRecord remains the transfer/value type used to
// spawn and snapshot entities; EntityRef/ConstEntityRef are lightweight
// proxies over one stored entity whose members alias the world's columns,
// so call sites keep the familiar `e.position`, `e.owner = x` syntax.
#pragma once

#include <cstdint>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"

namespace roia::rtf {

enum class EntityKind : std::uint8_t {
  kAvatar = 0,  // user-controlled
  kNpc = 1,     // computer-controlled non-player character
};

/// One entity as a standalone value (spawn parameters, migration payloads,
/// test fixtures). Whether it is active or shadow on a given server is
/// derived from `owner` vs. that server's id.
struct EntityRecord {
  EntityId id;
  EntityKind kind{EntityKind::kAvatar};
  ZoneId zone;
  /// Server currently responsible for input processing and state updates.
  ServerId owner;
  /// Connected client for avatars; invalid for NPCs.
  ClientId client;
  Vec2 position;
  Vec2 velocity;
  double health{100.0};
  /// Monotonic per-entity state version; shadows only apply newer snapshots.
  std::uint64_t version{0};
  /// Opaque application-defined state (scores, inventory, ...) marshalled
  /// generically by RTF: replicated to shadows and carried by migrations.
  std::vector<std::uint8_t> appData;

  [[nodiscard]] bool isAvatar() const { return kind == EntityKind::kAvatar; }
  [[nodiscard]] bool isNpc() const { return kind == EntityKind::kNpc; }
  [[nodiscard]] bool activeOn(ServerId server) const { return owner == server; }
};

/// Mutable proxy over one stored entity: every member aliases the owning
/// World's columns (or a standalone EntityRecord via the implicit
/// conversion). Copyable, never assignable; valid until the next structural
/// world mutation — the same invalidation contract as the old record
/// pointers.
struct EntityRef {
  EntityId id;  // ids are immutable once stored: by value
  EntityKind& kind;
  ZoneId& zone;
  ServerId& owner;
  ClientId& client;
  Vec2& position;
  Vec2& velocity;
  double& health;
  std::uint64_t& version;
  std::vector<std::uint8_t>& appData;

  EntityRef(EntityId id_, EntityKind& kind_, ZoneId& zone_, ServerId& owner_, ClientId& client_,
            Vec2& position_, Vec2& velocity_, double& health_, std::uint64_t& version_,
            std::vector<std::uint8_t>& appData_)
      : id(id_),
        kind(kind_),
        zone(zone_),
        owner(owner_),
        client(client_),
        position(position_),
        velocity(velocity_),
        health(health_),
        version(version_),
        appData(appData_) {}

  /// Standalone records bind directly, so application/test code written
  /// against records keeps working unchanged.
  // NOLINTNEXTLINE(google-explicit-constructor)
  EntityRef(EntityRecord& r)
      : EntityRef(r.id, r.kind, r.zone, r.owner, r.client, r.position, r.velocity, r.health,
                  r.version, r.appData) {}

  [[nodiscard]] bool isAvatar() const { return kind == EntityKind::kAvatar; }
  [[nodiscard]] bool isNpc() const { return kind == EntityKind::kNpc; }
  [[nodiscard]] bool activeOn(ServerId server) const { return owner == server; }
};

/// Read-only counterpart of EntityRef.
struct ConstEntityRef {
  EntityId id;
  const EntityKind& kind;
  const ZoneId& zone;
  const ServerId& owner;
  const ClientId& client;
  const Vec2& position;
  const Vec2& velocity;
  const double& health;
  const std::uint64_t& version;
  const std::vector<std::uint8_t>& appData;

  ConstEntityRef(EntityId id_, const EntityKind& kind_, const ZoneId& zone_,
                 const ServerId& owner_, const ClientId& client_, const Vec2& position_,
                 const Vec2& velocity_, const double& health_, const std::uint64_t& version_,
                 const std::vector<std::uint8_t>& appData_)
      : id(id_),
        kind(kind_),
        zone(zone_),
        owner(owner_),
        client(client_),
        position(position_),
        velocity(velocity_),
        health(health_),
        version(version_),
        appData(appData_) {}

  // NOLINTNEXTLINE(google-explicit-constructor)
  ConstEntityRef(const EntityRecord& r)
      : ConstEntityRef(r.id, r.kind, r.zone, r.owner, r.client, r.position, r.velocity, r.health,
                       r.version, r.appData) {}

  // NOLINTNEXTLINE(google-explicit-constructor)
  ConstEntityRef(const EntityRef& r)
      : ConstEntityRef(r.id, r.kind, r.zone, r.owner, r.client, r.position, r.velocity, r.health,
                       r.version, r.appData) {}

  [[nodiscard]] bool isAvatar() const { return kind == EntityKind::kAvatar; }
  [[nodiscard]] bool isNpc() const { return kind == EntityKind::kNpc; }
  [[nodiscard]] bool activeOn(ServerId server) const { return owner == server; }
};

/// Compact wire representation of an entity used for replica sync and
/// migration transfers.
struct EntitySnapshot {
  EntityId id;
  EntityKind kind{EntityKind::kAvatar};
  ServerId owner;
  ClientId client;
  float x{0.0f};
  float y{0.0f};
  float vx{0.0f};
  float vy{0.0f};
  float health{100.0f};
  std::uint64_t version{0};
  std::vector<std::uint8_t> appData;

  /// E: EntityRecord, EntityRef or ConstEntityRef — anything exposing the
  /// entity field names.
  template <class E>
  static EntitySnapshot of(const E& e) {
    EntitySnapshot s;
    s.assignFrom(e, true);
    return s;
  }

  /// Overwrites this snapshot with `e`'s state in place, reusing appData's
  /// capacity. Without `withAppData` appData is left empty: client views
  /// never send it, so their gathers skip the copy.
  template <class E>
  void assignFrom(const E& e, bool withAppData) {
    id = e.id;
    kind = e.kind;
    owner = e.owner;
    client = e.client;
    x = static_cast<float>(e.position.x);
    y = static_cast<float>(e.position.y);
    vx = static_cast<float>(e.velocity.x);
    vy = static_cast<float>(e.velocity.y);
    health = static_cast<float>(e.health);
    version = e.version;
    if (withAppData) {
      appData.assign(e.appData.begin(), e.appData.end());
    } else {
      appData.clear();
    }
  }

  template <class E>
  void applyTo(E&& e) const {
    e.kind = kind;
    e.owner = owner;
    e.client = client;
    e.position = {x, y};
    e.velocity = {vx, vy};
    e.health = health;
    e.version = version;
    e.appData = appData;
  }
};

}  // namespace roia::rtf
