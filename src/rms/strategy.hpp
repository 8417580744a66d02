// Load-balancing strategies: what RTF-RMS decides each control period for
// one zone. The model-driven strategy (paper section IV) and the baselines
// used in the ablation experiment all implement this interface. Decisions
// are lists of typed Actions (rms/action.hpp); the audit annotations ride
// along for observability only.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "rms/action.hpp"
#include "rtf/monitoring.hpp"

namespace roia::rms {

/// An action the strategy considered but did not take, and why — recorded so
/// the audit log explains decisions, not just states them.
struct RejectedAction {
  std::string action;
  std::string reason;
};

/// The decision for one zone in one control period: a list of typed actions.
/// Convention (enforced by the strategies, relied on by the audit log): at
/// most one structural action (add/substitute/remove) per period, plus any
/// number of migration orders.
struct Decision {
  std::vector<Action> actions;
  std::string rationale;

  // --- audit annotations (observability only; never drive execution) ---
  /// Model-predicted tick duration for the zone's current workload, ms;
  /// negative when the strategy has no model.
  double predictedTickMs{-1.0};
  /// Which threshold fired, e.g. "eq2:n_trigger", "eq3:l_max",
  /// "eq5:x_max"; "none" when no threshold was crossed.
  std::string threshold{"none"};
  /// Alternatives considered and discarded this period.
  std::vector<RejectedAction> rejected;

  void add(Action action) { actions.push_back(std::move(action)); }

  template <typename T>
  [[nodiscard]] const T* first() const {
    for (const Action& action : actions) {
      if (const T* a = std::get_if<T>(&action)) return a;
    }
    return nullptr;
  }
  template <typename T>
  [[nodiscard]] bool has() const {
    return first<T>() != nullptr;
  }

  /// All migration orders, in decision order.
  [[nodiscard]] std::vector<UserMigration> migrations() const {
    std::vector<UserMigration> orders;
    orders.reserve(actions.size());
    for (const Action& action : actions) {
      if (const auto* m = std::get_if<UserMigration>(&action)) orders.push_back(*m);
    }
    return orders;
  }

  [[nodiscard]] bool structural() const {
    return has<ReplicationEnactment>() || has<ResourceSubstitution>() || has<ResourceRemoval>();
  }

  /// The audit event: the first structural action's, else kZoneHandoff /
  /// kMigrateOnly when only balancing actions were taken, else kNone.
  [[nodiscard]] obs::AuditEvent primaryActionName() const {
    for (const Action& action : actions) {
      if (!std::holds_alternative<UserMigration>(action) &&
          !std::holds_alternative<ZoneHandoff>(action)) {
        return actionName(action);
      }
    }
    if (has<ZoneHandoff>()) return obs::AuditEvent::kZoneHandoff;
    if (has<UserMigration>()) return obs::AuditEvent::kMigrateOnly;
    return obs::AuditEvent::kNone;
  }
};

/// What a strategy sees each control period.
struct ZoneView {
  ZoneId zone;
  SimTime now{};
  std::vector<rtf::MonitoringSnapshot> servers;
  /// Servers currently being drained (migration targets to avoid).
  std::vector<ServerId> draining;
  /// Replicas already leased but still starting up.
  std::size_t pendingStarts{0};
  std::size_t npcs{0};
  /// Edge-adjacent zones in a sharded world (empty for single-zone worlds).
  std::vector<ZoneId> neighbors;
  /// Cross-zone border shadows mirrored on this zone's replicas, summed over
  /// the replicas (each replica holds its own copy of the border band).
  std::size_t borderShadows{0};

  [[nodiscard]] std::size_t totalUsers() const {
    std::size_t total = 0;
    for (const auto& s : servers) total += s.activeUsers;
    return total;
  }
  [[nodiscard]] std::size_t replicaCount() const { return servers.size(); }
  [[nodiscard]] double maxTickMs() const {
    double v = 0.0;
    for (const auto& s : servers) v = std::max(v, s.tickMaxMs);
    return v;
  }
  [[nodiscard]] double avgTickMs() const {
    if (servers.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& s : servers) sum += s.tickAvgMs;
    return sum / static_cast<double>(servers.size());
  }
  /// Worst per-replica p95 tick duration across the zone.
  [[nodiscard]] double p95TickMs() const {
    double v = 0.0;
    for (const auto& s : servers) v = std::max(v, s.tickP95Ms);
    return v;
  }
  [[nodiscard]] bool isDraining(ServerId id) const {
    for (const ServerId d : draining) {
      if (d == id) return true;
    }
    return false;
  }
};

/// Cross-zone view for the balance() pass of a sharded world: the per-zone
/// views of one control period, in managed-zone order.
struct WorldView {
  SimTime now{};
  std::vector<ZoneView> zones;
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Per-zone decision (replication, substitution, removal, migrations).
  virtual Decision decide(const ZoneView& view) = 0;
  /// Cross-zone decision of a sharded world, taken once per control period
  /// after the per-zone pass; ZoneHandoff is the expected action kind.
  /// Default: no cross-zone balancing.
  virtual Decision balance(const WorldView& world) {
    (void)world;
    return {};
  }
};

}  // namespace roia::rms
