// RMS decision audit log: one record per Strategy::decide() (plus one per
// crash recovery), capturing the ZoneView inputs the strategy saw (n, m, l),
// the model-predicted vs. measured tick duration, which Eq. (2)/(3)/(5)
// threshold fired, the chosen action and the alternatives it rejected.
// Exported as JSONL, one self-contained object per line, so a chaos or
// Fig. 8 run can be replayed decision by decision.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/events.hpp"

namespace roia::obs {

struct AuditRecord {
  SimTime at{};
  ZoneId zone{};
  std::string strategy;

  // ZoneView inputs (paper notation: n users, m NPCs, l replicas).
  std::size_t users{0};
  std::size_t npcs{0};
  std::size_t replicas{0};
  std::size_t pendingStarts{0};
  double measuredAvgTickMs{0.0};
  double measuredP95TickMs{0.0};
  double measuredMaxTickMs{0.0};
  /// T(l, n, m) from the fitted model; negative when the strategy has none.
  double predictedTickMs{-1.0};

  /// Which threshold justified the action: "eq2:..." (n_max), "eq3:..."
  /// (l_max), "eq5:..." (migration budgets), "detector:..." (crash
  /// recovery), or "none".
  std::string threshold{"none"};
  /// The event recorded; exported under its auditEventName().
  AuditEvent action{AuditEvent::kNone};
  std::size_t migrationsOrdered{0};
  /// Actions considered and not taken, each with its reason.
  std::vector<std::string> rejected;
  std::string rationale;
};

class AuditLog {
 public:
  void record(AuditRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] const std::vector<AuditRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  void writeJsonl(std::ostream& out) const;
  [[nodiscard]] static std::string toJson(const AuditRecord& record);

 private:
  std::vector<AuditRecord> records_;
};

}  // namespace roia::obs
