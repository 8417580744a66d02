#include "obs/audit.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace roia::obs {

std::string AuditLog::toJson(const AuditRecord& r) {
  std::string out = "{\"t_s\":";
  appendJsonNumber(out, r.at.asSeconds());
  out += ",\"zone\":" + std::to_string(r.zone.value);
  out += ",\"strategy\":";
  appendJsonString(out, r.strategy);
  out += ",\"inputs\":{\"n\":" + std::to_string(r.users);
  out += ",\"m\":" + std::to_string(r.npcs);
  out += ",\"l\":" + std::to_string(r.replicas);
  out += ",\"pending_starts\":" + std::to_string(r.pendingStarts);
  out += ",\"tick_avg_ms\":";
  appendJsonNumber(out, r.measuredAvgTickMs);
  out += ",\"tick_p95_ms\":";
  appendJsonNumber(out, r.measuredP95TickMs);
  out += ",\"tick_max_ms\":";
  appendJsonNumber(out, r.measuredMaxTickMs);
  out += ",\"tick_predicted_ms\":";
  appendJsonNumber(out, r.predictedTickMs);
  out += "},\"threshold\":";
  appendJsonString(out, r.threshold);
  out += ",\"action\":";
  appendJsonString(out, auditEventName(r.action));
  out += ",\"migrations_ordered\":" + std::to_string(r.migrationsOrdered);
  out += ",\"rejected\":[";
  for (std::size_t i = 0; i < r.rejected.size(); ++i) {
    if (i > 0) out.push_back(',');
    appendJsonString(out, r.rejected[i]);
  }
  out += "],\"rationale\":";
  appendJsonString(out, r.rationale);
  out += "}";
  return out;
}

void AuditLog::writeJsonl(std::ostream& out) const {
  for (const AuditRecord& r : records_) out << toJson(r) << '\n';
}

}  // namespace roia::obs
