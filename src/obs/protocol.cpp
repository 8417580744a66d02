#include "obs/protocol.hpp"

#include <ostream>
#include <string>

#include "obs/json.hpp"

namespace roia::obs {

namespace {

// Protocol latencies span sub-millisecond acks to multi-second recovery
// windows; the wide geometric range keeps both ends resolvable.
constexpr LogHistogram::Config kLatencyConfig{1e-2, 1e6, 1.0905077326652577};

constexpr std::array<const char*, kProtocolCount> kProtocolNames = {
    "migration", "zone_handoff", "graceful_drain", "crash_recovery", "admission_retry"};
constexpr std::array<const char*, kProtocolOutcomeCount> kOutcomeNames = {
    "completed", "superseded", "crashed", "deadline_expired"};

}  // namespace

const char* protocolName(Protocol p) { return kProtocolNames.at(static_cast<std::size_t>(p)); }

const char* protocolOutcomeName(ProtocolOutcome o) {
  return kOutcomeNames.at(static_cast<std::size_t>(o));
}

void ProtocolTracker::bindMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

LogHistogram& ProtocolTracker::e2eHistogram(Protocol p) {
  const auto index = static_cast<std::size_t>(p);
  if (e2e_.at(index) == nullptr) {
    e2e_.at(index) = &metrics_->histogram("roia_protocol_e2e_ms",
                                          {{"protocol", protocolName(p)}}, kLatencyConfig);
  }
  return *e2e_.at(index);
}

void ProtocolTracker::begin(Protocol p, std::uint64_t traceId, SimTime at) {
  if (metrics_ == nullptr) return;
  const auto it = open_.find(traceId);
  if (it != open_.end()) end(it->second.protocol, traceId, at, ProtocolOutcome::kSuperseded);
  open_[traceId] = Open{p, at, at};
}

void ProtocolTracker::phase(Protocol p, std::uint64_t traceId, SimTime at,
                            std::string_view name) {
  if (metrics_ == nullptr) return;
  const auto it = open_.find(traceId);
  if (it == open_.end() || it->second.protocol != p) return;
  metrics_
      ->histogram("roia_protocol_phase_ms",
                  {{"protocol", protocolName(p)}, {"phase", std::string(name)}}, kLatencyConfig)
      .add((at - it->second.lastMark).asMillis());
  it->second.lastMark = at;
}

std::optional<double> ProtocolTracker::end(Protocol p, std::uint64_t traceId, SimTime at,
                                           ProtocolOutcome outcome) {
  if (metrics_ == nullptr) return std::nullopt;
  const auto it = open_.find(traceId);
  if (it == open_.end() || it->second.protocol != p) return std::nullopt;
  const double e2eMs = (at - it->second.startedAt).asMillis();
  open_.erase(it);
  e2eHistogram(p).add(e2eMs);
  ++outcomes_.at(static_cast<std::size_t>(p)).at(static_cast<std::size_t>(outcome));
  metrics_
      ->counter("roia_protocol_outcomes_total",
                {{"protocol", protocolName(p)}, {"outcome", protocolOutcomeName(outcome)}})
      .increment();
  return e2eMs;
}

std::uint64_t ProtocolTracker::outcomeCount(Protocol p, ProtocolOutcome o) const {
  return outcomes_.at(static_cast<std::size_t>(p)).at(static_cast<std::size_t>(o));
}

const LogHistogram* ProtocolTracker::latencyHistogram(Protocol p) const {
  return e2e_.at(static_cast<std::size_t>(p));
}

void ProtocolTracker::writeJsonl(std::ostream& out) const {
  std::array<std::size_t, kProtocolCount> openByProtocol{};
  for (const auto& [id, open] : open_) {
    ++openByProtocol.at(static_cast<std::size_t>(open.protocol));
  }
  std::string line;
  for (std::size_t i = 0; i < kProtocolCount; ++i) {
    const LogHistogram* h = e2e_.at(i);
    line.clear();
    line += "{\"protocol\":";
    appendJsonString(line, kProtocolNames.at(i));
    line += ",\"count\":" + std::to_string(h != nullptr ? h->count() : 0);
    line += ",\"p50_ms\":";
    appendJsonNumber(line, h != nullptr ? h->quantile(0.5) : 0.0);
    line += ",\"p95_ms\":";
    appendJsonNumber(line, h != nullptr ? h->quantile(0.95) : 0.0);
    line += ",\"p99_ms\":";
    appendJsonNumber(line, h != nullptr ? h->quantile(0.99) : 0.0);
    line += ",\"outcomes\":{";
    for (std::size_t o = 0; o < kProtocolOutcomeCount; ++o) {
      if (o != 0) line.push_back(',');
      appendJsonString(line, kOutcomeNames.at(o));
      line += ':';
      line += std::to_string(outcomes_.at(i).at(o));
    }
    line += "},\"open\":" + std::to_string(openByProtocol.at(i));
    line += "}";
    out << line << '\n';
  }
}

}  // namespace roia::obs
