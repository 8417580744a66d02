#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"

namespace roia::obs {

std::uint32_t Tracer::track(std::string_view name) {
  for (std::uint32_t i = 0; i < trackNames_.size(); ++i) {
    if (trackNames_[i] == name) return i;
  }
  trackNames_.emplace_back(name);
  return static_cast<std::uint32_t>(trackNames_.size() - 1);
}

void Tracer::push(TraceEvent event) {
  if (events_.size() >= maxEvents_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::beginSpan(std::uint32_t tid, SimTime ts, std::string_view name,
                       std::string_view category,
                       std::vector<std::pair<std::string, std::string>> args) {
  push(TraceEvent{'B', tid, ts.micros, 0, std::string(name), std::string(category),
                  std::move(args)});
}

void Tracer::endSpan(std::uint32_t tid, SimTime ts) {
  push(TraceEvent{'E', tid, ts.micros, 0, {}, {}, {}});
}

void Tracer::completeSpan(std::uint32_t tid, SimTime begin, SimDuration duration,
                          std::string_view name, std::string_view category,
                          std::vector<std::pair<std::string, std::string>> args) {
  beginSpan(tid, begin, name, category, std::move(args));
  endSpan(tid, begin + duration);
}

void Tracer::instant(std::uint32_t tid, SimTime ts, std::string_view name,
                     std::string_view category) {
  push(TraceEvent{'i', tid, ts.micros, 0, std::string(name), std::string(category), {}});
}

void Tracer::flowStart(std::uint32_t tid, SimTime ts, std::uint64_t flowId, std::string_view name,
                       std::string_view category) {
  push(TraceEvent{'s', tid, ts.micros, flowId, std::string(name), std::string(category), {}});
}

void Tracer::flowFinish(std::uint32_t tid, SimTime ts, std::uint64_t flowId, std::string_view name,
                        std::string_view category) {
  push(TraceEvent{'f', tid, ts.micros, flowId, std::string(name), std::string(category), {}});
}

void Tracer::clear() {
  events_.clear();
  dropped_ = 0;
}

void Tracer::writeJson(std::ostream& out) const {
  // Stable sort: per-track append order (already time-ordered) survives, so
  // a B never trails its E and the whole file is non-decreasing in ts —
  // cross-track interleavings (an overrunning tick spanning past a peer's
  // next event) would otherwise break that.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const TraceEvent& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->tsMicros < b->tsMicros; });

  out << "{\"traceEvents\":[";
  std::string line;
  bool first = true;
  // Track-name metadata events first (ts-less, allowed anywhere).
  for (std::uint32_t tid = 0; tid < trackNames_.size(); ++tid) {
    line.clear();
    line += first ? "" : ",";
    first = false;
    line += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    line += std::to_string(tid);
    line += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    appendJsonString(line, trackNames_[tid]);
    line += "}}";
    out << '\n' << line;
  }
  for (const TraceEvent* e : ordered) {
    line.clear();
    line += first ? "" : ",";
    first = false;
    line += "{\"ph\":\"";
    line.push_back(e->phase);
    line += "\",\"pid\":1,\"tid\":";
    line += std::to_string(e->tid);
    line += ",\"ts\":";
    line += std::to_string(e->tsMicros);
    if (e->phase != 'E') {
      line += ",\"name\":";
      appendJsonString(line, e->name);
      if (!e->category.empty()) {
        line += ",\"cat\":";
        appendJsonString(line, e->category);
      }
    }
    if (e->phase == 's' || e->phase == 'f') {
      line += ",\"id\":";
      line += std::to_string(e->flowId);
      if (e->phase == 'f') line += ",\"bp\":\"e\"";
    }
    if (e->phase == 'i') line += ",\"s\":\"t\"";
    if (!e->args.empty()) {
      line += ",\"args\":{";
      bool firstArg = true;
      for (const auto& [k, v] : e->args) {
        if (!firstArg) line.push_back(',');
        firstArg = false;
        appendJsonString(line, k);
        line.push_back(':');
        appendJsonString(line, v);
      }
      line.push_back('}');
    }
    line += "}";
    out << '\n' << line;
  }
  if (dropped_ > 0) {
    line.clear();
    line += first ? "" : ",";
    line += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"trace_truncated\",\"args\":{\"dropped_events\":\"";
    line += std::to_string(dropped_);
    line += "\"}}";
    out << '\n' << line;
  }
  out << "\n]}\n";
}

}  // namespace roia::obs
