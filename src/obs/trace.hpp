// Event tracer producing Chrome/Perfetto trace-event JSON keyed by
// *simulated* time: tick spans with one child span per phase, cross-server
// migration / replica-sync flow events, and RMS control-period spans.
// Open the exported file at https://ui.perfetto.dev (or chrome://tracing);
// each server and the RMS appear as their own named track.
//
// Every call records: telemetry is off when a component holds no
// obs::Telemetry context (a nullptr), not through a flag here. Timestamps
// are simulated microseconds, which is exactly the unit the trace-event
// format expects.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace roia::obs {

/// One trace event (duration begin/end, instant, or flow start/finish).
struct TraceEvent {
  char phase{'i'};  // 'B','E','i','s','f'
  std::uint32_t tid{0};
  std::int64_t tsMicros{0};
  std::uint64_t flowId{0};  // for 's'/'f' events
  std::string name;
  std::string category;
  /// Rendered into the "args" object; values emitted as JSON strings.
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  /// Caps stored events; once reached, further events are counted as
  /// dropped instead of recorded (exporters report the drop count).
  void setMaxEvents(std::size_t maxEvents) { maxEvents_ = maxEvents; }
  [[nodiscard]] std::uint64_t droppedEvents() const { return dropped_; }

  /// Returns a stable tid for `name`, registering the track (and its
  /// thread_name metadata) on first use.
  std::uint32_t track(std::string_view name);

  void beginSpan(std::uint32_t tid, SimTime ts, std::string_view name, std::string_view category,
                 std::vector<std::pair<std::string, std::string>> args = {});
  void endSpan(std::uint32_t tid, SimTime ts);
  /// Convenience: a [begin, begin+duration] span as a matched B/E pair.
  void completeSpan(std::uint32_t tid, SimTime begin, SimDuration duration, std::string_view name,
                    std::string_view category,
                    std::vector<std::pair<std::string, std::string>> args = {});
  void instant(std::uint32_t tid, SimTime ts, std::string_view name, std::string_view category);
  /// Flow events bind cross-track arrows to the enclosing spans; start and
  /// finish must share `flowId`.
  void flowStart(std::uint32_t tid, SimTime ts, std::uint64_t flowId, std::string_view name,
                 std::string_view category);
  void flowFinish(std::uint32_t tid, SimTime ts, std::uint64_t flowId, std::string_view name,
                  std::string_view category);

  [[nodiscard]] std::size_t eventCount() const { return events_.size(); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  void clear();

  /// Chrome trace-event JSON: {"traceEvents":[...]}. Events are emitted in
  /// non-decreasing timestamp order (stable-sorted, so per-track B/E
  /// nesting is preserved).
  void writeJson(std::ostream& out) const;

 private:
  void push(TraceEvent event);

  std::size_t maxEvents_{1500000};
  std::uint64_t dropped_{0};
  std::vector<TraceEvent> events_;
  std::vector<std::string> trackNames_;  // index == tid
};

/// Flow-id schemes shared by the two ends of a cross-server event. Both
/// sides must derive the same id from information they both hold.
[[nodiscard]] constexpr std::uint64_t migrationFlowId(ClientId client) {
  return 0x4D49470000000000ULL ^ client.value;  // "MIG"
}
[[nodiscard]] constexpr std::uint64_t replicaSyncFlowId(NodeId fromNode, std::uint64_t serverTick) {
  return 0x5253000000000000ULL ^ (fromNode.value << 32) ^ serverTick;  // "RS"
}

}  // namespace roia::obs
