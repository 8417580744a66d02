#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace roia::sim {

EventHandle EventQueue::schedule(SimTime at, EventFn fn) {
  const std::uint64_t seq = nextSeq_++;
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_;
  return EventHandle{seq, slot};
}

void EventQueue::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot >= slots_.size()) return;
  // A fired or cancelled event's slot is free (seq 0) or holds a newer
  // event (another seq): either way the handle is stale.
  if (slots_[handle.slot].seq != handle.seq) return;
  release(handle.slot);
  // The heap entry stays; skipDead() discards it lazily.
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].fn = nullptr;
  slots_[slot].seq = 0;
  free_.push_back(slot);
  --live_;
}

void EventQueue::skipDead() const {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

SimTime EventQueue::nextTime() const {
  skipDead();
  return heap_.empty() ? SimTime::max() : heap_.front().at;
}

EventFn EventQueue::pop(SimTime& at) {
  skipDead();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  EventFn fn = std::move(slots_[entry.slot].fn);
  release(entry.slot);
  at = entry.at;
  return fn;
}

}  // namespace roia::sim
