// Deterministic discrete-event queue.
//
// Events at the same simulated time fire in insertion order (FIFO tie-break
// via a monotonically increasing sequence number), which is what makes whole
// experiment runs bit-reproducible.
//
// Layout: callbacks live in a slab of slots recycled through a free list;
// a binary min-heap orders trivially copyable {at, seq, slot} entries. A
// heap entry is live while its slot still holds its seq, so cancel frees
// the slot at once and the entry is dropped lazily when it reaches the top.
// Scheduling and popping do no hashing, and once the slab and the heap have
// grown to the peak event count they allocate nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace roia::sim {

using EventFn = std::function<void()>;

/// Handle for cancelling a scheduled event: the event's sequence number
/// and the slab slot that holds its callback. The slot is reused once the
/// event fires or is cancelled; the seq tells a stale handle apart.
struct EventHandle {
  std::uint64_t seq{0};
  std::uint32_t slot{0};
  [[nodiscard]] bool valid() const { return seq != 0; }
};

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  EventHandle schedule(SimTime at, EventFn fn);

  /// Removes the event if it has not fired yet; safe on stale handles,
  /// including one whose slot now holds a newer event.
  void cancel(EventHandle handle);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; SimTime::max() when empty.
  [[nodiscard]] SimTime nextTime() const;

  /// Pops the earliest live event; returns its callback and writes its
  /// scheduled time to `at`. Must not be called when empty().
  EventFn pop(SimTime& at);

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    /// "Fires later": the heap keeps the greatest entry on top under
    /// std::greater, so the earliest (at, seq) surfaces first.
    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };
  struct Slot {
    EventFn fn;
    std::uint64_t seq{0};  ///< seq of the event held; 0 while free
  };

  [[nodiscard]] bool live(const Entry& entry) const { return slots_[entry.slot].seq == entry.seq; }
  /// Discards heap entries whose event was cancelled.
  void skipDead() const;
  /// Returns `slot` to the free list.
  void release(std::uint32_t slot);

  mutable std::vector<Entry> heap_;  ///< min-heap on (at, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< free slot indices
  std::size_t live_{0};
  std::uint64_t nextSeq_{1};
};

}  // namespace roia::sim
