// The discrete-event simulation core.
//
// A single-threaded event loop with a totally ordered queue: events fire in
// (time, insertion-sequence) order, so equal-time events run in the order
// they were scheduled and every run is exactly reproducible.
//
// Internals are built for an allocation-free steady state:
//   - The priority queue is a hand-rolled binary heap of 24-byte
//     `QueuedEvent` records (time, sequence, slot) — sifting moves plain
//     integers, never callables.
//   - Callables live in a slab of pooled `EventFn` slots recycled through a
//     free list; `EventFn` stores small captures inline (see
//     `InlineCallable`), so scheduling and firing an event performs no
//     heap allocation once the slab and heap have reached their high-water
//     marks.  Events are moved through the pipeline, never copied.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/inline_callable.h"
#include "util/time.h"

namespace ttmqo {

/// The event loop.  Not thread-safe (by design: determinism).
class Simulator {
 public:
  /// An event handler.  The inline capacity is sized for the hot paths'
  /// largest captures (see the static_asserts at the capture sites); bigger
  /// captures still work but fall back to one heap allocation.
  using EventFn = InlineCallable<104>;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= Now()).
  void ScheduleAt(SimTime t, EventFn fn);

  /// Schedules `fn` `delay` ms from now (delay >= 0).
  void ScheduleAfter(SimDuration delay, EventFn fn);

  /// Runs events until the queue empties or simulated time would exceed
  /// `until`; afterwards Now() == `until` (events at exactly `until` run).
  void RunUntil(SimTime until);

  /// Runs a single event; returns false when the queue is empty.
  bool Step();

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events waiting.
  std::size_t pending() const { return heap_.size(); }

 private:
  /// One heap record.  The callable stays put in the slab while this
  /// trivially-copyable record percolates through the heap.  Alignment pads
  /// the record to 24 bytes; the 4 bytes after `slot` are unused.
  struct QueuedEvent {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool Earlier(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void Push(QueuedEvent event);
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Min-heap on (time, seq).
  std::vector<QueuedEvent> heap_;
  /// Pooled callable storage indexed by `QueuedEvent::slot`.
  std::vector<EventFn> slab_;
  /// Recycled slab slots.
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ttmqo
