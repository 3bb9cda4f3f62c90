// The discrete-event simulation core.
//
// A single-threaded event loop with a totally ordered queue: events fire in
// (time, insertion-sequence) order, so equal-time events run in the order
// they were scheduled and every run is exactly reproducible.
//
// The queue is a timing wheel over whole milliseconds (Varghese & Lauck,
// SOSP 1987), so scheduling and firing cost the same at any queue depth:
//   - An event at most `kWheelMs` ahead of Now() is appended to the FIFO
//     bucket of its millisecond.  Buckets are singly linked lists threaded
//     through the slab slots; an occupancy bitmap with one summary word
//     finds the next non-empty bucket in two bit scans.
//   - A later event waits in an overflow min-heap on (time, seq).  Whenever
//     the clock advances, every overflow event that has come within
//     `kWheelMs` moves into its bucket, in heap order, before anything can
//     be scheduled straight into that bucket — so FIFO order within a bucket
//     is exactly (time, seq) order.
//   - The bucket of the current millisecond is taken off the wheel when the
//     clock reaches it, which frees its wheel position for Now() + kWheelMs:
//     the horizon is inclusive, so timers of exactly kWheelMs (an epoch of
//     4096 ms) never touch the heap.
//
// Internals are built for an allocation-free steady state: callables live
// in a slab of pooled `EventFn` slots recycled through a free list;
// `EventFn` stores small captures inline (see `InlineCallable`), so
// scheduling and firing an event performs no heap allocation once the slab
// and the overflow heap have reached their high-water marks.  Events are
// moved through the pipeline, never copied.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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

  /// The timing wheel's horizon: an event scheduled at most this many
  /// milliseconds after Now() goes straight into its millisecond's bucket;
  /// a later one waits in the overflow heap.  In the benchmark workloads
  /// 86–98% of scheduling delays are at most 4096 ms; a power of two, so a
  /// bucket index is a mask and one 64-bit summary word covers the bitmap.
  static constexpr SimDuration kWheelMs = 4096;

  Simulator();
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
  std::size_t pending() const { return slab_.size() - free_slots_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint64_t kWheelMask = kWheelMs - 1;
  static constexpr std::size_t kWords = kWheelMs / 64;
  static_assert((kWheelMs & (kWheelMs - 1)) == 0 && kWords == 64,
                "one 64-bit summary word covers the occupancy bitmap");

  /// A slab slot: the bucket link and the pooled callable.  `fn`'s
  /// alignment leaves the 12 bytes after `next` unused.
  struct Slot {
    /// The next event of the same bucket, or kNoSlot.
    std::uint32_t next = kNoSlot;
    EventFn fn;
  };

  /// A FIFO list of slots linked through `Slot::next`.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// One overflow-heap record.  The callable stays put in the slab while
  /// this trivially-copyable record percolates through the heap; `seq` is
  /// the event's insertion sequence, needed only to order equal times here
  /// (a bucket is FIFO, so events on the wheel need none).
  struct QueuedEvent {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool Earlier(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Files `slot`, due at `t` (>= Now()) with insertion sequence `seq`, in
  /// the current bucket, the wheel or the overflow heap.
  void Place(std::uint32_t slot, SimTime t, std::uint64_t seq);
  /// True iff an event at or before `until` is ready in the current
  /// bucket, advancing the clock to the next event's time if the current
  /// bucket is empty and that time is not after `until`.
  bool ReadyBy(SimTime until);
  /// Time of the earliest event after the current bucket; false if none.
  bool NextTime(SimTime& t) const;
  /// Moves the clock forward to `t`.  Requires the current bucket empty and
  /// no event before `t`: takes `t`'s bucket off the wheel as the current
  /// bucket, then moves every overflow event within the horizon.
  void AdvanceTo(SimTime t);
  /// Fires the head of the (non-empty) current bucket.
  void FireCurrent();
  /// True iff wheel bucket `index` holds an event.
  bool Occupied(std::uint64_t index) const {
    return ((summary_ >> (index / 64)) & 1) != 0 &&
           ((occupied_[index / 64] >> (index % 64)) & 1) != 0;
  }

  void PushOverflow(QueuedEvent event);
  void PopOverflow();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// The events due at Now(), in firing order; head == kNoSlot when empty.
  Bucket current_{kNoSlot, kNoSlot};
  /// Bucket of millisecond t at index t & kWheelMask, for Now() < t <=
  /// Now() + kWheelMs.  Neither the buckets nor the occupancy words are
  /// initialized: a word is meaningful only while its summary bit is set,
  /// and a bucket only while its occupancy bit is, so a new Simulator
  /// touches no wheel memory until an event lands there.
  std::unique_ptr<Bucket[]> wheel_;
  /// Bit b % 64 of word b / 64 is set iff bucket b holds an event.
  std::array<std::uint64_t, kWords> occupied_;
  /// Bit w is set iff `occupied_[w]` is meaningful and non-zero.
  std::uint64_t summary_ = 0;
  /// Min-heap on (time, seq) of the events beyond the horizon.
  std::vector<QueuedEvent> overflow_;
  /// Pooled event storage, indexed by slot.
  std::vector<Slot> slab_;
  /// Recycled slab slots.
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ttmqo
