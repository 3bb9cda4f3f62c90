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
// and the overflow heap have reached their high-water marks.  The slab
// grows by fixed chunks of `kChunkSlots` slots, so a slot never moves: an
// event's callable is built in its slot when it is scheduled and invoked
// there when it fires, and is never moved or copied in between.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
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

  /// Schedules the callable `fn` at absolute time `t` (>= Now()).  The
  /// callable is built in the event's slab slot; pass the lambda itself, as
  /// an `EventFn` can be neither copied nor moved.
  template <typename F>
  void ScheduleAt(SimTime t, F&& fn) {
    CheckArg(t >= now_, "Simulator::ScheduleAt: cannot schedule in the past");
    // Take the slot only once the callable is built in it, so a throwing
    // copy leaves the simulator as it was.
    const std::uint32_t slot = FreeSlot();
    SlotAt(slot).fn.Emplace(std::forward<F>(fn));
    TakeSlot();
    ++pending_;
    Place(slot, t, next_seq_++);
  }

  /// Schedules the callable `fn` `delay` ms from now (delay >= 0).
  template <typename F>
  void ScheduleAfter(SimDuration delay, F&& fn) {
    CheckArg(delay >= 0, "Simulator::ScheduleAfter: delay must be >= 0");
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue empties or simulated time would exceed
  /// `until`; afterwards Now() == `until` (events at exactly `until` run).
  void RunUntil(SimTime until);

  /// Runs a single event; returns false when the queue is empty.
  bool Step();

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events waiting; an event is no longer waiting once its
  /// handler starts.
  std::size_t pending() const { return pending_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slots per slab chunk, a power of two: slot `s` lives at index
  /// `s % kChunkSlots` of chunk `s / kChunkSlots`.  64 slots are 9 KB, far
  /// below the size at which the allocator maps a block of its own.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSlots = std::uint32_t{1} << kChunkShift;
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

  Slot& SlotAt(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  /// A free slot, adding a chunk when none is left; it stays free until
  /// `TakeSlot`.
  std::uint32_t FreeSlot() {
    if (!free_slots_.empty()) return free_slots_.back();
    if (used_ == chunks_.size() * kChunkSlots) AddChunk();
    return used_;
  }
  /// Takes the slot the last `FreeSlot` returned.
  void TakeSlot() {
    if (!free_slots_.empty()) {
      free_slots_.pop_back();
    } else {
      ++used_;
    }
  }
  void AddChunk();
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
  /// Fires the head of the (non-empty) current bucket in its slot, then
  /// destroys the callable and frees the slot, also when it throws.
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
  /// Pooled event storage in chunks of kChunkSlots slots (see `SlotAt`);
  /// a chunk never moves once allocated.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Slots handed out at least once: 0..used_-1.
  std::uint32_t used_ = 0;
  /// Recycled slots.  Its capacity always covers every slot, so freeing
  /// one never allocates (it happens in a scope guard).
  std::vector<std::uint32_t> free_slots_;
  /// Scheduled events whose handler has not started.
  std::size_t pending_ = 0;
};

}  // namespace ttmqo
