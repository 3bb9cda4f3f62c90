#include "net/simulator.h"

#include <bit>
#include <limits>

#include "obs/span.h"

namespace ttmqo {

Simulator::Simulator()
    : wheel_(std::make_unique_for_overwrite<Bucket[]>(kWheelMs)) {}

void Simulator::AddChunk() {
  // Slot numbers stay below kNoSlot.
  Check(chunks_.size() + 1 < (std::size_t{1} << (32 - kChunkShift)),
        "Simulator: event slab exhausted");
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  // The free list can hold every slot of every chunk the table has room
  // for, so it reallocates only when the chunk table does.
  free_slots_.reserve(chunks_.capacity() * kChunkSlots);
}

void Simulator::RunUntil(SimTime until) {
  CheckArg(until >= now_, "Simulator::RunUntil: until must be >= Now()");
  while (ReadyBy(until)) FireCurrent();
  // Every event up to `until` has run, so the clock may land there; the
  // move of overflow events that come within the horizon goes with it.
  if (until > now_) AdvanceTo(until);
}

bool Simulator::Step() {
  if (!ReadyBy(std::numeric_limits<SimTime>::max())) return false;
  FireCurrent();
  return true;
}

bool Simulator::ReadyBy(SimTime until) {
  if (current_.head != kNoSlot) return true;
  SimTime next;
  if (!NextTime(next) || next > until) return false;
  AdvanceTo(next);
  return true;
}

void Simulator::Place(std::uint32_t slot, SimTime t, std::uint64_t seq) {
  SlotAt(slot).next = kNoSlot;
  const SimDuration ahead = t - now_;
  if (ahead == 0) {
    if (current_.head == kNoSlot) {
      current_.head = slot;
    } else {
      SlotAt(current_.tail).next = slot;
    }
    current_.tail = slot;
  } else if (ahead <= kWheelMs) {
    const auto index = static_cast<std::uint64_t>(t) & kWheelMask;
    Bucket& bucket = wheel_[index];
    if (Occupied(index)) {
      SlotAt(bucket.tail).next = slot;
    } else {
      bucket.head = slot;
      const std::uint64_t bit = std::uint64_t{1} << (index % 64);
      const std::uint64_t word_bit = std::uint64_t{1} << (index / 64);
      if ((summary_ & word_bit) != 0) {
        occupied_[index / 64] |= bit;
      } else {
        occupied_[index / 64] = bit;
        summary_ |= word_bit;
      }
    }
    bucket.tail = slot;
  } else {
    PushOverflow(QueuedEvent{t, seq, slot});
  }
}

bool Simulator::NextTime(SimTime& t) const {
  if (summary_ != 0) {
    // The wheel holds (Now(), Now() + kWheelMs], all of it before the
    // overflow heap: take the first occupied bucket at or after Now() + 1's
    // position, wrapping past the end of the wheel.
    const auto from = static_cast<std::uint64_t>(now_ + 1) & kWheelMask;
    const std::uint64_t w = from / 64;
    const std::uint64_t bits =
        ((summary_ >> w) & 1) != 0
            ? occupied_[w] & (~std::uint64_t{0} << (from % 64))
            : 0;
    std::uint64_t index;
    if (bits != 0) {
      index = w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
    } else {
      std::uint64_t words = summary_ & (~std::uint64_t{1} << w);
      if (words == 0) words = summary_;
      const auto w2 = static_cast<std::uint64_t>(std::countr_zero(words));
      index = w2 * 64 +
              static_cast<std::uint64_t>(std::countr_zero(occupied_[w2]));
    }
    t = now_ + 1 + static_cast<SimDuration>((index - from) & kWheelMask);
    return true;
  }
  if (!overflow_.empty()) {
    t = overflow_.front().time;
    return true;
  }
  return false;
}

void Simulator::AdvanceTo(SimTime t) {
  now_ = t;
  const auto index = static_cast<std::uint64_t>(t) & kWheelMask;
  if (Occupied(index)) {
    current_ = wheel_[index];
    std::uint64_t& word = occupied_[index / 64];
    word &= ~(std::uint64_t{1} << (index % 64));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (index / 64));
  }
  while (!overflow_.empty() && overflow_.front().time - now_ <= kWheelMs) {
    const QueuedEvent event = overflow_.front();
    PopOverflow();
    Place(event.slot, event.time, event.seq);
  }
}

void Simulator::FireCurrent() {
  const std::uint32_t slot = current_.head;
  Slot& fired = SlotAt(slot);
  current_.head = fired.next;
  TTMQO_SPAN_SAMPLED("sim.event", 8);
  --pending_;
  ++executed_;
  // The callable runs where it was built.  New events the handler
  // schedules cannot take this slot, which is not free yet, and cannot move
  // it, since the slab grows by whole chunks.  The slot is freed once the
  // handler returns or throws.
  struct Recycle {
    Simulator& sim;
    Slot& fired;
    std::uint32_t slot;
    ~Recycle() {
      fired.fn.Reset();
      sim.free_slots_.push_back(slot);
    }
  } recycle{*this, fired, slot};
  fired.fn();
}

void Simulator::PushOverflow(QueuedEvent event) {
  std::size_t i = overflow_.size();
  overflow_.push_back(event);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Earlier(event, overflow_[parent])) break;
    overflow_[i] = overflow_[parent];
    i = parent;
  }
  overflow_[i] = event;
}

void Simulator::PopOverflow() {
  const QueuedEvent e = overflow_.back();
  overflow_.pop_back();
  const std::size_t n = overflow_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Earlier(overflow_[child + 1], overflow_[child])) {
      ++child;
    }
    if (!Earlier(overflow_[child], e)) break;
    overflow_[i] = overflow_[child];
    i = child;
  }
  overflow_[i] = e;
}

}  // namespace ttmqo
