#include "net/simulator.h"

#include <limits>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace ttmqo {

Simulator::~Simulator() {
  // Drop this thread's flight records: a postmortem from the *next*
  // in-process run (e.g. the following sweep task) must not show this
  // run's tail as if it led up to the failure.
  obs::ClearThreadFlightRing();
}

void Simulator::ScheduleAt(SimTime t, EventFn fn) {
  CheckArg(t >= now_, "Simulator::ScheduleAt: cannot schedule in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    Check(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
          "Simulator: event slab exhausted");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[slot] = std::move(fn);
  Push(QueuedEvent{t, next_seq_++, slot});
}

void Simulator::ScheduleAfter(SimDuration delay, EventFn fn) {
  CheckArg(delay >= 0, "Simulator::ScheduleAfter: delay must be >= 0");
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::RunUntil(SimTime until) {
  CheckArg(until >= now_, "Simulator::RunUntil: until must be >= Now()");
  while (!heap_.empty() && heap_.front().time <= until) {
    Step();
  }
  now_ = until;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const QueuedEvent event = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  now_ = event.time;
  obs::RecordFlight("sim.event", event.time,
                    static_cast<std::int64_t>(event.seq),
                    static_cast<std::int64_t>(event.slot));
  TTMQO_SPAN_SAMPLED("sim.event", 8);
  // Move the callable out and recycle its slot *before* invoking: the
  // handler may schedule new events, which can reuse the slot or grow the
  // slab (invalidating slab references, never this local).
  EventFn fn = std::move(slab_[event.slot]);
  free_slots_.push_back(event.slot);
  ++executed_;
  fn();
  return true;
}

void Simulator::Push(QueuedEvent event) {
  heap_.push_back(event);
  SiftUp(heap_.size() - 1);
}

void Simulator::SiftUp(std::size_t i) {
  const QueuedEvent e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::SiftDown(std::size_t i) {
  const QueuedEvent e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) ++child;
    if (!Earlier(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

}  // namespace ttmqo
