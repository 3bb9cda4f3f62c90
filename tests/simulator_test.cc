// Pins the `Simulator` contract the engines and golden runs depend on, so
// event-queue rewrites (the pooled slab, the millisecond timing wheel and
// its overflow heap) cannot silently change ordering, boundary, or counting
// semantics:
//   - total order: (time, scheduling sequence), FIFO within equal times,
//     also for events that cross the wheel's horizon (`kWheelMs`) and wait
//     in the overflow heap
//   - RunUntil boundary: events at exactly `until` run; Now() lands on it
//   - pending()/events_executed() bookkeeping
//   - scheduling from inside handlers (including at the current instant)
//   - move-only and larger-than-inline captures work; hot-path captures
//     stay inline (allocation-free)
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/simulator.h"
#include "util/rng.h"

namespace ttmqo {
namespace {

TEST(SimulatorSemanticsTest, EqualTimeEventsInterleavedWithLaterOnes) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(20, [&] { order.push_back(200); });
  sim.ScheduleAt(10, [&] { order.push_back(100); });
  sim.ScheduleAt(10, [&] { order.push_back(101); });
  sim.ScheduleAt(20, [&] { order.push_back(201); });
  sim.ScheduleAt(10, [&] { order.push_back(102); });
  sim.RunUntil(30);
  EXPECT_EQ(order, (std::vector<int>{100, 101, 102, 200, 201}));
}

TEST(SimulatorSemanticsTest, ManySameTimeEventsKeepSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    sim.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(42);
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorSemanticsTest, RandomScheduleFiresInStableSortedOrder) {
  // A randomized schedule with many ties must fire sorted by time and,
  // within a time, by scheduling order (stable sort of the input).
  Simulator sim;
  Rng rng(7);
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<std::pair<SimTime, int>> fired;
  for (int i = 0; i < 500; ++i) {
    const auto t = static_cast<SimTime>(rng.UniformInt(0, 49));
    scheduled.emplace_back(t, i);
    sim.ScheduleAt(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  sim.RunUntil(50);
  std::stable_sort(
      scheduled.begin(), scheduled.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(fired, scheduled);
}

// A randomized differential run against the reference order: every event
// ever scheduled, stable-sorted by time.  Delays straddle the wheel's
// horizon W (0, 1, W-1, W, W+1, 2W, 10W, uniform in [0, 3W], and the due
// time of an event already pending, so moved overflow events meet direct
// inserts at the same millisecond); events come from before the run, from
// handlers and from between stops; the stops land anywhere, including
// inside empty stretches of the wheel and across an empty wheel.
class HorizonRun {
 public:
  static constexpr SimDuration kW = Simulator::kWheelMs;

  explicit HorizonRun(std::uint64_t seed) : rng_(seed) {}

  void ScheduleAt(SimTime t) {
    const int id = static_cast<int>(scheduled_.size());
    scheduled_.emplace_back(t, id);
    fired_ids_.push_back(false);
    sim_.ScheduleAt(t, [this, t, id] { Fire(t, id); });
  }

  void Schedule(SimDuration delay) { ScheduleAt(sim_.Now() + delay); }

  SimDuration RandomDelay() {
    switch (rng_.UniformInt(0, 9)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return kW - 1;
      case 3: return kW;
      case 4: return kW + 1;
      case 5: return 2 * kW;
      case 6: return 10 * kW;
      case 7: {  // the due time of some pending event, when there is one
        if (scheduled_.empty()) break;
        const std::size_t pick = rng_.Index(scheduled_.size());
        const SimTime due = scheduled_[pick].first;
        if (!fired_ids_[pick] && due >= sim_.Now()) return due - sim_.Now();
        break;
      }
      default: break;
    }
    return rng_.UniformInt(0, 3 * kW);
  }

  /// Runs to `until` and checks the clock, both counters and which events
  /// have fired there.
  void StopAt(SimTime until) {
    sim_.RunUntil(until);
    ASSERT_EQ(sim_.Now(), until);
    CheckCounters();
    for (const auto& [t, id] : scheduled_) {
      ASSERT_EQ(fired_ids_[static_cast<std::size_t>(id)], t <= until)
          << "event " << id << " due at " << t << ", stop at " << until;
    }
  }

  void CheckCounters() const {
    ASSERT_EQ(sim_.events_executed(), fired_.size());
    ASSERT_EQ(sim_.pending(), scheduled_.size() - fired_.size());
  }

  /// The earliest due time of a pending event, if any.
  std::optional<SimTime> NextDue() const {
    std::optional<SimTime> next;
    for (const auto& [t, id] : scheduled_) {
      if (!fired_ids_[static_cast<std::size_t>(id)] && (!next || t < *next)) {
        next = t;
      }
    }
    return next;
  }

  std::vector<std::pair<SimTime, int>> Expected() const {
    auto expected = scheduled_;
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return expected;
  }

  Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }
  const std::vector<std::pair<SimTime, int>>& fired() const { return fired_; }
  void set_spawn_budget(int budget) { spawn_budget_ = budget; }

 private:
  void Fire(SimTime t, int id) {
    EXPECT_EQ(sim_.Now(), t) << "event " << id;
    fired_.emplace_back(t, id);
    fired_ids_[static_cast<std::size_t>(id)] = true;
    const std::int64_t children = rng_.UniformInt(0, 2);
    for (std::int64_t c = 0; c < children && spawn_budget_ > 0; ++c) {
      --spawn_budget_;
      Schedule(RandomDelay());
    }
  }

  Simulator sim_;
  Rng rng_;
  int spawn_budget_ = 0;
  std::vector<std::pair<SimTime, int>> scheduled_;  // (due, id), id order
  std::vector<bool> fired_ids_;                     // by id
  std::vector<std::pair<SimTime, int>> fired_;
};

TEST(SimulatorHorizonTest, RandomRunsAcrossTheHorizonFireInStableOrder) {
  constexpr SimDuration kW = HorizonRun::kW;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(seed);
    HorizonRun run(seed);
    Rng& rng = run.rng();
    run.set_spawn_budget(3000);
    for (int i = 0; i < 300; ++i) run.Schedule(run.RandomDelay());
    ASSERT_NO_FATAL_FAILURE(run.CheckCounters());

    for (int stop = 0; stop < 120; ++stop) {
      const SimTime now = run.sim().Now();
      SimTime until = now;
      switch (rng.UniformInt(0, 4)) {
        case 0: until = now + rng.UniformInt(0, 3 * kW); break;
        case 1: until = now + rng.UniformInt(0, 64); break;
        case 2: break;  // a stop that does not move the clock
        case 3:         // inside the empty stretch before the next event
          if (const auto next = run.NextDue(); next && *next > now) {
            until = now + rng.UniformInt(0, *next - 1 - now);
          }
          break;
        default:  // a few single steps; the stop lands where they left off
          for (int k = 0; k < 5 && run.sim().Step(); ++k) {
          }
          ASSERT_NO_FATAL_FAILURE(run.CheckCounters());
          until = run.sim().Now();
          break;
      }
      ASSERT_NO_FATAL_FAILURE(run.StopAt(until));
      // Between stops: events at Now() and anywhere across the horizon.
      const std::int64_t extra = rng.UniformInt(0, 3);
      for (std::int64_t i = 0; i < extra; ++i) run.Schedule(run.RandomDelay());
      run.Schedule(0);
    }

    // Drain, then leave only events beyond the horizon, so the wheel is
    // empty and the clock jumps across it: first a RunUntil whose clock set
    // must move the W + 1 event into its bucket before a direct insert at
    // the same millisecond, then Step()s straight to the overflow heap's
    // head.
    run.set_spawn_budget(0);
    ASSERT_NO_FATAL_FAILURE(run.StopAt(run.sim().Now() + 20 * kW));
    ASSERT_EQ(run.sim().pending(), 0u);
    const SimTime base = run.sim().Now();
    run.ScheduleAt(base + kW + 1);
    run.ScheduleAt(base + 2 * kW);
    run.ScheduleAt(base + 10 * kW);
    run.ScheduleAt(base + 10 * kW);
    ASSERT_NO_FATAL_FAILURE(run.StopAt(base + kW / 2));
    run.ScheduleAt(base + kW + 1);
    run.ScheduleAt(base + 10 * kW);
    ASSERT_NO_FATAL_FAILURE(run.StopAt(base + 3 * kW));
    ASSERT_TRUE(run.sim().Step());
    EXPECT_EQ(run.sim().Now(), base + 10 * kW);
    ASSERT_NO_FATAL_FAILURE(run.CheckCounters());
    ASSERT_NO_FATAL_FAILURE(run.StopAt(base + 30 * kW));
    ASSERT_EQ(run.sim().pending(), 0u);
    EXPECT_FALSE(run.sim().Step());

    EXPECT_EQ(run.fired(), run.Expected());
  }
}

TEST(SimulatorSemanticsTest, RunUntilBoundaryIsInclusiveAndLandsOnUntil) {
  Simulator sim;
  std::vector<SimTime> at;
  sim.ScheduleAt(5, [&] { at.push_back(sim.Now()); });
  sim.ScheduleAt(10, [&] { at.push_back(sim.Now()); });
  sim.ScheduleAt(11, [&] { at.push_back(sim.Now()); });
  sim.RunUntil(10);
  // Events at exactly `until` run, later ones wait, Now() == until.
  EXPECT_EQ(at, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_EQ(sim.pending(), 1u);
  // An empty RunUntil still advances the clock.
  sim.RunUntil(10);
  EXPECT_EQ(sim.Now(), 10);
  sim.RunUntil(100);
  EXPECT_EQ(at, (std::vector<SimTime>{5, 10, 11}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorSemanticsTest, PendingAndExecutedCounts) {
  Simulator sim;
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
  for (int i = 0; i < 5; ++i) sim.ScheduleAt(i * 10, [] {});
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.events_executed(), 1u);
  sim.RunUntil(100);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorSemanticsTest, HandlersScheduleAtTheCurrentInstant) {
  // An event scheduled at Now() from inside a handler fires in the same
  // RunUntil pass, after every previously scheduled event at that time.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(5, [&] {
    order.push_back(0);
    sim.ScheduleAfter(0, [&] { order.push_back(2); });
  });
  sim.ScheduleAt(5, [&] { order.push_back(1); });
  sim.RunUntil(5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorSemanticsTest, HandlersScheduleBeyondTheBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(5, [&] {
    ++fired;
    sim.ScheduleAt(20, [&] { ++fired; });  // beyond `until`: must wait
  });
  sim.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorSemanticsTest, DeepReschedulingChainReusesTheSlab) {
  // A self-rescheduling chain (the beacon/sampler pattern) runs through
  // pooled slots; the queue never grows beyond the live event count.
  Simulator sim;
  int fired = 0;
  struct Chain {
    Simulator& sim;
    int& fired;
    void Tick() {
      if (++fired < 1000) sim.ScheduleAfter(1, [this] { Tick(); });
    }
  };
  Chain chain{sim, fired};
  sim.ScheduleAt(0, [&chain] { chain.Tick(); });
  sim.RunUntil(2000);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorSemanticsTest, MoveOnlyCapturesAreSupported) {
  Simulator sim;
  auto value = std::make_unique<int>(99);
  int seen = 0;
  sim.ScheduleAt(1, [v = std::move(value), &seen] { seen = *v; });
  sim.RunUntil(1);
  EXPECT_EQ(seen, 99);
}

TEST(SimulatorSemanticsTest, LargeCapturesFallBackToTheHeapAndStillFire) {
  Simulator sim;
  std::array<std::uint64_t, 64> big{};  // 512 bytes: far beyond inline
  big[63] = 7;
  static_assert(!Simulator::EventFn::kFitsInline<decltype([big] {})>);
  std::uint64_t seen = 0;
  sim.ScheduleAt(1, [big, &seen] { seen = big[63]; });
  sim.RunUntil(1);
  EXPECT_EQ(seen, 7u);
}

TEST(SimulatorSemanticsTest, SmallCapturesStayInline) {
  struct Probe {
    void* a;
    std::uint64_t b;
  };
  static_assert(Simulator::EventFn::kFitsInline<decltype([p = Probe{}] {})>);
  Simulator::EventFn fn = [] {};
  EXPECT_TRUE(fn.is_inline());
}

TEST(SimulatorSemanticsTest, AThrowingHandlerReleasesItsSlot) {
  // An exception from a handler leaves nothing of its event behind: by the
  // time the caller catches, the capture is destroyed and the slot is free,
  // and the loop goes on firing later events.
  Simulator sim;
  auto probe = std::make_shared<int>(0);
  sim.ScheduleAt(1, [probe] {
    ++*probe;
    throw std::runtime_error("handler failed");
  });
  EXPECT_THROW(sim.RunUntil(10), std::runtime_error);
  EXPECT_EQ(*probe, 1);
  EXPECT_EQ(probe.use_count(), 1);
  EXPECT_EQ(sim.pending(), 0u);
  int fired = 0;
  sim.ScheduleAt(5, [&fired] { ++fired; });
  sim.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorSemanticsTest, AHandlerKeepsItsCaptureWhileTheSlabGrows) {
  // A handler that schedules many events grows the slab while it runs; its
  // own capture must stay valid throughout, and pending() inside it counts
  // only the new events, not the one firing.
  Simulator sim;
  const std::string expected = "a capture longer than the small-string buffer";
  std::string seen;
  std::size_t pending_inside = 0;
  sim.ScheduleAt(1, [&sim, &seen, &pending_inside, text = expected] {
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(2 + i % 7, [] {});
    }
    pending_inside = sim.pending();
    seen = text;
  });
  sim.RunUntil(1);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(pending_inside, 10000u);
  sim.RunUntil(100);
  EXPECT_EQ(sim.events_executed(), 10001u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorSemanticsTest, SchedulingInThePastStillThrows) {
  Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.RunUntil(10);
  EXPECT_THROW(sim.ScheduleAt(9, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAfter(-1, [] {}), std::invalid_argument);
  // Scheduling at exactly Now() stays legal.
  sim.ScheduleAt(10, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

}  // namespace
}  // namespace ttmqo
