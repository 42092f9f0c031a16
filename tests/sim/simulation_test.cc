// Unit tests for the discrete-event kernel: ordering, clock advancement,
// determinism, event payload lifecycle, cancellation.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace music::sim {
namespace {

TEST(Simulation, StartsAtTimeZeroAndIdle) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.step());
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule(300, [&] { order.push_back(3); });
  s.schedule(100, [&] { order.push_back(1); });
  s.schedule(200, [&] { order.push_back(2); });
  s.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(Simulation, SameTimeEventsRunInSchedulingOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(50, [&order, i] { order.push_back(i); });
  }
  s.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation s;
  s.schedule(100, [] {});
  s.run_until_idle();
  bool ran = false;
  s.schedule(-50, [&] { ran = true; });
  s.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulation, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulation s;
  s.run_until(5000);
  EXPECT_EQ(s.now(), 5000);
  s.run_for(2500);
  EXPECT_EQ(s.now(), 7500);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation s;
  int ran = 0;
  s.schedule(100, [&] { ++ran; });
  s.schedule(200, [&] { ++ran; });
  s.schedule(300, [&] { ++ran; });
  s.run_until(200);
  EXPECT_EQ(ran, 2);  // t=100 and t=200 inclusive
  EXPECT_EQ(s.now(), 200);
  s.run_until_idle();
  EXPECT_EQ(ran, 3);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule(10, recurse);
  };
  s.schedule(10, recurse);
  s.run_until_idle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 1000);
}

TEST(Simulation, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](uint64_t seed) {
    Simulation s(seed);
    std::vector<int64_t> draws;
    for (int i = 0; i < 32; ++i) draws.push_back(s.rng().uniform_int(0, 1000));
    return draws;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Simulation, CurrentSimulationSetDuringStep) {
  Simulation s;
  EXPECT_EQ(current_simulation(), nullptr);
  Simulation* seen = nullptr;
  s.schedule(1, [&] { seen = current_simulation(); });
  s.run_until_idle();
  EXPECT_EQ(seen, &s);
  EXPECT_EQ(current_simulation(), nullptr);
}

TEST(Simulation, EventCounterAdvances) {
  Simulation s;
  for (int i = 0; i < 5; ++i) s.schedule(i, [] {});
  s.run_until_idle();
  EXPECT_EQ(s.events_run(), 5u);
}

// An event running at time t can schedule follow-ups for that same instant
// (delay 0) or any time <= the run_until bound; all of them must run within
// the same run_until call, not leak into the next one.
TEST(Simulation, RunUntilRunsEventsScheduledDuringTheCall) {
  Simulation s;
  std::vector<int> ran;
  s.schedule(100, [&] {
    ran.push_back(1);
    s.schedule(0, [&] { ran.push_back(2); });   // same instant, t=100
    s.schedule(50, [&] { ran.push_back(3); });  // t=150, still <= bound
    s.schedule(51, [&] { ran.push_back(4); });  // t=151, past the bound
  });
  s.run_until(150);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 150);
  s.run_until_idle();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4}));
}

/// Counts live instances and flags any invocation of a moved-from callable.
/// Regression guard for the old kernel's const_cast-move-out-of-top idiom:
/// the popped event's payload must be moved out of the queue before it runs
/// and the husk must never be compared against or invoked again.
struct EventProbe {
  static int live;
  static int calls_on_moved_from;
  std::vector<int>* order;
  int id;
  bool moved_from = false;

  EventProbe(std::vector<int>* o, int i) : order(o), id(i) { ++live; }
  EventProbe(EventProbe&& o) noexcept : order(o.order), id(o.id) {
    ++live;
    o.moved_from = true;
  }
  EventProbe(const EventProbe&) = delete;
  ~EventProbe() { --live; }
  void operator()() {
    if (moved_from) ++calls_on_moved_from;
    order->push_back(id);
  }
};
int EventProbe::live = 0;
int EventProbe::calls_on_moved_from = 0;

TEST(Simulation, PoppedEventsAreMovedOutOnceAndDestroyed) {
  EventProbe::live = 0;
  EventProbe::calls_on_moved_from = 0;
  std::vector<int> order;
  {
    Simulation s;
    // Interleave enough same-time and distinct-time events that heap pops
    // recycle slots while later events are still queued.
    for (int i = 0; i < 64; ++i) {
      s.schedule((i % 8) * 10, EventProbe(&order, i));
    }
    // Events scheduled from inside a running event land in freshly recycled
    // slots (the running event's slot is released before its callback runs).
    s.schedule(5, [&s, &order] {
      for (int i = 64; i < 72; ++i) s.schedule(10, EventProbe(&order, i));
    });
    s.run_until_idle();
    EXPECT_EQ(order.size(), 72u);
    EXPECT_EQ(EventProbe::calls_on_moved_from, 0);
    EXPECT_EQ(EventProbe::live, 0);  // every capture destroyed after running
  }
  // Each id ran exactly once.
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 72; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Simulation, PendingEventsAreDestroyedWithTheSimulation) {
  EventProbe::live = 0;
  std::vector<int> order;
  {
    Simulation s;
    for (int i = 0; i < 16; ++i) s.schedule(100 + i, EventProbe(&order, i));
    EXPECT_EQ(EventProbe::live, 16);
    s.run_until(105);  // run a few, leave the rest queued
  }
  EXPECT_EQ(EventProbe::live, 0);  // queued captures freed by the destructor
}

TEST(Simulation, LargeCapturesRunCorrectly) {
  // A capture past InlineFn's 64-byte inline buffer takes the pooled path;
  // the payload must survive heap sifts and slot recycling intact.
  Simulation s;
  uint64_t big[32];
  for (int i = 0; i < 32; ++i) big[static_cast<size_t>(i)] = static_cast<uint64_t>(i + 1);
  uint64_t sum = 0;
  for (int rep = 0; rep < 100; ++rep) {
    s.schedule(rep, [big, &sum] {
      for (uint64_t v : big) sum += v;
    });
  }
  s.run_until_idle();
  EXPECT_EQ(sum, 100u * (32u * 33u / 2u));
}

// Stress: random times, including rescheduling from inside callbacks, must
// execute in exactly (time, scheduling order) — compared against a stable
// sort of the schedule log.
TEST(Simulation, StressOrderingMatchesReferenceModel) {
  Simulation s;
  std::mt19937 gen(12345);
  std::uniform_int_distribution<int64_t> dist(0, 50);

  struct Logged {
    Time at;
    int id;
  };
  std::vector<Logged> scheduled;  // in seq order
  std::vector<int> ran;
  int next_id = 0;

  std::function<void(int)> spawn_children = [&](int remaining) {
    if (remaining <= 0) return;
    Duration d = dist(gen);
    int id = next_id++;
    scheduled.push_back({s.now() + d, id});
    s.schedule(d, [&, id, remaining] {
      ran.push_back(id);
      spawn_children(remaining - 1);
    });
  };

  for (int i = 0; i < 200; ++i) {
    Duration d = dist(gen);
    int id = next_id++;
    scheduled.push_back({d, id});
    s.schedule(d, [&ran, id] { ran.push_back(id); });
  }
  spawn_children(100);
  s.run_until_idle();

  // Reference: stable sort by time keeps seq order within a timestamp.
  // scheduled[] is only appended to in seq order, including the entries the
  // running events added, so this reproduces the kernel's contract.
  std::vector<Logged> expected = scheduled;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Logged& a, const Logged& b) { return a.at < b.at; });
  ASSERT_EQ(ran.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ran[i], expected[i].id) << "at index " << i;
  }
}

// ---- Cancellation ----------------------------------------------------------

TEST(SimulationCancel, DestroysCapturesAtOnce) {
  Simulation s;
  auto held = std::make_shared<int>(7);
  bool ran = false;
  EventId far = s.schedule(sec(6), [held, &ran] { ran = true; });
  EventId near = s.schedule(us(10), [held, &ran] { ran = true; });
  EXPECT_EQ(held.use_count(), 3);
  s.cancel(far);
  EXPECT_EQ(held.use_count(), 2);  // far-heap event: slot freed as well
  s.cancel(near);
  EXPECT_EQ(held.use_count(), 1);  // wheel event: emptied in its bucket
  s.run_until_idle();
  EXPECT_FALSE(ran);
}

/// Delays of a mixed schedule: wheel residents, far-heap residents, and
/// both sides of the frontier.
constexpr Duration kMixedDelays[] = {
    us(5),  sec(6), us(900), ms(3),  us(0),  sec(2), us(40),  ms(50),
    us(2047), us(2048), sec(6), us(1), ms(7), sec(9), us(300)};
constexpr Duration kCancelAt = ms(1);

/// Runs the kMixedDelays schedule; when `cancel` is set, an event at
/// kCancelAt cancels every third id.  Returns the ids that ran.
std::vector<int> run_mixed_schedule(Simulation& s, bool cancel) {
  std::vector<int> ran;
  std::vector<EventId> ids;
  for (int i = 0; i < static_cast<int>(std::size(kMixedDelays)); ++i) {
    ids.push_back(
        s.schedule(kMixedDelays[i], [&ran, i] { ran.push_back(i); }));
  }
  // A later event cancels from inside the loop, after the clock moved.
  s.schedule(kCancelAt, [&] {
    if (cancel) {
      for (size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
    }
  });
  s.run_until_idle();
  return ran;
}

TEST(SimulationCancel, ScheduleShapeIsThatOfTheUncancelledRun) {
  Simulation plain(3);
  std::vector<int> all = run_mixed_schedule(plain, false);
  Simulation cancelled(3);
  std::vector<int> kept = run_mixed_schedule(cancelled, true);

  // Cancelled events still pop as empty events at their time, so the event
  // count and the clock where run_until_idle stops are unchanged.
  EXPECT_EQ(cancelled.events_run(), plain.events_run());
  EXPECT_EQ(cancelled.now(), plain.now());
  EXPECT_EQ(cancelled.now(), sec(9));  // the last event (id 13) survives

  // Survivors run in the same relative order.  Ids 0 and 6 ran before the
  // cancelling event; for them the cancel is a no-op.
  std::vector<int> expect;
  for (int id : all) {
    if (id % 3 != 0 || kMixedDelays[id] < kCancelAt) expect.push_back(id);
  }
  EXPECT_EQ(kept, expect);
  EXPECT_EQ(kept.size(), all.size() - 3);  // ids 3, 9 and 12
}

TEST(SimulationCancel, CancelAfterTheEventRanIsANoOp) {
  Simulation s;
  auto held = std::make_shared<int>(1);
  int runs = 0;
  EventId self;
  self = s.schedule(us(10), [&, held] {
    // Cancelling the running event must not destroy its own captures.
    s.cancel(self);
    EXPECT_EQ(held.use_count(), 2);
    ++runs;
  });
  s.run_until_idle();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(held.use_count(), 1);
  s.cancel(self);  // long gone
  s.cancel(EventId{});  // names no event
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.events_run(), 1u);
}

TEST(SimulationCancel, StaleIdLeavesTheSlotsNextEventAlone) {
  Simulation s;
  int far_runs = 0;
  int near_runs = 0;
  // Far event cancelled: its slot is reused by the next schedule.
  EventId a = s.schedule(sec(6), [&] { far_runs += 100; });
  s.cancel(a);
  EventId b = s.schedule(sec(6), [&] { ++far_runs; });
  ASSERT_EQ(a.slot, b.slot);
  s.cancel(a);  // stale: must not touch b
  // Near event that ran: its slot is reused likewise.
  EventId c = s.schedule(us(1), [] {});
  s.run_until(us(1));
  EventId d = s.schedule(us(1), [&] { ++near_runs; });
  ASSERT_EQ(c.slot, d.slot);
  s.cancel(c);
  s.run_until_idle();
  EXPECT_EQ(far_runs, 1);
  EXPECT_EQ(near_runs, 1);
}

TEST(SimulationCancel, FarScheduleCancelCyclesReuseOneSlot) {
  Simulation s;
  constexpr int kCycles = 100000;
  for (int i = 0; i < kCycles; ++i) {
    auto held = std::make_shared<int>(i);
    s.cancel(s.schedule(sec(6) + i, [held] {}));
  }
  // Every cancel gave its slot back, so the arena never grew past the
  // first slot; only the 24-byte heap tombstones remain queued.
  EXPECT_EQ(s.arena_slots(), 1u);
  EXPECT_EQ(s.pending(), static_cast<size_t>(kCycles));
  EXPECT_EQ(s.run_until_idle(), static_cast<size_t>(kCycles));
  EXPECT_EQ(s.now(), sec(6) + kCycles - 1);
  EXPECT_EQ(s.arena_slots(), 1u);
}

}  // namespace
}  // namespace music::sim
