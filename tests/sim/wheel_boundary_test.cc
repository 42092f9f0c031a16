// Boundary regressions for the timer-wheel / far-heap frontier.
//
// The kernel keeps two event structures per lane: a wheel of kWheelTicks
// one-microsecond buckets for events within [now, now + kWheelTicks), and a
// far heap for everything later.  Off-by-one mistakes at the frontier are
// silent (events still run, just out of order), so these tests pin the
// contract exactly:
//
//  - an event at exactly now + kWheelTicks belongs to the FAR HEAP, and one
//    at now + kWheelTicks - 1 to the wheel, yet both run in timestamp order;
//  - after a large run_until() clock jump the far heap's front can land
//    inside the new wheel window; freshly wheeled events behind it must not
//    overtake it;
//  - the cached next-bucket scan (memoised between next_event_at() and the
//    pop) is invalidated by an earlier enqueue and by clock movement;
//  - a cancelled event on either side of the frontier still pops at its
//    time (wheel: as an empty callable; far heap: as a tombstone whose slot
//    was already freed), including when the tombstone is the far-heap front
//    compared against a wheel head.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"

namespace music::sim {
namespace {

constexpr Duration kTicks = static_cast<Duration>(Simulation::kWheelTicks);

TEST(WheelBoundary, EventAtExactlyWheelTicksRunsAfterWheelResidents) {
  Simulation sim(1);
  std::vector<int> order;
  // Scheduled in reverse timestamp order so FIFO insertion can't fake it.
  sim.schedule(kTicks, [&] { order.push_back(3); });      // far heap (== edge)
  sim.schedule(kTicks - 1, [&] { order.push_back(2); });  // last wheel bucket
  sim.schedule(us(0), [&] { order.push_back(1); });       // current bucket
  EXPECT_EQ(sim.pending(), 3u);

  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), kTicks);
  EXPECT_EQ(sim.events_run(), 3u);
}

TEST(WheelBoundary, SameTimestampAcrossFrontierPreservesScheduleOrder) {
  Simulation sim(1);
  // Both targets land at t = kTicks: the first is scheduled while that time
  // is beyond the wheel window (far heap), the second after the clock has
  // moved so the same timestamp is wheel-range.  Tie-break is scheduling
  // order (per-lane seq), not which structure held the event.
  std::vector<int> order;
  sim.schedule(kTicks, [&] { order.push_back(1); });  // far heap at t=0
  sim.schedule(us(1), [&] {
    // now = 1, so t = kTicks is kTicks-1 away: wheel.
    sim.schedule_at(kTicks, [&] { order.push_back(2); });
  });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(WheelBoundary, FarHeapFrontRunsBeforeFreshWheelEventsAfterClockJump) {
  Simulation sim(1);
  std::vector<int> order;
  const Time far = 3 * kTicks;  // well beyond the initial wheel window
  sim.schedule_at(far, [&] { order.push_back(1); });
  sim.schedule_at(far + us(500), [&] { order.push_back(2); });

  // Jump the clock to just below the far events: both are now INSIDE the
  // wheel window [far - 1, far - 1 + kTicks) but still live in the heap.
  sim.run_until(far - 1);
  EXPECT_EQ(sim.now(), far - 1);
  EXPECT_TRUE(order.empty());

  // A freshly scheduled wheel event between the two heap residents must
  // neither run before the heap front nor after the later heap event.
  sim.schedule_at(far + us(100), [&] { order.push_back(3); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(WheelBoundary, PeekThenEarlierEnqueueInvalidatesCachedScan) {
  Simulation sim(1);
  std::vector<int> order;
  sim.schedule(us(100), [&] { order.push_back(100); });
  // peek memoises the next-bucket scan result (tick now+100)...
  EXPECT_EQ(sim.peek_next_event_at(), us(100));
  // ...which must be dropped when an EARLIER wheel event arrives.
  sim.schedule(us(5), [&] { order.push_back(5); });
  EXPECT_EQ(sim.peek_next_event_at(), us(5));
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{5}));
  EXPECT_EQ(sim.now(), us(5));
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{5, 100}));
}

TEST(WheelBoundary, CachedScanSurvivesClockMovementAcrossWraps) {
  Simulation sim(1);
  // Repeated peek/run cycles across several wheel wraps: the cache must
  // never serve a stale bucket after the clock (and thus the wheel origin)
  // has moved.  Chained re-scheduling keeps exactly one event live.
  int runs = 0;
  std::function<void()> hop = [&] {
    if (++runs < 64) sim.schedule(kTicks - 7, hop);
  };
  sim.schedule(us(0), hop);
  while (!sim.idle()) {
    Time next = sim.peek_next_event_at();
    ASSERT_NE(next, kTimeNever);
    sim.run_until(next);  // moves the clock, then runs the event at `next`
  }
  EXPECT_EQ(runs, 64);
  EXPECT_EQ(sim.now(), static_cast<Time>(63) * (kTicks - 7));
}

TEST(WheelBoundary, DenseBucketsAroundFrontierKeepTimestampOrder) {
  Simulation sim(1);
  // A spread of events straddling the frontier, scheduled shuffled; the
  // kernel must emit them in (timestamp, schedule-seq) order.
  std::vector<Time> fired;
  const Duration offsets[] = {kTicks + 3, us(1),       kTicks - 1, kTicks,
                              us(0),      kTicks + 1,  us(7),      kTicks - 2,
                              kTicks + 2, kTicks - 1};
  for (Duration d : offsets) {
    sim.schedule(d, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until_idle();
  ASSERT_EQ(fired.size(), std::size(offsets));
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]) << "out of order at index " << i;
  }
  EXPECT_EQ(fired.back(), kTicks + 3);
}

TEST(WheelBoundary, CancelledWheelEventPopsEmptyAtItsTime) {
  Simulation sim(1);
  std::vector<int> order;
  EventId last = sim.schedule(kTicks - 1, [&] { order.push_back(2); });
  sim.schedule(us(3), [&] { order.push_back(1); });
  sim.cancel(last);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), kTicks - 1);
  EXPECT_EQ(sim.events_run(), 2u);
}

TEST(WheelBoundary, CancelledEventAtExactlyWheelTicksIsATombstone) {
  Simulation sim(1);
  std::vector<int> order;
  EventId edge = sim.schedule(kTicks, [&] { order.push_back(3); });  // heap
  sim.schedule(kTicks - 1, [&] { order.push_back(2); });             // wheel
  sim.schedule(kTicks + 1, [&] { order.push_back(4); });             // heap
  sim.cancel(edge);
  // The freed slot is reused straight away; the tombstone must not run it.
  sim.schedule(us(0), [&] { order.push_back(1); });
  EXPECT_EQ(sim.arena_slots(), 3u);
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.now(), kTicks + 1);
  EXPECT_EQ(sim.events_run(), 4u);
}

TEST(WheelBoundary, TombstoneAtHeapFrontBeatsSameTimeWheelHead) {
  Simulation sim(1);
  std::vector<int> order;
  // Cancelled far event at t = kTicks (lower seq than anything below).
  EventId far = sim.schedule(kTicks, [&] { order.push_back(0); });
  sim.schedule(us(1), [&] {
    sim.cancel(far);
    // now = 1: both land in the wheel, at and just past the tombstone.
    sim.schedule_at(kTicks, [&] { order.push_back(1); });
    sim.schedule_at(kTicks + 1, [&] { order.push_back(2); });
  });
  sim.run_until(kTicks);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.events_run(), 3u);  // the t=1 event, the tombstone, id 1
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_run(), 4u);
}

}  // namespace
}  // namespace music::sim
