// Tests for the coroutine layer: Task chaining, futures, timeouts, quorum
// gathering — the machinery every protocol in the repo is built on.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace music::sim {
namespace {

Task<int> add_after(Simulation& s, Duration d, int a, int b) {
  co_await sleep_for(s, d);
  co_return a + b;
}

Task<int> chain(Simulation& s) {
  int x = co_await add_after(s, 100, 1, 2);
  int y = co_await add_after(s, 100, x, 10);
  co_return y;
}

TEST(Coroutine, SleepAdvancesVirtualTime) {
  Simulation s;
  Time finished = -1;
  spawn(s, [](Simulation& sm, Time& f) -> Task<void> {
    co_await sleep_for(sm, 1234);
    f = sm.now();
  }(s, finished));
  s.run_until_idle();
  EXPECT_EQ(finished, 1234);
}

TEST(Coroutine, TasksChainAndReturnValues) {
  Simulation s;
  int result = 0;
  spawn(s, [](Simulation& sm, int& r) -> Task<void> {
    r = co_await chain(sm);
  }(s, result));
  s.run_until_idle();
  EXPECT_EQ(result, 13);
}

TEST(Coroutine, ManyConcurrentTasksInterleave) {
  Simulation s;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    spawn(s, [](Simulation& sm, int i_, int& d) -> Task<void> {
      co_await sleep_for(sm, 10 * (i_ % 7 + 1));
      ++d;
    }(s, i, done));
  }
  s.run_until_idle();
  EXPECT_EQ(done, 100);
}

TEST(Coroutine, StringParamsSurviveSuspension) {
  // Regression guard for the GCC 12 parameter-copy bug family: by-value
  // string and user-ctor struct params must be real copies.
  Simulation s;
  std::string out;
  spawn(s, [](Simulation& sm, std::string& o) -> Task<void> {
    std::string heap_str(64, 'q');
    auto t = [](Simulation& sm2, std::string v) -> Task<std::string> {
      co_await sleep_for(sm2, 100);
      co_return v + "!";
    };
    o = co_await t(sm, heap_str);
  }(s, out));
  s.run_until_idle();
  EXPECT_EQ(out, std::string(64, 'q') + "!");
}

TEST(Future, ValueDeliveredToAwaiter) {
  Simulation s;
  Promise<int> p(s);
  int got = 0;
  spawn(s, [](Future<int> f, int& g) -> Task<void> {
    g = co_await f;
  }(p.future(), got));
  s.schedule(500, [p] { p.set_value(77); });
  s.run_until_idle();
  EXPECT_EQ(got, 77);
}

TEST(Future, AwaitingAnAlreadyReadyFutureResumesPromptly) {
  Simulation s;
  Promise<int> p(s);
  p.set_value(5);
  int got = 0;
  spawn(s, [](Future<int> f, int& g) -> Task<void> {
    g = co_await f;
  }(p.future(), got));
  s.run_until_idle();
  EXPECT_EQ(got, 5);
}

TEST(Future, OnValueReceivesCopyWithoutSelfCapture) {
  Simulation s;
  Promise<std::string> p(s);
  std::string got;
  p.future().on_value([&got](const std::string& v) { got = v; });
  p.set_value("hello");
  s.run_until_idle();
  EXPECT_EQ(got, "hello");
}

TEST(Future, NeverFulfilledPromiseDoesNotLeakThroughOnValue) {
  // The callback holds no reference to the future, so dropping both ends
  // frees the shared state (LeakSanitizer enforces this in ASan runs).
  Simulation s;
  {
    Promise<int> p(s);
    p.future().on_value([](const int&) {});
  }
  s.run_until_idle();
  SUCCEED();
}

TEST(Timeout, ValueBeatsTimeout) {
  Simulation s;
  Promise<int> p(s);
  std::optional<int> got;
  spawn(s, [](Simulation& sm, Future<int> f, std::optional<int>& g) -> Task<void> {
    g = co_await await_with_timeout(sm, f, 1000);
  }(s, p.future(), got));
  s.schedule(500, [p] { p.set_value(9); });
  s.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 9);
}

TEST(Timeout, TimeoutBeatsValue) {
  Simulation s;
  Promise<int> p(s);
  std::optional<int> got = 123;
  Time when = -1;
  spawn(s, [](Simulation& sm, Future<int> f, std::optional<int>& g,
              Time& w) -> Task<void> {
    g = co_await await_with_timeout(sm, f, 1000);
    w = sm.now();
  }(s, p.future(), got, when));
  s.schedule(5000, [p] { p.set_value(9); });  // too late
  s.run_until_idle();
  EXPECT_FALSE(got.has_value());
  EXPECT_LE(when, 1100);  // resumed at the timeout, not the late value
}

TEST(AwaitCount, ReturnsWhenQuorumReached) {
  Simulation s;
  std::vector<Promise<int>> ps;
  std::vector<Future<int>> fs;
  for (int i = 0; i < 5; ++i) {
    ps.emplace_back(s);
    fs.push_back(ps.back().future());
  }
  std::vector<int> got;
  Time when = -1;
  spawn(s, [](Simulation& sm, std::vector<Future<int>> f, std::vector<int>& g,
              Time& w) -> Task<void> {
    g = co_await await_count<int>(sm, std::move(f), 3, sec(10));
    w = sm.now();
  }(s, fs, got, when));
  for (int i = 0; i < 5; ++i) {
    s.schedule(100 * (i + 1), [p = ps[static_cast<size_t>(i)], i] {
      p.set_value(i);
    });
  }
  s.run_until_idle();
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(when, 300);  // resumed at the third arrival
}

TEST(AwaitCount, TimeoutReturnsPartialResults) {
  Simulation s;
  std::vector<Promise<int>> ps;
  std::vector<Future<int>> fs;
  for (int i = 0; i < 3; ++i) {
    ps.emplace_back(s);
    fs.push_back(ps.back().future());
  }
  std::vector<int> got;
  spawn(s, [](Simulation& sm, std::vector<Future<int>> f,
              std::vector<int>& g) -> Task<void> {
    g = co_await await_count<int>(sm, std::move(f), 3, ms(1));
  }(s, fs, got));
  s.schedule(100, [p = ps[0]] { p.set_value(1); });  // only one arrives
  s.run_until_idle();
  EXPECT_EQ(got.size(), 1u);  // partial: below the wanted quorum of 3
}

TEST(AwaitCount, ZeroWantedResolvesImmediately) {
  Simulation s;
  std::vector<int> got{1, 2, 3};
  spawn(s, [](Simulation& sm, std::vector<int>& g) -> Task<void> {
    g = co_await await_count<int>(sm, {}, 0, sec(1));
  }(s, got));
  s.run_until_idle();
  EXPECT_TRUE(got.empty());
}

/// A reply value that counts its live instances, to see who holds one.
struct Counted {
  static int live;
  int v = 0;
  explicit Counted(int x) : v(x) { ++live; }
  Counted(const Counted& o) : v(o.v) { ++live; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }
};
int Counted::live = 0;

// Once a wait ends and its caller drops the value, nothing may still hold a
// copy: in particular not the timeout timer, whose deadline is far off.
TEST(Timeout, FinishedWaitHoldsNoCopyOfTheValue) {
  Counted::live = 0;
  Simulation s;
  bool done = false;
  {
    Promise<Counted> p(s);
    spawn(s, [](Simulation& sm, Future<Counted> f, bool& d) -> Task<void> {
      std::optional<Counted> r = co_await await_with_timeout(sm, f, sec(6));
      EXPECT_TRUE(r.has_value() && r->v == 5);
      d = true;
    }(s, p.future(), done));
    s.schedule(ms(1), [p] { p.set_value(Counted(5)); });
  }
  s.run_until(ms(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(Counted::live, 0);
  s.run_until_idle();
  EXPECT_EQ(s.now(), sec(6));  // the cancelled timer still pops at its time
}

TEST(AwaitCount, FinishedWaitHoldsNoCopyOfTheValues) {
  Counted::live = 0;
  Simulation s;
  size_t got = 0;
  {
    std::vector<Promise<Counted>> ps;
    std::vector<Future<Counted>> fs;
    for (int i = 0; i < 3; ++i) {
      ps.emplace_back(s);
      fs.push_back(ps.back().future());
      s.schedule(ms(i + 1), [p = ps.back(), i] { p.set_value(Counted(i)); });
    }
    spawn(s, [](Simulation& sm, std::vector<Future<Counted>> f,
                size_t& n) -> Task<void> {
      n = (co_await await_count<Counted>(sm, std::move(f), 2, ms(1500)))
              .size();
    }(s, std::move(fs), got));
  }
  s.run_until(ms(10));
  EXPECT_EQ(got, 2u);
  EXPECT_EQ(Counted::live, 0);
  s.run_until_idle();
  EXPECT_EQ(s.now(), ms(1500));
}

TEST(AwaitAll, WaitsForEverything) {
  Simulation s;
  std::vector<Promise<Unit>> ps;
  std::vector<Future<Unit>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.emplace_back(s);
    fs.push_back(ps.back().future());
    s.schedule(50 * (i + 1), [p = ps.back()] { p.set_value(Unit{}); });
  }
  size_t n = 0;
  spawn(s, [](Simulation& sm, std::vector<Future<Unit>> f, size_t& out)
            -> Task<void> {
    auto all = co_await await_all<Unit>(sm, std::move(f));
    out = all.size();
  }(s, fs, n));
  s.run_until_idle();
  EXPECT_EQ(n, 4u);
}

}  // namespace
}  // namespace music::sim
