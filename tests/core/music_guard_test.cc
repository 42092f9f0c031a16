// Guard-path tests: the acquireLock/criticalPut outcome matrix of §IV
// (NotYetHolder, NotLockHolder, fairness), MSCP mode, and retry semantics.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/session.h"
#include "util/world.h"

namespace music::core {
namespace {

using test::MusicWorld;
using test::WorldOptions;

TEST(Guards, SecondInQueuePollsUntilFirstReleases) {
  MusicWorld w;
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r1 = co_await c0.create_lock_ref("k");
    auto r2 = co_await c1.create_lock_ref("k");
    CO_ASSERT_TRUE(r1.ok());
    CO_ASSERT_TRUE(r2.ok());
    EXPECT_LT(r1.value(), r2.value());
    co_await c0.acquire_lock_blocking("k", r1.value());
    // c1 polls: not first in the queue.
    auto poll = co_await c1.acquire_lock(/*key=*/"k", r2.value());
    EXPECT_EQ(poll.status(), OpStatus::NotYetHolder);
    // Critical ops with a non-head ref are refused the same way.
    auto put = co_await c1.critical_put("k", r2.value(), Value("x"));
    EXPECT_FALSE(put.ok());
    co_await c0.release_lock("k", r1.value());
    // Now c1 wins the lock.
    auto acq = co_await c1.acquire_lock_blocking("k", r2.value());
    EXPECT_TRUE(acq.ok());
    co_await c1.release_lock("k", r2.value());
  });
  ASSERT_TRUE(ok);
}

TEST(Guards, ReleasedRefIsToldNotLockHolder) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r1 = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", r1.value());
    co_await c.release_lock("k", r1.value());
    auto r2 = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", r2.value());
    // The released ref is behind the current head: youAreNoLongerLockHolder.
    co_await sim::sleep_for(w.sim, sim::sec(1));  // lock store propagates
    auto put = co_await c.critical_put("k", r1.value(), Value("x"));
    EXPECT_EQ(put.status(), OpStatus::NotLockHolder);
    auto get = co_await c.critical_get("k", r1.value());
    EXPECT_EQ(get.status(), OpStatus::NotLockHolder);
    auto acq = co_await c.acquire_lock("k", r1.value());
    EXPECT_EQ(acq.status(), OpStatus::NotLockHolder);
    co_await c.release_lock("k", r2.value());
  });
  ASSERT_TRUE(ok);
}

TEST(Guards, ReacquireByHolderIsIdempotent) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    auto a1 = co_await c.acquire_lock_blocking("k", ref.value());
    CO_ASSERT_TRUE(a1.ok());
    co_await c.critical_put("k", ref.value(), Value("v1"));
    // acquireLock again with the same ref: still the holder; the section's
    // time origin must not reset (a subsequent put still outranks v1).
    auto a2 = co_await c.acquire_lock_blocking("k", ref.value());
    EXPECT_TRUE(a2.ok());
    auto p = co_await c.critical_put("k", ref.value(), Value("v2"));
    EXPECT_TRUE(p.ok());
    auto g = co_await c.critical_get("k", ref.value());
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().data, "v2");
  });
  ASSERT_TRUE(ok);
}

TEST(Guards, FairnessGrantsInLockRefOrder) {
  // Concurrent createLockRefs can leave orphan refs (an LWT retry whose
  // first proposal was replayed); the failure detector collects orphans at
  // the head (SIV-B), after which grants proceed in lockRef order.
  WorldOptions opt;
  opt.music.holder_timeout = sim::sec(4);
  opt.music.fd_interval = sim::sec(1);
  MusicWorld w(opt);
  w.replica(0).start_failure_detector();
  std::vector<LockRef> grant_order;
  int finished = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(w.sim, [](MusicWorld& world, int ci, std::vector<LockRef>& order,
                         int& fin) -> sim::Task<void> {
      auto& c = world.client(static_cast<size_t>(ci));
      auto ref = co_await c.create_lock_ref("k");
      if (ref.ok()) {
        auto acq = co_await c.acquire_lock_blocking("k", ref.value());
        if (acq.ok()) {
          order.push_back(ref.value());
          co_await c.critical_put("k", ref.value(), Value("v"));
          co_await c.release_lock("k", ref.value());
        }
      }
      ++fin;
    }(w, i, grant_order, finished));
  }
  w.sim.run_until(sim::sec(300));
  ASSERT_EQ(finished, 3);
  ASSERT_EQ(grant_order.size(), 3u);
  EXPECT_TRUE(std::is_sorted(grant_order.begin(), grant_order.end()))
      << "locks must be granted fairly, in lockRef (request) order";
}

TEST(Mscp, ProvidesTheSameSemanticsViaLwtPuts) {
  WorldOptions opt;
  opt.music.put_mode = PutMode::Lwt;  // MSCP
  MusicWorld w(opt);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      auto g0 = co_await c.critical_get("k", ref);
      EXPECT_EQ(g0.status(), OpStatus::NotFound);
      auto p = co_await c.critical_put("k", ref, Value("mscp"));
      EXPECT_TRUE(p.ok());
      auto g1 = co_await c.critical_get("k", ref);
      EXPECT_TRUE(g1.ok());
      if (g1.ok()) {
        EXPECT_EQ(g1.value().data, "mscp");
      }
      co_return Status::Ok();
    };
    auto st = co_await c.with_lock("k", body);
    EXPECT_TRUE(st.ok());
  });
  ASSERT_TRUE(ok);
}

TEST(Mscp, CriticalPutCostsFourRoundTripsVsOneForMusic) {
  // The heart of Fig. 5(b): MSCP's put is an LWT ('P') at ~4 RTTs; MUSIC's
  // is a quorum write ('Q') at ~1 RTT.
  auto measure = [](PutMode mode) {
    WorldOptions opt;
    opt.music.put_mode = mode;
    MusicWorld w(opt);
    auto& c = w.client(0);
    sim::Time cost = 0;
    bool ok = w.runner.run([&]() -> sim::Task<void> {
      auto ref = co_await c.create_lock_ref("k");
      co_await c.acquire_lock_blocking("k", ref.value());
      sim::Time t0 = w.sim.now();
      co_await c.critical_put("k", ref.value(), Value("v"));
      cost = w.sim.now() - t0;
    });
    EXPECT_TRUE(ok);
    return cost;
  };
  sim::Time music_put = measure(PutMode::Quorum);
  sim::Time mscp_put = measure(PutMode::Lwt);
  EXPECT_GT(mscp_put, 3 * music_put);
  EXPECT_LT(music_put, sim::ms(90));
  EXPECT_GT(mscp_put, sim::ms(180));
}

TEST(Retries, ClientSurvivesTransientBackendOutage) {
  MusicWorld w;
  auto& c = w.client(0);
  // Take a store node down briefly mid-run; the client's retry discipline
  // (SIII: "retry ... until the operation succeeds") rides it out.
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    w.store.replica(1).set_down(true);
    w.store.replica(2).set_down(true);  // no quorum now
    w.sim.schedule(sim::sec(4), [&] { w.store.replica(1).set_down(false); });
    auto p = co_await c.critical_put("k", ref.value(), Value("v"));
    EXPECT_TRUE(p.ok());  // succeeded after the node returned
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

TEST(Stats, CountersTrackOperations) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      co_await c.critical_put("k", ref, Value("a"));
      co_await c.critical_put("k", ref, Value("b"));
      auto g = co_await c.critical_get("k", ref);
      (void)g;
      // A batched read of a never-written key answers NotFound, and is
      // still a criticalGet.
      Session s(c, "k", ref);
      size_t ix = s.get("never-written");
      co_await s.flush();
      EXPECT_EQ(s.results()[ix].status, OpStatus::NotFound);
      co_return Status::Ok();
    };
    co_await c.with_lock("k", body);
  });
  ASSERT_TRUE(ok);
  const auto& st = w.replica(0).stats();
  EXPECT_EQ(st.create_lock_ref, 1u);
  EXPECT_EQ(st.acquire_granted, 1u);
  EXPECT_EQ(st.critical_puts, 2u);
  EXPECT_EQ(st.critical_gets, 2u);
  EXPECT_EQ(st.releases, 1u);
}

}  // namespace
}  // namespace music::core
