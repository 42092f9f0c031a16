// MusicClient behavior tests: the §III retry discipline, replica preference
// and failover, request timeouts, with_lock cleanup.
#include <gtest/gtest.h>

#include "core/client.h"

#include "core/session.h"
#include "util/world.h"

namespace music::core {
namespace {

using test::MusicWorld;
using test::WorldOptions;

TEST(Client, PrefersItsLocalReplica) {
  MusicWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      co_return co_await w.client(1).critical_put("k", ref, Value("v"));
    };
    auto st = co_await w.client(1).with_lock("k", body);
    EXPECT_TRUE(st.ok());
  });
  ASSERT_TRUE(ok);
  // Client 1 lives at site 1: all its traffic went to replica 1.
  EXPECT_GT(w.replica(1).stats().create_lock_ref, 0u);
  EXPECT_EQ(w.replica(0).stats().create_lock_ref, 0u);
  EXPECT_EQ(w.replica(2).stats().create_lock_ref, 0u);
}

TEST(Client, FailsOverToRemoteReplicasWhenLocalIsDown) {
  MusicWorld w;
  w.replica(1).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await w.client(1).create_lock_ref("k");
    EXPECT_TRUE(ref.ok());
  }, sim::sec(120));
  ASSERT_TRUE(ok);
  EXPECT_GT(w.replica(0).stats().create_lock_ref +
                w.replica(2).stats().create_lock_ref,
            0u);
}

TEST(Client, RequestTimeoutCoversCrashedReplicaMidRequest) {
  // The replica dies while a request is in flight: the reply never comes;
  // the client times the request out and retries elsewhere.
  MusicWorld w;
  auto& c = w.client(0);
  w.sim.schedule(sim::ms(1), [&] { w.replica(0).set_down(true); });
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    EXPECT_TRUE(ref.ok());  // served by a remote replica after the timeout
  }, sim::sec(120));
  ASSERT_TRUE(ok);
}

TEST(Client, WithLockEvictsItsRefWhenNeverGranted) {
  MusicWorld w;
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // c0 wedges the key.
    auto ref = co_await c0.create_lock_ref("k");
    co_await c0.acquire_lock_blocking("k", ref.value());
    // c1 gives up and must leave no queue residue behind c0's ref.
    auto body = [&](LockRef r) -> sim::Task<Status> {
      co_return co_await c1.critical_put("k", r, Value("x"));
    };
    auto st = co_await c1.with_lock("k", body);
    EXPECT_EQ(st.status(), OpStatus::Timeout);
    // After c0 releases, a fresh section is granted immediately (no orphan
    // ahead in the queue).
    co_await c0.release_lock("k", ref.value());
    sim::Time t0 = w.sim.now();
    auto st2 = co_await c1.with_lock("k", body);
    EXPECT_TRUE(st2.ok());
    EXPECT_LT(w.sim.now() - t0, sim::sec(3));  // no orphan wait
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

TEST(Client, AllReplicasDownYieldsRetryExhaustedNotHang) {
  MusicWorld w;
  for (int i = 0; i < 3; ++i) w.replica(i).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await w.client(0).create_lock_ref("k");
    EXPECT_EQ(ref.status(), OpStatus::RetryExhausted);
    EXPECT_FALSE(ref.retryable());  // the budget is spent; no retry loop
    EXPECT_GT(w.client(0).stats().retry_exhausted, 0u);
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

TEST(Client, EventualOpsRetryAcrossReplicas) {
  MusicWorld w;
  w.replica(0).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.client(0).put("cfg", Value("v"));
    EXPECT_TRUE(st.ok());
    auto g = co_await w.client(0).get("cfg");
    EXPECT_TRUE(g.ok());
  }, sim::sec(120));
  ASSERT_TRUE(ok);
}

TEST(Client, PollBudgetBoundsAcquireBlocking) {
  WorldOptions opt;
  MusicWorld w(opt);
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r0 = co_await c0.create_lock_ref("k");
    co_await c0.acquire_lock_blocking("k", r0.value());
    auto r1 = co_await c1.create_lock_ref("k");
    sim::Time t0 = w.sim.now();
    auto st = co_await c1.acquire_lock_blocking("k", r1.value());
    EXPECT_EQ(st.status(), OpStatus::Timeout);
    // Bounded by kMaxPollAttempts x (backoff + rpc, some polls remote):
    // ~2 simulated minutes, not unbounded.
    EXPECT_LT(w.sim.now() - t0, sim::sec(180));
    co_await c1.remove_lock_ref("k", r1.value());
    co_await c0.release_lock("k", r0.value());
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

TEST(Client, DecorrelatedBackoffStaysWithinEnvelope) {
  ClientConfig cfg;
  cfg.retry_backoff_base = sim::ms(5);
  cfg.retry_backoff_cap = sim::ms(320);
  sim::Rng rng(42);
  sim::Duration prev = cfg.retry_backoff_base;
  sim::Duration seen_max = 0;
  for (int i = 0; i < 2000; ++i) {
    sim::Duration next = decorrelated_backoff(cfg, rng, prev);
    ASSERT_GE(next, cfg.retry_backoff_base);
    ASSERT_LE(next, cfg.retry_backoff_cap);
    ASSERT_LE(next, 3 * std::max(prev, cfg.retry_backoff_base));
    seen_max = std::max(seen_max, next);
    prev = next;
  }
  // The chain actually grows toward the cap (it is not stuck at base).
  EXPECT_GT(seen_max, cfg.retry_backoff_cap / 2);
}

TEST(Client, OpDeadlineBoundsRetryLoop) {
  // A dead store majority makes every attempt a retryable Timeout; the
  // per-op deadline must cut the loop long before max_attempts would.
  WorldOptions opt;
  opt.client.op_deadline = sim::sec(2);
  MusicWorld w(opt);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    w.store.replica(1).set_down(true);
    w.store.replica(2).set_down(true);
    sim::Time t0 = w.sim.now();
    auto st = co_await c.critical_put("k", ref.value(), Value("v"));
    EXPECT_EQ(st.status(), OpStatus::RetryExhausted);
    EXPECT_GE(c.stats().deadline_exceeded, 1u);
    // Bounded by deadline + one in-flight request, nowhere near the
    // 24-attempt budget's worth of timeouts.
    EXPECT_LT(w.sim.now() - t0, sim::sec(10));
    w.store.replica(1).set_down(false);
    w.store.replica(2).set_down(false);
    co_await c.release_lock("k", ref.value());
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

TEST(Client, ConsecutiveFailuresDemoteReplicas) {
  // With the store majority dead every MUSIC replica keeps timing out;
  // after kHealthFailThreshold (3) consecutive failures the client demotes
  // them.  Once the stores heal, quarantine must not wedge the client (it
  // falls back to up replicas when everything healthy is demoted).
  WorldOptions opt;
  opt.client.max_attempts = 12;
  MusicWorld w(opt);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    w.store.replica(1).set_down(true);
    w.store.replica(2).set_down(true);
    auto st = co_await c.critical_put("k", ref.value(), Value("v"));
    EXPECT_EQ(st.status(), OpStatus::RetryExhausted);
    EXPECT_GE(c.stats().demotions, 1u);
    w.store.replica(1).set_down(false);
    w.store.replica(2).set_down(false);
    auto st2 = co_await c.critical_put("k", ref.value(), Value("v2"));
    EXPECT_TRUE(st2.ok());
    co_await c.release_lock("k", ref.value());
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::core
