// Transactional-KV (CockroachDB substitute) tests: the §X-B3 critical
// section recipe, leader tracking, contention, failover.
#include "raftkv/txkv.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/world.h"

namespace music::raftkv {
namespace {

struct TxWorld {
  sim::Simulation sim;
  sim::Network net;
  RaftCluster cluster;
  test::TaskRunner runner;

  explicit TxWorld(uint64_t seed = 1)
      : sim(seed),
        net(sim, [] {
          sim::NetworkConfig c;
          c.profile = sim::LatencyProfile::profile_lus();
          return c;
        }()),
        cluster(sim, net, {0, 1, 2}),
        runner(sim) {
    cluster.start();
    cluster.wait_for_leader();
  }
};

TEST(TxKv, WriteAndSelect) {
  TxWorld w;
  TxClient tx(w.cluster, 0, "c0");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await tx.cs_update("k", Value("v"));
    CO_ASSERT_TRUE(st.ok());
    auto v = co_await tx.select("k");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "v");
  });
  ASSERT_TRUE(ok);
}

TEST(TxKv, CsEnterIsExclusive) {
  TxWorld w;
  TxClient t1(w.cluster, 0, "c1");
  TxClient t2(w.cluster, 1, "c2");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto e1 = co_await t1.cs_enter("L");
    CO_ASSERT_TRUE(e1.ok());
    // t2 cannot enter while t1 holds the lock row.
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back("L", Value("c2"));
    auto attempt = co_await t2.txn_cas(std::move(writes), "L", Value(""));
    CO_ASSERT_EQ(attempt.status, OpStatus::Ok);
    EXPECT_FALSE(attempt.applied);
    auto x1 = co_await t1.cs_exit("L");
    EXPECT_TRUE(x1.ok());
    auto e2 = co_await t2.cs_enter("L");
    EXPECT_TRUE(e2.ok());
    co_await t2.cs_exit("L");
  });
  ASSERT_TRUE(ok);
}

TEST(TxKv, CsExitByNonHolderFails) {
  TxWorld w;
  TxClient t1(w.cluster, 0, "c1");
  TxClient t2(w.cluster, 1, "c2");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await t1.cs_enter("L");
    auto st = co_await t2.cs_exit("L");
    EXPECT_EQ(st.status(), OpStatus::NotLockHolder);
    co_await t1.cs_exit("L");
  });
  ASSERT_TRUE(ok);
}

TEST(TxKv, CriticalSectionRecipeLeavesLockFree) {
  TxWorld w;
  TxClient tx(w.cluster, 0, "c0");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await tx.critical_section("L", "data", Value("x", 10), 5);
    CO_ASSERT_TRUE(st.ok());
    auto lock = co_await tx.select("L");
    CO_ASSERT_TRUE(lock.ok());
    EXPECT_EQ(lock.value().data, "");  // unlocked
    auto v = co_await tx.select("data");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "x");
  });
  ASSERT_TRUE(ok);
}

TEST(TxKv, CostIsTwoConsensusRoundsPerUpdate) {
  // §X-B4: each state update costs 2 consensus operations (entry txn +
  // update/exit txn).  With the client at the leader's site, one consensus
  // round ~ nearest-follower RTT; a batch-1 section should cost ~2 rounds.
  TxWorld w;
  RaftNode* l = w.cluster.leader();
  ASSERT_NE(l, nullptr);
  TxClient tx(w.cluster, l->site(), "c0");
  sim::Time batch1 = 0, batch4 = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await tx.cs_update("warm", Value("w"));  // leader discovery etc.
    sim::Time t0 = w.sim.now();
    co_await tx.critical_section("L", "d", Value("v", 10), 1);
    batch1 = w.sim.now() - t0;
    t0 = w.sim.now();
    co_await tx.critical_section("L", "d", Value("v", 10), 4);
    batch4 = w.sim.now() - t0;
  });
  ASSERT_TRUE(ok);
  // Linear in the batch size: no amortization, unlike MUSIC (§X-B4).
  EXPECT_GT(batch4, 3 * batch1);
  EXPECT_LT(batch4, 6 * batch1);
}

class TxContention : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxContention, ContendingCriticalSectionsSerialize) {
  TxWorld w(GetParam());
  TxClient t1(w.cluster, 0, "c1");
  TxClient t2(w.cluster, 1, "c2");
  int done = 0;
  for (TxClient* t : {&t1, &t2}) {
    sim::spawn(w.sim, [](TxClient& tx, int& d) -> sim::Task<void> {
      auto st = co_await tx.critical_section("L", "d", Value("z", 10), 3);
      EXPECT_TRUE(st.ok());
      ++d;
    }(*t, done));
  }
  w.sim.run_until(sim::sec(300));
  EXPECT_EQ(done, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxContention, ::testing::Values(5, 23, 71));

TEST(TxKv, SurvivesLeaderFailover) {
  TxWorld w;
  TxClient tx(w.cluster, 0, "c0");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await tx.cs_update("a", Value("1"));
    w.cluster.leader()->set_down(true);
    auto st = co_await tx.cs_update("b", Value("2"));
    CO_ASSERT_TRUE(st.ok());
    auto v = co_await tx.select("b");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "2");
  }, sim::sec(300));
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::raftkv
