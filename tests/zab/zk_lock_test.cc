// Zookeeper lock-recipe tests: sequential znodes, mutual exclusion, FIFO
// fairness, and the §II contrast with MUSIC (abandoned znodes wedge the
// lock; no latest-state guarantee comes with it).
#include "zab/zk_lock.h"

#include <gtest/gtest.h>

#include "util/world.h"

namespace music::zab {
namespace {

struct ZkWorld {
  sim::Simulation sim;
  sim::Network net;
  ZabEnsemble ens;
  test::TaskRunner runner;

  explicit ZkWorld(uint64_t seed = 1)
      : sim(seed),
        net(sim,
            [] {
              sim::NetworkConfig c;
              c.profile = sim::LatencyProfile::profile_lus();
              return c;
            }()),
        ens(sim, net, {0, 1, 2}),
        runner(sim) {
    ens.start();
  }
};

TEST(SequentialZnodes, AreUniqueAndOrdered) {
  ZkWorld w;
  std::vector<Key> created;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      auto r = co_await w.ens.server(i % 3).create_sequential("/q/n-", Value("x"));
      CO_ASSERT_TRUE(r.ok());
      created.push_back(r.value());
    }
    auto listed = co_await w.ens.server(0).sync_list("/q/n-");
    CO_ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value().size(), 5u);
  });
  ASSERT_TRUE(ok);
  // Creation order == lexicographic order (zero-padded sequence numbers).
  auto sorted = created;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(created, sorted);
  std::set<Key> uniq(created.begin(), created.end());
  EXPECT_EQ(uniq.size(), created.size());
}

TEST(ZkLock, MutualExclusionAndFifo) {
  ZkWorld w;
  std::vector<Key> grant_order;  // znode of each holder, in grant order
  int inside = 0;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(w.sim, [](ZkWorld& world, int id, std::vector<Key>& ord,
                         int& in, int& d) -> sim::Task<void> {
      ZkLock lock(world.ens.server(id % 3), "/locks/job");
      auto st = co_await lock.acquire();
      EXPECT_TRUE(st.ok());
      EXPECT_EQ(in, 0) << "two holders inside the recipe lock";
      ++in;
      ord.push_back(lock.my_node());
      co_await sim::sleep_for(world.sim, sim::sec(1));
      --in;
      co_await lock.release();
      ++d;
    }(w, i, grant_order, inside, done));
  }
  w.sim.run_until(sim::sec(300));
  ASSERT_EQ(done, 3);
  ASSERT_EQ(grant_order.size(), 3u);
  // FIFO by sequence-node order (clients at different sites race to the
  // leader, so client id order is NOT guaranteed — znode order is).
  EXPECT_TRUE(std::is_sorted(grant_order.begin(), grant_order.end()));
}

TEST(ZkLock, ReacquireAfterRelease) {
  ZkWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    ZkLock lock(w.ens.server(0), "/locks/a");
    for (int i = 0; i < 3; ++i) {
      auto st = co_await lock.acquire();
      CO_ASSERT_TRUE(st.ok());
      EXPECT_TRUE(lock.held());
      co_await lock.release();
      EXPECT_FALSE(lock.held());
    }
  });
  ASSERT_TRUE(ok);
}

TEST(ZkLock, AbandonedHolderWedgesTheLock) {
  // The §II contrast: a crashed recipe holder blocks successors until its
  // (ephemeral, session-bound in real ZK) znode goes away — there is no
  // MUSIC-style forcedRelease + data synchronization built in.
  ZkWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    ZkLock dead(w.ens.server(0), "/locks/w");
    co_await dead.acquire();
    Key orphan = dead.my_node();
    dead.abandon();  // crash: znode stays

    ZkLock next(w.ens.server(1), "/locks/w");
    auto st = co_await next.acquire(sim::ms(20), /*max_polls=*/20);
    EXPECT_EQ(st.status(), OpStatus::Timeout);  // wedged behind the orphan

    // "Session expiry": an external janitor deletes the orphan znode.
    co_await w.ens.server(2).remove(orphan);
    auto st2 = co_await next.acquire();
    EXPECT_TRUE(st2.ok());
    co_await next.release();
  }, sim::sec(300));
  ASSERT_TRUE(ok);
}

TEST(ZkLock, RecipePlusDataWritesCostsMoreRoundsThanMusic) {
  // A "critical section" built from the recipe (lock + N SC writes +
  // unlock) pays consensus for every data write; MUSIC pays quorum.  This
  // is Fig. 6's comparison restated at the recipe level.
  ZkWorld w;
  sim::Duration zk_section = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    ZkClient data(w.ens, 0);
    ZkLock lock(w.ens.server(0), "/locks/cs");
    sim::Time t0 = w.sim.now();
    co_await lock.acquire();
    for (int i = 0; i < 5; ++i) {
      co_await data.set_data("/d", Value("v"));
    }
    co_await lock.release();
    zk_section = w.sim.now() - t0;
  });
  ASSERT_TRUE(ok);
  // Sanity band: acquire (create seq + sync-list) + 5 commits + delete,
  // each a Zab round trip through the remote leader.
  EXPECT_GT(zk_section, sim::ms(400));
}

}  // namespace
}  // namespace music::zab
