// Zab (Zookeeper substitute) tests: ordered commit, sequential consistency,
// local reads, fsync costs, leader failover.
#include "zab/zab.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/world.h"

namespace music::zab {
namespace {

struct ZabWorld {
  sim::Simulation sim;
  sim::Network net;
  ZabEnsemble ens;
  test::TaskRunner runner;

  explicit ZabWorld(uint64_t seed = 1)
      : sim(seed),
        net(sim, [] {
          sim::NetworkConfig c;
          c.profile = sim::LatencyProfile::profile_lus();
          return c;
        }()),
        ens(sim, net, {0, 1, 2}),
        runner(sim) {
    ens.start();
  }
};

TEST(Zab, InitialLeaderIsStable) {
  ZabWorld w;
  w.sim.run_for(sim::sec(10));
  ZabServer* l = w.ens.leader();
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->id(), 2);  // highest id
  w.sim.run_for(sim::sec(30));
  EXPECT_EQ(w.ens.leader(), l);  // no churn without failures
}

TEST(Zab, WriteCommitsAndReadsBack) {
  ZabWorld w;
  ZkClient c(w.ens, 0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await c.set_data("/a", Value("1"));
    CO_ASSERT_TRUE(st.ok());
    auto g = co_await c.get_data("/a");
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().data, "1");
  });
  ASSERT_TRUE(ok);
}

TEST(Zab, WritesAreTotallyOrderedAcrossServers) {
  ZabWorld w;
  ZkClient c0(w.ens, 0);
  ZkClient c2(w.ens, 2);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      auto& c = (i % 2 == 0) ? c0 : c2;
      auto st = co_await c.set_data("/seq", Value(std::to_string(i)));
      CO_ASSERT_TRUE(st.ok());
    }
    co_await sim::sleep_for(w.sim, sim::sec(2));  // commits propagate
  });
  ASSERT_TRUE(ok);
  // Every server applied the same number of txns and converged on the
  // final value.
  for (int i = 0; i < 3; ++i) {
    bool ok2 = w.runner.run([&]() -> sim::Task<void> {
      auto g = co_await w.ens.server(i).get_data("/seq");
      CO_ASSERT_TRUE(g.ok());
      EXPECT_EQ(g.value().data, "9") << "server " << i;
    });
    ASSERT_TRUE(ok2);
  }
}

TEST(Zab, ReadYourWritesAtTheConnectedServer) {
  ZabWorld w;
  ZkClient c(w.ens, 0);  // follower site
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await c.set_data("/x", Value("v" + std::to_string(i)));
      auto g = co_await c.get_data("/x");
      CO_ASSERT_TRUE(g.ok());
      EXPECT_EQ(g.value().data, "v" + std::to_string(i));
    }
  });
  ASSERT_TRUE(ok);
}

TEST(Zab, WriteLatencyIncludesForwardingAndQuorum) {
  // From site 0 (follower), a write forwards to the leader at site 2
  // (Ohio-Oregon 72.14ms RTT one-way 36ms), leader proposes to followers
  // and commits after the nearest follower acks — total ~1.5-2.5 RTTs plus
  // fsyncs.
  ZabWorld w;
  ZkClient c(w.ens, 0);
  sim::Time cost = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await c.set_data("/warm", Value("w"));
    sim::Time t0 = w.sim.now();
    co_await c.set_data("/x", Value("v"));
    cost = w.sim.now() - t0;
  });
  ASSERT_TRUE(ok);
  EXPECT_GT(cost, sim::ms(60));
  EXPECT_LT(cost, sim::ms(220));
}

TEST(Zab, DeleteRemovesZnode) {
  ZabWorld w;
  ZkClient c(w.ens, 1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await c.set_data("/d", Value("x"));
    auto st = co_await w.ens.server(1).remove("/d");
    EXPECT_TRUE(st.ok());
    co_await sim::sleep_for(w.sim, sim::sec(1));
    auto g = co_await c.get_data("/d");
    EXPECT_EQ(g.status(), OpStatus::NotFound);
  });
  ASSERT_TRUE(ok);
}

TEST(Zab, FailoverElectsNewLeaderAndResumesWrites) {
  ZabWorld w;
  ZkClient c(w.ens, 0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await c.set_data("/a", Value("before"));
    w.ens.server(2).set_down(true);  // kill the leader
    auto st = co_await c.set_data("/b", Value("after"));
    CO_ASSERT_TRUE(st.ok());
    auto g = co_await c.get_data("/b");
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().data, "after");
  }, sim::sec(120));
  ASSERT_TRUE(ok);
  ASSERT_NE(w.ens.leader(), nullptr);
  EXPECT_EQ(w.ens.leader()->id(), 1);  // highest surviving id
}

TEST(Zab, SyncGetReadsFreshStateAcrossServers) {
  ZabWorld w;
  ZkClient c2(w.ens, 2);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await c2.set_data("/y", Value("fresh"));
    // A plain local read at a lagging follower may be stale, but
    // sync+read is current.
    auto g = co_await w.ens.server(0).sync_get_data("/y");
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().data, "fresh");
  });
  ASSERT_TRUE(ok);
}

TEST(Zab, AllServersApplyTheSameTotalOrder) {
  // The sequential-consistency core: every server applies the identical
  // zxid sequence, regardless of which server each write entered through.
  ZabWorld w(21);
  for (int i = 0; i < 3; ++i) w.ens.server(i).record_applied(true);
  int done = 0;
  for (int c = 0; c < 3; ++c) {
    sim::spawn(w.sim, [](ZabWorld& world, int site, int& d) -> sim::Task<void> {
      ZkClient client(world.ens, site);
      for (int i = 0; i < 8; ++i) {
        auto st = co_await client.set_data("/k" + std::to_string(i % 3),
                                           Value("s" + std::to_string(site)));
        EXPECT_TRUE(st.ok());
      }
      ++d;
    }(w, c, done));
  }
  w.sim.run_until(sim::sec(120));
  ASSERT_EQ(done, 3);
  w.sim.run_for(sim::sec(3));  // let trailing commits propagate
  const auto& ref_order = w.ens.server(0).applied_zxids();
  EXPECT_EQ(ref_order.size(), 24u);
  // zxids strictly increase (total order, no duplicates).
  for (size_t i = 1; i < ref_order.size(); ++i) {
    EXPECT_LT(ref_order[i - 1], ref_order[i]);
  }
  for (int s = 1; s < 3; ++s) {
    EXPECT_EQ(w.ens.server(s).applied_zxids(), ref_order) << "server " << s;
  }
}

TEST(Zab, EveryCommitHitsTheDisk) {
  ZabWorld w;
  ZkClient c(w.ens, 2);  // at the leader's site
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      co_await c.set_data("/k", Value("v"));
    }
    co_await sim::sleep_for(w.sim, sim::sec(1));
  });
  ASSERT_TRUE(ok);
  // Leader + each follower fsync once per proposal: applied counts match.
  EXPECT_GE(w.ens.server(2).applied(), 8u);
}

}  // namespace
}  // namespace music::zab
