// Raft consensus tests: election, log replication, commit safety,
// partitions, failover.
#include "raftkv/raft.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/world.h"

namespace music::raftkv {
namespace {

struct RaftWorld {
  sim::Simulation sim;
  sim::Network net;
  RaftCluster cluster;
  test::TaskRunner runner;

  explicit RaftWorld(uint64_t seed = 1)
      : sim(seed),
        net(sim, [] {
          sim::NetworkConfig c;
          c.profile = sim::LatencyProfile::profile_lus();
          return c;
        }()),
        cluster(sim, net, {0, 1, 2}),
        runner(sim) {
    cluster.start();
  }
};

TEST(Raft, ElectsExactlyOneLeader) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  int leaders = 0;
  for (int i = 0; i < 3; ++i) {
    if (w.cluster.node(i).role() == Role::Leader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Raft, LeadershipIsStableWithoutFailures) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  int64_t term = l->term();
  w.sim.run_for(sim::sec(60));
  EXPECT_EQ(w.cluster.leader(), l);
  EXPECT_EQ(l->term(), term);
}

TEST(Raft, ProposalsCommitAndApplyEverywhere) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      std::vector<std::pair<Key, Value>> writes;
      // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
      // to_string rvalue concats inside coroutine frames.
      std::string k = "k";
      k += std::to_string(i);
      writes.emplace_back(k, Value("v"));
      auto out = co_await l->propose(Command(std::move(writes)));
      CO_ASSERT_EQ(out.status, OpStatus::Ok);
      EXPECT_TRUE(out.applied);
    }
    co_await sim::sleep_for(w.sim, sim::sec(2));  // heartbeats carry commits
  });
  ASSERT_TRUE(ok);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.cluster.node(i).state().size(), 5u) << "node " << i;
  }
}

TEST(Raft, NonLeaderRejectsProposals) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  RaftNode& follower = w.cluster.node((l->id() + 1) % 3);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back("k", Value("v"));
    auto out = co_await follower.propose(Command(std::move(writes)));
    EXPECT_EQ(out.status, OpStatus::Conflict);
    EXPECT_EQ(follower.leader_hint(), l->id());
  });
  ASSERT_TRUE(ok);
}

TEST(Raft, CasCommandsApplyAtomically) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    std::vector<std::pair<Key, Value>> w1;
    w1.emplace_back("lock", Value("me"));
    auto r1 = co_await l->propose(Command(std::move(w1), "lock", Value("")));
    CO_ASSERT_EQ(r1.status, OpStatus::Ok);
    EXPECT_TRUE(r1.applied);  // lock was free
    std::vector<std::pair<Key, Value>> w2;
    w2.emplace_back("lock", Value("other"));
    auto r2 = co_await l->propose(Command(std::move(w2), "lock", Value("")));
    CO_ASSERT_EQ(r2.status, OpStatus::Ok);
    EXPECT_FALSE(r2.applied);  // condition failed: still "me"
    auto v = co_await l->read("lock");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "me");
  });
  ASSERT_TRUE(ok);
}

TEST(Raft, FailoverElectsNewLeaderWithCommittedLog) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back("durable", Value("yes"));
    auto out = co_await l->propose(Command(std::move(writes)));
    CO_ASSERT_EQ(out.status, OpStatus::Ok);
    co_await sim::sleep_for(w.sim, sim::sec(1));
  });
  ASSERT_TRUE(ok);
  int old_id = l->id();
  w.cluster.node(old_id).set_down(true);
  RaftNode* nl = w.cluster.wait_for_leader(sim::sec(60));
  ASSERT_NE(nl, nullptr);
  EXPECT_NE(nl->id(), old_id);
  // Committed entries survive the failover (leader-completeness).
  auto it = nl->state().find("durable");
  ASSERT_NE(it, nl->state().end());
  EXPECT_EQ(it->second.data, "yes");
}

TEST(Raft, MinorityPartitionCannotCommit) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  // Partition the leader's site away from the other two.
  w.net.partition_sites({l->site()}, {(l->site() + 1) % 3, (l->site() + 2) % 3});
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back("k", Value("ghost"));
    auto out = co_await l->propose(Command(std::move(writes)));
    EXPECT_NE(out.status, OpStatus::Ok);  // no quorum on the minority side
  }, sim::sec(60));
  ASSERT_TRUE(ok);
  // Majority side elects a fresh leader that CAN commit.
  RaftNode* nl = nullptr;
  sim::Time deadline = w.sim.now() + sim::sec(60);
  while (w.sim.now() < deadline) {
    w.sim.run_for(sim::sec(1));
    for (int i = 0; i < 3; ++i) {
      RaftNode& n = w.cluster.node(i);
      if (n.role() == Role::Leader && n.site() != l->site()) nl = &n;
    }
    if (nl) break;
  }
  ASSERT_NE(nl, nullptr);
  bool ok2 = w.runner.run([&]() -> sim::Task<void> {
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back("k", Value("real"));
    auto out = co_await nl->propose(Command(std::move(writes)));
    EXPECT_EQ(out.status, OpStatus::Ok);
  }, sim::sec(60));
  ASSERT_TRUE(ok2);
  // Heal: the old leader steps down and converges.
  w.net.heal_all_partitions();
  w.sim.run_for(sim::sec(20));
  EXPECT_NE(w.cluster.node(l->id()).role(), Role::Leader);
  auto it = w.cluster.node(l->id()).state().find("k");
  ASSERT_NE(it, w.cluster.node(l->id()).state().end());
  EXPECT_EQ(it->second.data, "real");  // ghost never committed
}

TEST(Raft, LogsConvergeAfterFollowerOutage) {
  RaftWorld w;
  RaftNode* l = w.cluster.wait_for_leader();
  ASSERT_NE(l, nullptr);
  RaftNode& lagger = w.cluster.node((l->id() + 1) % 3);
  lagger.set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      std::vector<std::pair<Key, Value>> writes;
      // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
      // to_string rvalue concats inside coroutine frames.
      std::string k = "k";
      k += std::to_string(i);
      writes.emplace_back(k, Value("v"));
      auto out = co_await l->propose(Command(std::move(writes)));
      CO_ASSERT_EQ(out.status, OpStatus::Ok);
    }
  });
  ASSERT_TRUE(ok);
  lagger.set_down(false);
  w.sim.run_for(sim::sec(10));  // leader repairs the follower's log
  EXPECT_EQ(lagger.state().size(), 6u);
  EXPECT_EQ(lagger.commit_index(), l->commit_index());
}

}  // namespace
}  // namespace music::raftkv
