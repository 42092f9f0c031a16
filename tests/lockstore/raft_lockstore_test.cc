// RaftLockStore tests: the §X-A1 consensus alternative behind the same
// LockBackend interface, including MUSIC running unchanged over it.
#include "lockstore/raft_lockstore.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/client.h"
#include "core/session.h"
#include "util/world.h"

namespace music::ls {
namespace {

/// A MUSIC world whose lock store is Raft-backed (the data store stays on
/// the quorum KV, exactly as the paper's architecture separates the two).
struct RaftLockWorld {
  sim::Simulation sim;
  sim::Network net;
  ds::StoreCluster store;
  raftkv::RaftCluster raft;
  RaftLockStore locks;
  std::vector<std::unique_ptr<core::MusicReplica>> replicas;
  std::vector<std::unique_ptr<core::MusicClient>> clients;
  test::TaskRunner runner;

  explicit RaftLockWorld(uint64_t seed = 1)
      : sim(seed),
        net(sim,
            [] {
              sim::NetworkConfig c;
              c.profile = sim::LatencyProfile::profile_lus();
              return c;
            }()),
        store(sim, net, ds::StoreConfig{}, {0, 1, 2}),
        raft(sim, net, {0, 1, 2}),
        locks(raft),
        runner(sim) {
    raft.start();
    raft.wait_for_leader();
    for (int site = 0; site < 3; ++site) {
      replicas.push_back(std::make_unique<core::MusicReplica>(
          store, locks, core::MusicConfig{}, site));
    }
    for (int site = 0; site < 3; ++site) {
      std::vector<core::MusicReplica*> prefs{replicas[static_cast<size_t>(site)].get()};
      for (int i = 0; i < 3; ++i) {
        if (i != site) prefs.push_back(replicas[static_cast<size_t>(i)].get());
      }
      clients.push_back(std::make_unique<core::MusicClient>(
          sim, net, prefs, core::ClientConfig{}, site));
    }
  }
};

TEST(RaftLockStore, GeneratesUniqueIncreasingRefs) {
  RaftLockWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (LockRef expect = 1; expect <= 4; ++expect) {
      auto r = co_await w.locks.backend_generate(static_cast<int>(expect) % 3, "k");
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), expect);
    }
  });
  ASSERT_TRUE(ok);
}

TEST(RaftLockStore, PeekIsLocalAndEventuallyConsistent) {
  RaftLockWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.locks.backend_generate(0, "k");
    co_await sim::sleep_for(w.sim, sim::sec(1));  // heartbeats carry commits
    sim::Time t0 = w.sim.now();
    auto p = co_await w.locks.backend_peek(1, "k");
    sim::Duration cost = w.sim.now() - t0;
    CO_ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().head, 1);
    EXPECT_LT(cost, sim::ms(5));  // local: no WAN round trip
  });
  ASSERT_TRUE(ok);
}

TEST(RaftLockStore, DequeueAdvancesTheQueue) {
  RaftLockWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.locks.backend_generate(0, "k");
    co_await w.locks.backend_generate(1, "k");
    co_await w.locks.backend_dequeue(0, "k", 1);
    co_await sim::sleep_for(w.sim, sim::sec(1));
    auto p = co_await w.locks.backend_peek(2, "k");
    CO_ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().head, 2);
  });
  ASSERT_TRUE(ok);
}

TEST(RaftLockStore, GenerateIsCheaperThanLwt) {
  // §X-A1: LWTs need 4 RTTs; a Raft commit needs ~1 (plus reaching the
  // leader).  The Raft-backed createLockRef should be well under half the
  // LWT-backed one.
  RaftLockWorld w;
  sim::Duration raft_cost = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.locks.backend_generate(0, "warm");  // leader discovery
    sim::Time t0 = w.sim.now();
    co_await w.locks.backend_generate(0, "k");
    raft_cost = w.sim.now() - t0;
  });
  ASSERT_TRUE(ok);

  test::StoreWorld lwt_world;
  sim::Duration lwt_cost = 0;
  bool ok2 = lwt_world.runner.run([&]() -> sim::Task<void> {
    sim::Time t0 = lwt_world.sim.now();
    co_await lwt_world.locks.generate_and_enqueue(
        lwt_world.store.replica_at_site(0), "k");
    lwt_cost = lwt_world.sim.now() - t0;
  });
  ASSERT_TRUE(ok2);
  EXPECT_LT(raft_cost * 2, lwt_cost)
      << "raft=" << raft_cost << "us lwt=" << lwt_cost << "us";
}

TEST(RaftLockStore, MusicRunsUnchangedOverTheRaftBackend) {
  RaftLockWorld w;
  auto& c = *w.clients[0];
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int round = 0; round < 2; ++round) {
      auto body = [&](LockRef ref) -> sim::Task<Status> {
        auto g = co_await c.critical_get("cnt", ref);
        int v = g.ok() ? std::stoi(g.value().data) : 0;
        co_return co_await c.critical_put("cnt", ref, Value(std::to_string(v + 1)));
      };
      auto st = co_await c.with_lock("cnt", body);
      CO_ASSERT_TRUE(st.ok());
    }
    auto final_v = co_await w.replicas[1]->get_quorum_unlocked("cnt");
    CO_ASSERT_TRUE(final_v.ok());
    EXPECT_EQ(final_v.value().data, "2");
  }, sim::sec(300));
  ASSERT_TRUE(ok);
}

TEST(RaftLockStore, ContendingClientsSerializeFairly) {
  RaftLockWorld w;
  std::vector<LockRef> grants;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(w.sim, [](RaftLockWorld& world, int ci, std::vector<LockRef>& g,
                         int& d) -> sim::Task<void> {
      auto& c = *world.clients[static_cast<size_t>(ci)];
      auto ref = co_await c.create_lock_ref("k");
      if (ref.ok()) {
        auto acq = co_await c.acquire_lock_blocking("k", ref.value());
        if (acq.ok()) {
          g.push_back(ref.value());
          co_await c.critical_put("k", ref.value(), Value("v"));
          co_await c.release_lock("k", ref.value());
        }
      }
      ++d;
    }(w, i, grants, done));
  }
  w.sim.run_until(sim::sec(300));
  ASSERT_EQ(done, 3);
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_TRUE(std::is_sorted(grants.begin(), grants.end()));
}

TEST(RaftLockStore, SurvivesRaftLeaderFailover) {
  RaftLockWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r1 = co_await w.locks.backend_generate(0, "k");
    CO_ASSERT_TRUE(r1.ok());
    w.raft.leader()->set_down(true);
    auto r2 = co_await w.locks.backend_generate(1, "k");
    CO_ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2.value(), r1.value() + 1);
  }, sim::sec(300));
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::ls
