// cluster::Client routing semantics: ops land on the shard's owning group,
// stale-epoch routes retry transparently with WrongShard, multi-shard
// batches split / run in parallel / stitch back in order, and the whole
// surface stays ECF-clean under the armed oracle.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "cluster/world.h"
#include "obs/metrics.h"

namespace music::cluster {
namespace {

using test::ClusterWorld;
using test::ClusterWorldOptions;

ClusterWorldOptions sharded(int shards, int groups = 0) {
  ClusterWorldOptions opt;
  opt.cluster.shards = shards;
  opt.cluster.groups = groups;
  return opt;
}

/// Background shard move for tests that overlap a move with traffic.
sim::Task<void> do_move(Cluster* c, int shard, int to, Status* out) {
  *out = co_await c->move_shard(shard, to);
}

TEST(ClusterClient, CriticalSectionsLandOnTheOwningGroup) {
  ClusterWorld w(sharded(4));
  auto& c = w.make_client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      Key key = "k" + std::to_string(i);
      auto ref = co_await c.create_lock_ref(key);
      CO_ASSERT_TRUE(ref.ok());
      CO_ASSERT_TRUE((co_await c.acquire_lock_blocking(key, ref.value())).ok());
      CO_ASSERT_TRUE(
          (co_await c.critical_put(key, ref.value(), Value("v"))).ok());
      CO_ASSERT_TRUE((co_await c.release_lock(key, ref.value())).ok());
    }
  });
  ASSERT_TRUE(ok);
  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
  EXPECT_EQ(w.cluster.total_critical_puts(), 8u);

  // Each put was counted by exactly the group owning the key's shard.
  auto map = w.cluster.snapshot();
  for (int i = 0; i < 8; ++i) {
    Key key = "k" + std::to_string(i);
    int g = map->group_of(map->route(key));
    uint64_t puts = 0;
    for (const auto& rep : w.cluster.group(g).replicas) {
      puts += rep->stats().critical_puts;
    }
    EXPECT_GT(puts, 0u) << key << " -> group " << g;
  }
}

TEST(ClusterClient, StaleEpochRouteRetriesWithWrongShard) {
  ClusterWorld w(sharded(4));
  auto& c = w.make_client(0);
  int shard = w.cluster.snapshot()->route("k0");
  int src = w.cluster.snapshot()->group_of(shard);
  int dst = (src + 1) % w.cluster.num_groups();

  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // Seed a value, then move the shard out from under the client's
    // cached snapshot.
    CO_ASSERT_TRUE((co_await c.put("k0", Value("before"))).ok());
    Status moved = co_await w.cluster.move_shard(shard, dst);
    CO_ASSERT_TRUE(moved.ok());
    CO_ASSERT_EQ(w.cluster.snapshot()->group_of(shard), dst);

    // The client's snapshot predates the move: the first dispatch bounces
    // with WrongShard, refreshes, and the op still succeeds — against the
    // destination group, which received the copied row.
    auto got = co_await c.get("k0");
    CO_ASSERT_TRUE(got.ok());
    CO_ASSERT_EQ(got.value().data, "before");
  });
  ASSERT_TRUE(ok);
  EXPECT_GE(c.stats().wrong_shard_retries, 1u);
  EXPECT_GE(c.stats().map_refreshes, 1u);
  EXPECT_GE(w.cluster.stats().wrong_shard_rejects, 1u);
  EXPECT_EQ(w.cluster.stats().moves, 1u);
  EXPECT_GT(w.cluster.stats().moved_rows, 0u);
}

TEST(ClusterClient, LockHeldAcrossAMoveStaysHeld) {
  ClusterWorld w(sharded(4));
  auto& c = w.make_client(0);
  int shard = w.cluster.snapshot()->route("held");
  int src = w.cluster.snapshot()->group_of(shard);
  int dst = (src + 1) % w.cluster.num_groups();

  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("held");
    CO_ASSERT_TRUE(ref.ok());
    CO_ASSERT_TRUE(
        (co_await c.acquire_lock_blocking("held", ref.value())).ok());
    // Move while holding: the !lq row (guard + live queue) is copied, so
    // the holder's lockRef stays valid at the destination.
    Status moved = co_await w.cluster.move_shard(shard, dst);
    CO_ASSERT_TRUE(moved.ok());
    CO_ASSERT_TRUE(
        (co_await c.critical_put("held", ref.value(), Value("x"))).ok());
    CO_ASSERT_TRUE((co_await c.release_lock("held", ref.value())).ok());

    // And the NEXT section on the same key gets a strictly later lockRef
    // from the destination group's copied guard.
    auto ref2 = co_await c.create_lock_ref("held");
    CO_ASSERT_TRUE(ref2.ok());
    CO_ASSERT_TRUE(ref2.value() > ref.value());
    CO_ASSERT_TRUE(
        (co_await c.acquire_lock_blocking("held", ref2.value())).ok());
    CO_ASSERT_TRUE((co_await c.release_lock("held", ref2.value())).ok());
  });
  ASSERT_TRUE(ok);
  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
}

TEST(ClusterClient, MoveOverlappingTrafficKeepsOracleClean) {
  ClusterWorld w(sharded(4));
  auto& c = w.make_client(0);
  int shard = w.cluster.snapshot()->route("hot");
  int src = w.cluster.snapshot()->group_of(shard);
  int dst = (src + 1) % w.cluster.num_groups();
  Status move_result = Status::Err(OpStatus::Timeout);

  bool ok = w.runner.run([&]() -> sim::Task<void> {
    sim::spawn(w.sim, do_move(&w.cluster, shard, dst, &move_result));
    for (int i = 0; i < 20; ++i) {
      auto ref = co_await c.create_lock_ref("hot");
      CO_ASSERT_TRUE(ref.ok());
      CO_ASSERT_TRUE(
          (co_await c.acquire_lock_blocking("hot", ref.value())).ok());
      CO_ASSERT_TRUE((co_await c.critical_put("hot", ref.value(),
                                              Value("v" + std::to_string(i))))
                         .ok());
      CO_ASSERT_TRUE((co_await c.release_lock("hot", ref.value())).ok());
    }
  });
  ASSERT_TRUE(ok);
  EXPECT_TRUE(move_result.ok());
  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
  EXPECT_EQ(w.cluster.snapshot()->group_of(shard), dst);
}

TEST(ClusterClient, SectionFinishesWhileTheLocalMusicReplicaIsDown) {
  // A one-shard cluster is one MUSIC group.  With site 0's MUSIC replica
  // down, a site-0 client's acquire polls must fail over to another replica
  // as every other op does, not wait out the 6 s request timeout there.
  ClusterWorld w(sharded(1));
  w.cluster.set_down_music(0, 0, true, /*amnesia=*/false);
  auto& c = w.make_client(0);
  bool ok = w.runner.run(
      [&]() -> sim::Task<void> {
        auto ref = co_await c.create_lock_ref("down");
        CO_ASSERT_TRUE(ref.ok());
        CO_ASSERT_TRUE(
            (co_await c.acquire_lock_blocking("down", ref.value())).ok());
        CO_ASSERT_TRUE(
            (co_await c.critical_put("down", ref.value(), Value("v"))).ok());
        CO_ASSERT_TRUE((co_await c.release_lock("down", ref.value())).ok());
      },
      sim::sec(2));
  ASSERT_TRUE(ok);
  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
}

/// Every store and MUSIC replica of every group is down exactly when it
/// sits at `site` (or, with `site` = -1, when nothing is down).
void expect_down_only_at(Cluster& c, int site) {
  for (int g = 0; g < c.num_groups(); ++g) {
    Group& grp = c.group(g);
    for (int i = 0; i < grp.store->num_replicas(); ++i) {
      const ds::StoreReplica& rep = grp.store->replica(i);
      EXPECT_EQ(rep.down(), rep.site() == site)
          << "group " << g << " store replica " << i;
    }
    for (const auto& rep : grp.replicas) {
      EXPECT_EQ(rep->down(), rep->site() == site)
          << "group " << g << " MUSIC replica at site " << rep->site();
    }
  }
}

TEST(ClusterFaults, SiteDownTakesEveryStoreReplicaAtTheSite) {
  // Six store replicas per group: two per site, at indices site and site+3.
  ClusterWorldOptions opt = sharded(2);
  opt.cluster.store_nodes_per_group = 6;
  ClusterWorld w(opt);
  w.cluster.set_site_down(1, true, /*amnesia=*/false);
  expect_down_only_at(w.cluster, 1);
  EXPECT_TRUE(w.cluster.group(0).store->replica(4).down());
  w.cluster.set_site_down(1, false, /*amnesia=*/false);
  expect_down_only_at(w.cluster, -1);
}

TEST(ClusterFaults, SiteDownFollowsStaggeredHomeSites) {
  // Eight sites stagger each group's home sites, so site 5 is replica
  // 5 - g of group g (for g in 3..5) and absent from the other groups.
  ClusterWorldOptions opt = sharded(8);
  opt.cluster.sites = 8;
  opt.net.profile = sim::LatencyProfile::uniform(8, 1.0, 0.2);
  ClusterWorld w(opt);
  w.cluster.set_site_down(5, true, /*amnesia=*/false);
  expect_down_only_at(w.cluster, 5);
  for (int g = 3; g <= 5; ++g) {
    auto k = static_cast<size_t>(5 - g);
    EXPECT_TRUE(w.cluster.group(g).replicas[k]->down());
  }
  w.cluster.set_site_down(5, false, /*amnesia=*/false);
  expect_down_only_at(w.cluster, -1);
}

TEST(ClusterBatch, SplitsAcrossShardsAndStitchesInEnqueueOrder) {
  ClusterWorld w(sharded(8));
  auto& c = w.make_client(0);
  Batch b(c);
  std::vector<size_t> put_idx;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // Interleave puts and gets over keys spanning several shards.
    for (int i = 0; i < 12; ++i) {
      Key key = "bk" + std::to_string(i);
      put_idx.push_back(b.put(key, Value("val" + std::to_string(i))));
    }
    CO_ASSERT_EQ(b.pending(), 12u);
    Status st = co_await b.flush();
    CO_ASSERT_TRUE(st.ok());
    CO_ASSERT_EQ(b.pending(), 0u);

    // A fresh batch after flush: reads come back in enqueue order.
    for (int i = 0; i < 12; ++i) b.get("bk" + std::to_string(i));
    CO_ASSERT_EQ(b.pending(), 12u);
    CO_ASSERT_TRUE((co_await b.flush()).ok());
  });
  ASSERT_TRUE(ok);
  ASSERT_EQ(b.results().size(), 12u);
  std::set<int> shards_hit;
  auto map = w.cluster.snapshot();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(b.results()[static_cast<size_t>(i)].status, OpStatus::Ok);
    EXPECT_EQ(b.results()[static_cast<size_t>(i)].value.data,
              "val" + std::to_string(i));
    shards_hit.insert(map->route("bk" + std::to_string(i)));
  }
  EXPECT_GT(shards_hit.size(), 1u) << "keys collapsed onto one shard";
  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
}

TEST(ClusterClient, GetAllKeysMergesAcrossGroups) {
  ClusterWorld w(sharded(4));
  auto& c = w.make_client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      CO_ASSERT_TRUE(
          (co_await c.put("m" + std::to_string(i), Value("x"))).ok());
    }
    auto keys = co_await c.get_all_keys("m");
    CO_ASSERT_TRUE(keys.ok());
    CO_ASSERT_EQ(keys.value().size(), 10u);
    // Sorted and deduplicated.
    for (size_t i = 1; i < keys.value().size(); ++i) {
      CO_ASSERT_TRUE(keys.value()[i - 1] < keys.value()[i]);
    }
  });
  ASSERT_TRUE(ok);
}

TEST(ClusterClient, SharedGroupsServeMultipleShards) {
  // 8 shards on 2 groups: routing still works, and a move between the two
  // groups re-homes exactly one shard's keys.
  ClusterWorld w(sharded(8, 2));
  EXPECT_EQ(w.cluster.num_groups(), 2);
  auto& c = w.make_client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_TRUE(
          (co_await c.put("s" + std::to_string(i), Value("y"))).ok());
    }
    int shard = w.cluster.snapshot()->route("s3");
    int src = w.cluster.snapshot()->group_of(shard);
    CO_ASSERT_TRUE((co_await w.cluster.move_shard(shard, 1 - src)).ok());
    auto got = co_await c.get("s3");
    CO_ASSERT_TRUE(got.ok());
    CO_ASSERT_EQ(got.value().data, "y");
  });
  ASSERT_TRUE(ok);
}

TEST(ClusterMetrics, ExportsPerGroupCounters) {
  ClusterWorld w(sharded(4));
  auto& c = w.make_client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("mk");
    CO_ASSERT_TRUE(ref.ok());
    CO_ASSERT_TRUE((co_await c.acquire_lock_blocking("mk", ref.value())).ok());
    CO_ASSERT_TRUE(
        (co_await c.critical_put("mk", ref.value(), Value("1"))).ok());
    CO_ASSERT_TRUE((co_await c.release_lock("mk", ref.value())).ok());
  });
  ASSERT_TRUE(ok);
  obs::MetricsRegistry reg;
  w.cluster.export_metrics(reg);
  EXPECT_EQ(reg.counter("cluster.shards").value, 4u);
  EXPECT_EQ(reg.counter("cluster.groups").value, 4u);
  EXPECT_EQ(reg.counter("cluster.map_epoch").value, 0u);
  EXPECT_EQ(reg.counter("cluster.critical_puts").value, 1u);
  EXPECT_GT(reg.counter("cluster.admitted").value, 0u);
  uint64_t per_group = 0;
  for (int g = 0; g < 4; ++g) {
    per_group +=
        reg.counter("cluster.g" + std::to_string(g) + ".critical_puts").value;
  }
  EXPECT_EQ(per_group, 1u);
}

}  // namespace
}  // namespace music::cluster
