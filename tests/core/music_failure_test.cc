// MUSIC failure semantics (§III, §IV-B): forced release, synchronization,
// false failure detection, orphan lockRefs, the failure detector, replica
// failover, the T bound.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/session.h"
#include "util/world.h"
#include "verify/oracle.h"

namespace music::core {
namespace {

using test::MusicWorld;
using test::WorldOptions;

TEST(ForcedRelease, NextHolderSeesACommittedTrueValue) {
  MusicWorld w;
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // c0 acquires and writes, then "dies" without releasing.
    auto ref = co_await c0.create_lock_ref("j");
    co_await c0.acquire_lock_blocking("j", ref.value());
    auto put = co_await c0.critical_put("j", ref.value(), Value("important"));
    CO_ASSERT_TRUE(put.ok());
    // Another replica preempts the lock.
    auto fr = co_await c1.forced_release("j", ref.value());
    CO_ASSERT_TRUE(fr.ok());
    // c1's fresh critical section reads the true value.
    auto body = [&](LockRef r2) -> sim::Task<Status> {
      auto g = co_await c1.critical_get("j", r2);
      EXPECT_TRUE(g.ok());
      if (g.ok()) {
        EXPECT_EQ(g.value().data, "important");
      }
      co_return Status::Ok();
    };
    auto st = co_await c1.with_lock("j", body);
    EXPECT_TRUE(st.ok());
  });
  ASSERT_TRUE(ok);
  uint64_t syncs = 0;
  for (int i = 0; i < 3; ++i) syncs += w.replica(i).stats().synchronizations;
  EXPECT_GE(syncs, 1u);  // the next acquire synchronized the data store
}

TEST(ForcedRelease, PreemptedClientsLaterWritesCannotChangeTheTruth) {
  MusicWorld w;
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c0.create_lock_ref("j");
    co_await c0.acquire_lock_blocking("j", ref.value());
    co_await c0.critical_put("j", ref.value(), Value("v1"));
    co_await c1.forced_release("j", ref.value());
    // A new holder enters and writes.
    auto body = [&](LockRef r2) -> sim::Task<Status> {
      co_return co_await c1.critical_put("j", r2, Value("v2"));
    };
    co_await c1.with_lock("j", body);
    // The preempted client keeps trying (false failure detection): either
    // it is told it lost the lock, or its write is a timestamp loser.
    auto late = co_await c0.critical_put("j", ref.value(), Value("zombie"));
    (void)late;
    auto v = co_await w.replica(2).get_quorum_unlocked("j");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "v2");
    // And once its local lock store catches up, it is refused: either
    // explicitly (a later head is visible: youAreNoLongerLockHolder) or as
    // not-first (the queue emptied after the new holder released — a local
    // peek cannot tell the two apart, and both refuse the write).
    co_await sim::sleep_for(w.sim, sim::sec(2));
    auto later = co_await c0.critical_put("j", ref.value(), Value("zombie2"));
    EXPECT_TRUE(later.status() == OpStatus::NotLockHolder ||
                later.status() == OpStatus::NotYetHolder);
    auto v2 = co_await w.replica(2).get_quorum_unlocked("j");
    CO_ASSERT_TRUE(v2.ok());
    EXPECT_EQ(v2.value().data, "v2");
  });
  ASSERT_TRUE(ok);
}

TEST(ForcedRelease, SynchFlagRaceResolvedByDelta) {
  // forcedRelease(r) and the next holder's flag reset race via timestamps:
  // with the production delta=1us the forced set (at lockRef r) always
  // loses to the NEXT holder's reset (at lockRef r+1) and always beats
  // holder r's own writes.  Verified at the store level.
  MusicWorld w;
  auto& c0 = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c0.create_lock_ref("k");
    co_await c0.acquire_lock_blocking("k", ref.value());
    co_await c0.critical_put("k", ref.value(), Value("x"));
    co_await c0.forced_release("k", ref.value());
    // synchFlag must now read true at quorum.
    auto sf = co_await w.replica(0).get_quorum_unlocked("!internal");
    (void)sf;  // (flag key is internal; check through a new acquire below)
    // The next holder synchronizes and resets the flag.
    auto body = [&](LockRef r2) -> sim::Task<Status> {
      co_return co_await c0.critical_put("k", r2, Value("y"));
    };
    co_await c0.with_lock("k", body);
    // After the reset, a further acquire does NOT synchronize again.
    uint64_t syncs_before = 0;
    for (int i = 0; i < 3; ++i) {
      syncs_before += w.replicas[static_cast<size_t>(i)]->stats().synchronizations;
    }
    auto body2 = [&](LockRef r3) -> sim::Task<Status> {
      co_return co_await c0.critical_put("k", r3, Value("z"));
    };
    co_await c0.with_lock("k", body2);
    uint64_t syncs_after = 0;
    for (int i = 0; i < 3; ++i) {
      syncs_after += w.replicas[static_cast<size_t>(i)]->stats().synchronizations;
    }
    EXPECT_EQ(syncs_before, syncs_after);  // flag was reset; no extra sync
  });
  ASSERT_TRUE(ok);
}

TEST(ForcedRelease, OfAlreadyReleasedLockOnlyCausesSpuriousSync) {
  // §IV-B: "the synchFlag might be erroneously true, but the only
  // consequence ... is that the next acquireLock will synchronize the data
  // store when it is not necessary."
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    co_await c.critical_put("k", ref.value(), Value("v"));
    co_await c.release_lock("k", ref.value());
    // Stale forcedRelease on the long-gone ref.
    co_await c.forced_release("k", ref.value());
    // Correctness is unaffected.
    auto body = [&](LockRef r2) -> sim::Task<Status> {
      auto g = co_await c.critical_get("k", r2);
      EXPECT_TRUE(g.ok());
      if (g.ok()) {
        EXPECT_EQ(g.value().data, "v");
      }
      co_return Status::Ok();
    };
    auto st = co_await c.with_lock("k", body);
    EXPECT_TRUE(st.ok());
  });
  ASSERT_TRUE(ok);
}

TEST(FailureDetector, PreemptsDeadLockholder) {
  // Granted holders are preempted via the T bound (the startTime column);
  // use a small T so the dead holder is detected quickly.
  WorldOptions opt;
  opt.music.t_max_cs = sim::sec(6);
  opt.music.holder_timeout = sim::sec(8);
  opt.music.fd_interval = sim::sec(1);
  MusicWorld w(opt);
  w.replica(1).start_failure_detector();
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c0.create_lock_ref("job");
    co_await c0.acquire_lock_blocking("job", ref.value());
    co_await c0.critical_put("job", ref.value(), Value("half-done"));
    // Make the detector's replica aware of the key, then let c0 "die".
    w.replica(1).watch_key("job");
    // Another client eventually gets the lock (after FD preemption) and
    // resumes from the latest state.
    auto body = [&](LockRef r2) -> sim::Task<Status> {
      auto g = co_await c1.critical_get("job", r2);
      EXPECT_TRUE(g.ok());
      if (g.ok()) {
        EXPECT_EQ(g.value().data, "half-done");
      }
      co_return co_await c1.critical_put("job", r2, Value("done"));
    };
    auto st = co_await c1.with_lock("job", body);
    EXPECT_TRUE(st.ok());
  }, sim::sec(120));
  ASSERT_TRUE(ok);
  EXPECT_GE(w.replica(1).stats().forced_releases, 1u);
}

TEST(FailureDetector, CollectsOrphanLockRefs) {
  // §IV-B: a client createLockRefs then dies before acquiring; the orphan
  // ref reaching the head is removed by forcedRelease.
  WorldOptions opt;
  opt.music.holder_timeout = sim::sec(5);
  opt.music.fd_interval = sim::sec(1);
  MusicWorld w(opt);
  w.replica(0).start_failure_detector();
  auto& c0 = w.client(0);
  auto& c1 = w.client(1);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto orphan = co_await c0.create_lock_ref("k");
    CO_ASSERT_TRUE(orphan.ok());
    // c0 dies.  c1 wants the lock; it queues behind the orphan and must
    // eventually be granted.
    auto body = [&](LockRef r) -> sim::Task<Status> {
      co_return co_await c1.critical_put("k", r, Value("v"));
    };
    auto st = co_await c1.with_lock("k", body);
    EXPECT_TRUE(st.ok());
  }, sim::sec(120));
  ASSERT_TRUE(ok);
}

TEST(TBound, ExpiredCriticalSectionRejectsOps) {
  WorldOptions opt;
  opt.music.t_max_cs = sim::sec(5);
  MusicWorld w(opt);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    auto p1 = co_await c.critical_put("k", ref.value(), Value("in-time"));
    EXPECT_TRUE(p1.ok());
    co_await sim::sleep_for(w.sim, sim::sec(6));  // blow through T
    auto p2 = co_await c.critical_put("k", ref.value(), Value("late"));
    EXPECT_EQ(p2.status(), OpStatus::CsExpired);
    auto g = co_await c.critical_get("k", ref.value());
    EXPECT_EQ(g.status(), OpStatus::CsExpired);
  });
  ASSERT_TRUE(ok);
}

TEST(Failover, ClientRetriesAtAnotherMusicReplica) {
  MusicWorld w;
  auto& c = w.client(0);  // prefers replica 0
  w.replica(0).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      co_return co_await c.critical_put("k", ref, Value("v"));
    };
    auto st = co_await c.with_lock("k", body);
    EXPECT_TRUE(st.ok());
  }, sim::sec(300));
  ASSERT_TRUE(ok);
  EXPECT_EQ(w.replica(0).stats().critical_puts, 0u);
}

TEST(Failover, SiteWithNoLiveStoreReplicaNacksAndTheClientMovesOn) {
  MusicWorld w;
  auto& c = w.client(0);  // prefers replica 0, at site 0
  w.store.replica(0).set_down(true);  // the only store replica at site 0
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // Replica 0 cannot coordinate: it answers Nack at once rather than
    // borrowing another site's store replica in-process.
    sim::Time t0 = w.sim.now();
    Response r = co_await execute(
        w.replica(0), Request(Request::Op::GetEventual, "k", 0, Value()));
    EXPECT_EQ(r.status, OpStatus::Nack);
    auto peek = co_await w.locks.backend_peek(0, "k");
    EXPECT_EQ(peek.status(), OpStatus::Nack);
    EXPECT_EQ(w.sim.now(), t0);

    // The client retries the Nack at another MUSIC replica (§III).
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      co_return co_await c.critical_put("k", ref, Value("v"));
    };
    EXPECT_TRUE((co_await c.with_lock("k", body)).ok());
  }, sim::sec(300));
  ASSERT_TRUE(ok);
  EXPECT_EQ(w.replica(0).stats().critical_puts, 0u);
}

TEST(Failover, StoreReplicaCrashMidSectionIsSurvivable) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    co_await c.critical_put("k", ref.value(), Value("v1"));
    // One backend store node dies: quorum ops still work.
    w.store.replica(2).set_down(true);
    auto p = co_await c.critical_put("k", ref.value(), Value("v2"));
    EXPECT_TRUE(p.ok());
    auto g = co_await c.critical_get("k", ref.value());
    EXPECT_TRUE(g.ok());
    if (g.ok()) {
      EXPECT_EQ(g.value().data, "v2");
    }
    co_await c.release_lock("k", ref.value());
  }, sim::sec(300));
  ASSERT_TRUE(ok);
}

TEST(Partition, MinoritySideClientIsToldNothingFalse) {
  // A client partitioned with only its local site cannot make progress
  // (quorum unreachable) but must not observe success.  T is raised so the
  // critical section survives the ~90s the client spends retrying into the
  // partition (with the default T=60s it would correctly expire instead).
  WorldOptions opt;
  opt.music.t_max_cs = sim::sec(600);
  MusicWorld w(opt);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    CO_ASSERT_TRUE(ref.ok());
    co_await c.acquire_lock_blocking("k", ref.value());
    w.net.partition_sites({0}, {1, 2});
    auto p = co_await c.critical_put("k", ref.value(), Value("ghost"));
    EXPECT_FALSE(p.ok());
    w.net.heal_all_partitions();
    auto p2 = co_await c.critical_put("k", ref.value(), Value("real"));
    EXPECT_TRUE(p2.ok());
    auto g = co_await c.critical_get("k", ref.value());
    EXPECT_TRUE(g.ok());
    if (g.ok()) {
      EXPECT_EQ(g.value().data, "real");
    }
  }, sim::sec(600));
  ASSERT_TRUE(ok);
}

TEST(DataStoreDefined, HoldsWhileHolderIsQuiescent) {
  // The paper's Critical-Section Invariant, checked at the store level:
  // while the holder is in Critical state (not mid-put), the data store is
  // defined as the true value.
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto ref = co_await c.create_lock_ref("k");
    co_await c.acquire_lock_blocking("k", ref.value());
    co_await c.critical_put("k", ref.value(), Value("truth"));
    co_await sim::sleep_for(w.sim, sim::ms(500));  // settle in Critical state
    auto defined = verify::data_store_defined(w.store, "k");
    EXPECT_TRUE(defined.defined);
    if (defined.value) {
      EXPECT_EQ(defined.value->data, "truth");
    }
    co_await c.release_lock("k", ref.value());
  });
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::core
