// The ECF-under-failure matrix: every nemesis fault class pointed at the
// protocol, with verify::EcfChecker as the oracle.
//
// Scenarios (each run across MUSIC_FAULT_SEEDS seeds; default 2 for the
// fast tier-1 run, the CI chaos-soak job sets 8):
//   - holder-site isolation: the holder's site is partitioned away, a peer
//     forcedReleases it and takes over — the §IV-B synchronization must
//     fence the zombie's late writes out of the LWW order;
//   - lock-holder crash mid-batch: a forcedRelease lands while a pipelined
//     Session batch executes; per-op results must be an Ok-prefix followed
//     by a NotLockHolder tail (no Ok after the preemption point);
//   - dead store majority: quorum ops stall without false acks and surface
//     RetryExhausted (not a hang, not a fake Ok), then finish after heal;
//   - gray-link soak: elevated loss/delay on WAN links under a concurrent
//     workload;
//   - stacked partitions: overlapping partitions (including a window where
//     no quorum exists anywhere) injected and healed independently.
//
// The per-seed worlds are independent and deterministic, so each scenario
// fans its seed list across par::run_worlds (one world per thread,
// start-to-finish) and asserts the collected outcomes on the main thread —
// the gtest failure text still names the seed.  MUSIC_FAULT_THREADS caps
// the fan-out (default: hardware concurrency).
//
// Teeth check: a run with MusicConfig::test_skip_synchronization (fencing
// deliberately broken) MUST trip the oracle on the exact same isolation
// scenario that passes with fencing on, whether the zombie writes through
// critical_put or through a Session batch.  A matrix that cannot fail
// proves nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/session.h"
#include "fault/fault.h"
#include "fault/nemesis.h"
#include "par/par.h"
#include "util/world.h"
#include "verify/oracle.h"

namespace music::verify {
namespace {

using test::MusicWorld;
using test::WorldOptions;

/// Seeds for the matrix: 1..N where N comes from MUSIC_FAULT_SEEDS.
std::vector<uint64_t> matrix_seeds() {
  int n = 2;
  if (const char* env = std::getenv("MUSIC_FAULT_SEEDS")) {
    int v = std::atoi(env);
    if (v > 0) n = v;
  }
  std::vector<uint64_t> seeds;
  for (int i = 1; i <= n; ++i) seeds.push_back(static_cast<uint64_t>(i));
  return seeds;
}

/// Worker-thread count for the seed fan (0 = par::default_threads()).
size_t matrix_threads() {
  if (const char* env = std::getenv("MUSIC_FAULT_THREADS")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 0;
}

/// Per-seed scenario verdict, filled on the worker thread and asserted on
/// the gtest main thread.  Worker code never touches gtest.
struct SeedOutcome {
  bool ok = true;
  std::string detail;

  void fail(const std::string& why) {
    ok = false;
    detail += why;
    detail += "; ";
  }
  void check(bool cond, const char* what) {
    if (!cond) fail(what);
  }
};

/// Coroutine-safe outcome check: records the failure into the scenario's
/// SeedOutcome and co_returns (gtest's ASSERT_* can't be used off the main
/// thread or inside coroutines).
#define CO_CHECK(out, cond)                   \
  do {                                        \
    if (!(cond)) {                            \
      (out).fail("check failed: " #cond);     \
      co_return;                              \
    }                                         \
  } while (0)

/// Nemesis crash hooks wired to a MusicWorld: store crashes honour the
/// amnesia-vs-durable distinction (amnesia wipes the replica's table and
/// acceptor state before it comes back), MUSIC crashes route through
/// MusicReplica::set_down which drops soft state on amnesia.
fault::NemesisHooks world_hooks(MusicWorld& w) {
  fault::NemesisHooks hooks;
  hooks.crash_store = [&w](int replica, bool down, bool amnesia) {
    if (down && amnesia) w.store.replica(replica).wipe_state();
    w.store.replica(replica).set_down(down);
  };
  hooks.crash_music = [&w](int replica, bool down, bool amnesia) {
    w.replica(replica).set_down(down, amnesia);
  };
  return hooks;
}

constexpr int kKeys = 2;

Key soak_key(int i) { return "fx" + std::to_string(i); }

/// A worker's life for the soak scenarios: repeated critical sections of
/// unbatched puts/gets with occasional crash-style abandonment, every
/// transition reported to the oracle.
sim::Task<void> worker_life(MusicWorld& w, CheckedClient c, int id,
                            sim::Time end, uint64_t seed, int* completed) {
  sim::Rng rng(seed);
  while (w.sim.now() < end) {
    Key key = soak_key(static_cast<int>(rng.next_u64() % kKeys));
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) {
      co_await sim::sleep_for(w.sim, sim::ms(100));
      continue;
    }
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    if (!acq.ok()) {
      co_await c.remove_lock_ref(key, ref.value());
      continue;
    }
    int ops = static_cast<int>(1 + rng.next_u64() % 3);
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(0.4)) {
        co_await c.critical_get(key, ref.value());
      } else {
        // Built stepwise: GCC 12 mis-fires -Werror=restrict on
        // literal + to_string rvalue concats inside coroutine frames.
        std::string val = "w";
        val += std::to_string(id);
        val += "-";
        val += std::to_string(w.sim.now());
        val += "-";
        val += std::to_string(i);
        co_await c.critical_put(key, ref.value(), Value(val));
      }
    }
    if (!rng.chance(0.1)) {  // 10%: crash-style abandonment, never released
      auto rel = co_await c.release_lock(key, ref.value());
      if (rel.ok()) ++*completed;
    }
    co_await sim::sleep_for(w.sim, rng.uniform_int(0, sim::ms(200)));
  }
}

/// The soak scenarios' stand-in for the failure detector: workers abandon
/// their lock 10% of the time (crash-style), and with no FD running an
/// abandoned head would wedge its key for good.  The janitor periodically
/// forcedReleases whatever head it sees — through the checked client, so
/// the oracle also exercises preemption under the active faults.
sim::Task<void> janitor_life(MusicWorld& w, CheckedClient c, sim::Time end,
                             uint64_t seed) {
  sim::Rng rng(seed);
  while (w.sim.now() < end) {
    co_await sim::sleep_for(w.sim, rng.uniform_int(sim::sec(2), sim::sec(4)));
    Key key = soak_key(static_cast<int>(rng.next_u64() % kKeys));
    auto peek = co_await w.locks.peek_quorum(
        w.store.replica_at_site(static_cast<int>(rng.next_u64() % 3)), key);
    if (peek.ok() && peek.value().head.has_value()) {
      co_await c.forced_release(key, *peek.value().head);
    }
  }
}

// ---- Holder-site isolation + the fencing teeth check ----------------------

struct IsolationOutcome {
  bool oracle_ok = false;
  std::string report;
  bool drove_to_end = false;
  SeedOutcome out;
};

/// The holder's site is cut off mid-section; a peer at a connected site
/// forcedReleases the stranded ref and takes the lock over the surviving
/// quorum.  After the heal the zombie holder issues a late critical_put
/// under its stale ref (its local replica's lock view still names it
/// holder, so the guard passes).  With real fencing the takeover's
/// synchronization re-stamped the data under the new ref, which wins the
/// LWW order; with `skip_sync` the zombie write wins and the new holder
/// reads it — a Latest-State violation the oracle must catch.  With
/// `batched_zombie` the late write ships as a one-put core::Session batch
/// over the CheckedClient instead of a critical_put.
IsolationOutcome run_isolation_scenario(uint64_t seed, bool skip_sync,
                                        bool batched_zombie = false) {
  WorldOptions opt;
  opt.seed = seed;
  // No repair channels: the zombie write must be fenced out by the
  // synchronization alone, not papered over by hints or read repair.
  opt.store.hinted_handoff = false;
  opt.store.read_repair = false;
  opt.music.test_skip_synchronization = skip_sync;
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);
  fault::Nemesis nemesis(w.sim, w.net, world_hooks(w));
  CheckedClient zombie(w.client(0), checker);   // site 0
  CheckedClient usurper(w.client(1), checker);  // site 1

  IsolationOutcome iso;
  auto drive = [&]() -> sim::Task<void> {
    SeedOutcome& out = iso.out;
    const Key k = "iso";
    // The victim takes the lock and writes the pre-partition truth.
    auto ref1r = co_await zombie.create_lock_ref(k);
    CO_CHECK(out, ref1r.ok());
    LockRef ref1 = ref1r.value();
    CO_CHECK(out, (co_await zombie.acquire_lock_blocking(k, ref1)).ok());
    CO_CHECK(out, (co_await zombie.critical_put(k, ref1, Value("v1"))).ok());

    // Isolate the holder's site (open-ended; healed below).
    fault::FaultSpec cut;
    cut.kind = fault::FaultKind::Partition;
    cut.side_a = {0};
    cut.side_b = {1, 2};
    nemesis.inject(cut);

    // Takeover over the surviving majority {1,2}: preempt, acquire, read.
    CO_CHECK(out, (co_await usurper.forced_release(k, ref1)).ok());
    auto ref2r = co_await usurper.create_lock_ref(k);
    CO_CHECK(out, ref2r.ok());
    LockRef ref2 = ref2r.value();
    CO_CHECK(out, (co_await usurper.acquire_lock_blocking(k, ref2)).ok());
    auto pre = co_await usurper.critical_get(k, ref2);
    CO_CHECK(out, pre.ok());
    CO_CHECK(out, pre.value().data == "v1");

    // Heal, then let the zombie write under its stale ref.  Its local
    // replica at site 0 never saw the forced release (LWT committed on
    // {1,2} while 0 was cut off), so the holder guard passes locally and
    // the write reaches a full quorum.
    nemesis.heal_all();
    co_await sim::sleep_for(w.sim, sim::ms(50));
    if (batched_zombie) {
      core::Session s(zombie, k, ref1);
      s.put(Value("zombie"));
      co_await s.flush();
    } else {
      co_await zombie.critical_put(k, ref1, Value("zombie"));
    }

    // The current holder reads again: with fencing the re-stamped "v1"
    // (under ref2) outranks the zombie's ref1 stamp; without it the
    // zombie value surfaces and the oracle flags Latest-State.
    co_await usurper.critical_get(k, ref2);
    co_await usurper.release_lock(k, ref2);
    iso.drove_to_end = true;
  };
  iso.out.check(w.runner.run(drive, sim::sec(300)), "drive did not finish");
  iso.oracle_ok = checker.ok();
  iso.report = checker.report();
  return iso;
}

TEST(EcfFaultMatrix, HolderSiteIsolationIsFencedByTheSynchronization) {
  auto seeds = matrix_seeds();
  auto outs = par::run_worlds(
      seeds,
      [](const uint64_t& s) { return run_isolation_scenario(s, false); },
      matrix_threads());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(outs[i].out.ok)
        << "seed " << seeds[i] << ": " << outs[i].out.detail;
    EXPECT_TRUE(outs[i].drove_to_end) << "seed " << seeds[i];
    EXPECT_TRUE(outs[i].oracle_ok)
        << "seed " << seeds[i] << ": " << outs[i].report;
  }
}

TEST(EcfFaultMatrixTeeth, WeakenedFencingTripsTheOracle) {
  // Same scenario, fencing deliberately broken (test_skip_synchronization):
  // the zombie write must surface as an oracle violation.  This proves the
  // matrix can fail — the oracle actually watches the fencing path.
  auto out = run_isolation_scenario(1, /*skip_sync=*/true);
  EXPECT_TRUE(out.drove_to_end);
  EXPECT_FALSE(out.oracle_ok)
      << "oracle accepted a zombie write with synchronization disabled";
}

TEST(EcfFaultMatrixTeeth, WeakenedFencingTripsTheOracleThroughABatch) {
  // The same zombie write shipped as a Session batch over a CheckedClient:
  // the batch path's reporting must trip the oracle just as critical_put's
  // does.
  auto out = run_isolation_scenario(1, /*skip_sync=*/true,
                                    /*batched_zombie=*/true);
  EXPECT_TRUE(out.drove_to_end);
  EXPECT_FALSE(out.oracle_ok)
      << "oracle accepted a batched zombie write with synchronization "
         "disabled";
}

// ---- Lock-holder crash mid-batch ------------------------------------------

SeedOutcome run_midbatch_scenario(uint64_t seed) {
  WorldOptions opt;
  opt.seed = seed;
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);
  CheckedClient holder(w.client(0), checker);
  CheckedClient usurper(w.client(1), checker);

  SeedOutcome out;
  const Key k = "mb";
  bool flushed = false;
  std::vector<core::BatchOpResult> results;
  auto holder_life = [&]() -> sim::Task<void> {
    auto ref = co_await holder.create_lock_ref(k);
    CO_CHECK(out, ref.ok());
    CO_CHECK(out, (co_await holder.acquire_lock_blocking(k, ref.value())).ok());
    core::Session s(holder, k, ref.value());
    for (int i = 0; i < 10; ++i) {
      std::string val = "m";
      val += std::to_string(i);
      s.put(Value(val));
    }
    // The flush races the forced release below; the holder then "crashes"
    // (never releases, never cleans up).
    co_await s.flush();
    results = s.results();
    flushed = true;
  };
  auto usurper_life = [&]() -> sim::Task<void> {
    // Seed-staggered so the preemption lands at different points of the
    // batch (before it, mid-prefix, after it) across the matrix.
    co_await sim::sleep_for(
        w.sim, sim::ms(40) + sim::ms(static_cast<int64_t>(seed) * 17));
    // Peek until the holder's ref is visible (its enqueue LWT may still be
    // in flight at wake-up time), then preempt it.
    LockRef victim = kNoLockRef;
    while (victim == kNoLockRef && w.sim.now() < sim::sec(20)) {
      auto peek = co_await w.locks.peek_quorum(w.store.replica_at_site(1), k);
      if (peek.ok() && peek.value().head.has_value()) {
        victim = *peek.value().head;
        break;
      }
      co_await sim::sleep_for(w.sim, sim::ms(50));
    }
    CO_CHECK(out, victim != kNoLockRef);
    CO_CHECK(out, (co_await usurper.forced_release(k, victim)).ok());
    // Take over and prove the lock is usable after the crash.
    auto ref = co_await usurper.create_lock_ref(k);
    CO_CHECK(out, ref.ok());
    auto uacq = co_await usurper.acquire_lock_blocking(k, ref.value());
    if (!uacq.ok()) {
      std::string why = "usurper acquire failed: ";
      why += to_string(uacq.status());
      out.fail(why);
      co_return;
    }
    CO_CHECK(out,
             (co_await usurper.critical_put(k, ref.value(), Value("took-over")))
                 .ok());
    auto g = co_await usurper.critical_get(k, ref.value());
    CO_CHECK(out, g.ok());
    co_await usurper.release_lock(k, ref.value());
  };
  sim::spawn(w.sim, holder_life());
  sim::spawn(w.sim, usurper_life());
  w.sim.run_until(sim::sec(120));

  out.check(flushed, "holder flush never completed");
  out.check(results.size() == 10u, "batch result count != 10");
  // Ok-prefix / NotLockHolder-tail: once the preemption cuts the batch, no
  // later sub-op may report success.
  bool preempted = false;
  for (size_t i = 0; i < results.size(); ++i) {
    if (preempted && results[i].status == OpStatus::Ok) {
      out.fail("Ok after the preemption point at op " + std::to_string(i));
    }
    if (results[i].status == OpStatus::NotLockHolder) preempted = true;
  }
  if (!checker.ok()) out.fail(checker.report());
  return out;
}

TEST(EcfFaultMatrix, HolderCrashMidBatchKeepsOkPrefixNotLockHolderTail) {
  auto seeds = matrix_seeds();
  auto outs = par::run_worlds(
      seeds, [](const uint64_t& s) { return run_midbatch_scenario(s); },
      matrix_threads());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(outs[i].ok) << "seed " << seeds[i] << ": " << outs[i].detail;
  }
}

// ---- Dead store majority ---------------------------------------------------

SeedOutcome run_dead_majority_scenario(uint64_t seed) {
  WorldOptions opt;
  opt.seed = seed;
  // Tight retry budget so the stalled op surfaces RetryExhausted well
  // before the outage ends (each attempt burns the store's 1.5s quorum
  // timeout; 4 attempts + capped backoff finish by ~t=10s < heal at 14s).
  opt.client.max_attempts = 4;
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);
  fault::Nemesis nemesis(w.sim, w.net, world_hooks(w));
  SeedOutcome out;
  std::string err;
  auto sched = fault::Schedule::parse(
      "at 2s crash store 1 for 12s; at 2s crash store 2 for 12s", &err);
  if (!sched.has_value()) {
    out.fail("schedule parse: " + err);
    return out;
  }
  nemesis.arm(*sched);
  CheckedClient c(w.client(0), checker);

  auto drive = [&]() -> sim::Task<void> {
    const Key k = "dm";
    auto ref = co_await c.create_lock_ref(k);
    CO_CHECK(out, ref.ok());
    CO_CHECK(out, (co_await c.acquire_lock_blocking(k, ref.value())).ok());
    CO_CHECK(out, (co_await c.critical_put(k, ref.value(), Value("before"))).ok());

    // Into the outage: two of three store replicas are down, so no value
    // quorum exists.  The op must fail loudly — RetryExhausted, the
    // distinct terminal status — rather than hang or return a false Ok.
    co_await sim::sleep_for(w.sim, sim::sec(3));
    auto mid = co_await c.critical_put(k, ref.value(), Value("during"));
    CO_CHECK(out, !mid.ok());
    CO_CHECK(out, mid.status() == OpStatus::RetryExhausted);
    CO_CHECK(out, w.client(0).stats().retry_exhausted > 0);

    // After the (durable) restarts the same section finishes cleanly.
    while (w.sim.now() < sim::sec(15)) {
      co_await sim::sleep_for(w.sim, sim::ms(500));
    }
    CO_CHECK(out, (co_await c.critical_put(k, ref.value(), Value("after"))).ok());
    auto g = co_await c.critical_get(k, ref.value());
    CO_CHECK(out, g.ok());
    CO_CHECK(out, g.value().data == "after");
    co_await c.release_lock(k, ref.value());
  };
  out.check(w.runner.run(drive, sim::sec(300)), "drive did not finish");
  if (!checker.ok()) out.fail(checker.report());
  out.check(nemesis.counters().store_crashes == 2u, "store crash count != 2");
  out.check(nemesis.counters().heals == 2u, "heal count != 2");
  out.check(nemesis.open_faults() == 0u, "faults left open");
  for (int i = 0; i < w.store.num_replicas(); ++i) {
    if (w.store.replica(i).down()) {
      out.fail("replica " + std::to_string(i) + " still down");
    }
  }
  return out;
}

TEST(EcfFaultMatrix, DeadMajorityStallsWithoutFalseAcksThenHeals) {
  auto seeds = matrix_seeds();
  auto outs = par::run_worlds(
      seeds, [](const uint64_t& s) { return run_dead_majority_scenario(s); },
      matrix_threads());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(outs[i].ok) << "seed " << seeds[i] << ": " << outs[i].detail;
  }
}

// ---- Gray-link soak --------------------------------------------------------

SeedOutcome run_gray_link_scenario(uint64_t seed) {
  WorldOptions opt;
  opt.seed = seed;
  opt.clients_per_site = 2;
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);
  fault::Nemesis nemesis(w.sim, w.net, world_hooks(w));
  SeedOutcome out;
  std::string err;
  auto sched = fault::Schedule::parse(
      "at 1s gray 0<>1 loss 0.25 delay 20ms for 25s; "
      "at 5s gray 1<>2 loss 0.15 delay 10ms for 15s; "
      "at 8s spike 0>2 delay 80ms for 6s; "
      "at 10s dup 2>0 prob 0.3 for 8s",
      &err);
  if (!sched.has_value()) {
    out.fail("schedule parse: " + err);
    return out;
  }
  nemesis.arm(*sched);

  sim::Time end = sim::sec(30);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim::spawn(w.sim,
               worker_life(w,
                           CheckedClient(w.client(static_cast<size_t>(i)),
                                         checker),
                           i, end, seed * 1000 + static_cast<uint64_t>(i),
                           &completed));
  }
  sim::spawn(w.sim, janitor_life(w, CheckedClient(w.client(4), checker), end,
                                 seed * 7777));
  w.sim.run_until(end + sim::sec(120));

  if (!checker.ok()) out.fail(checker.report());
  out.check(completed > 0, "no critical section completed");
  // Every scheduled fault was timed and has healed itself.
  out.check(nemesis.counters().link_faults == 4u, "link fault count != 4");
  out.check(nemesis.counters().heals == 4u, "heal count != 4");
  out.check(nemesis.open_faults() == 0u, "faults left open");
  out.check(w.net.active_link_faults() == 0u, "link faults still active");
  // The gray links really degraded the wire.
  out.check(w.net.link_fault_drops() > 0u, "gray links dropped nothing");
  return out;
}

TEST(EcfFaultMatrix, GrayLinkSoakHoldsEcf) {
  auto seeds = matrix_seeds();
  auto outs = par::run_worlds(
      seeds, [](const uint64_t& s) { return run_gray_link_scenario(s); },
      matrix_threads());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(outs[i].ok) << "seed " << seeds[i] << ": " << outs[i].detail;
  }
}

// ---- Stacked partitions ----------------------------------------------------

SeedOutcome run_stacked_partition_scenario(uint64_t seed) {
  WorldOptions opt;
  opt.seed = seed;
  opt.clients_per_site = 2;
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);
  fault::Nemesis nemesis(w.sim, w.net, world_hooks(w));
  SeedOutcome out;
  std::string err;
  // The first two overlap from 4s to 6s, a window where every cross-site
  // pair is cut and no quorum exists anywhere; they heal independently
  // (per-id, the stacking semantics PR'd alongside this matrix).
  auto sched = fault::Schedule::parse(
      "at 2s partition 0|1,2 for 4s; "
      "at 4s partition 1|0,2 for 4s; "
      "at 12s partition 2|0,1 for 3s",
      &err);
  if (!sched.has_value()) {
    out.fail("schedule parse: " + err);
    return out;
  }
  nemesis.arm(*sched);

  sim::Time end = sim::sec(25);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim::spawn(w.sim,
               worker_life(w,
                           CheckedClient(w.client(static_cast<size_t>(i)),
                                         checker),
                           i, end, seed * 2000 + static_cast<uint64_t>(i),
                           &completed));
  }
  sim::spawn(w.sim, janitor_life(w, CheckedClient(w.client(4), checker), end,
                                 seed * 8888));
  w.sim.run_until(end + sim::sec(120));

  if (!checker.ok()) out.fail(checker.report());
  out.check(completed > 0, "no progress after quorums returned");
  out.check(nemesis.counters().partitions == 3u, "partition count != 3");
  out.check(nemesis.counters().heals == 3u, "heal count != 3");
  out.check(w.net.active_partitions() == 0u, "partitions still active");
  return out;
}

TEST(EcfFaultMatrix, StackedPartitionChurnHoldsEcf) {
  auto seeds = matrix_seeds();
  auto outs = par::run_worlds(
      seeds,
      [](const uint64_t& s) { return run_stacked_partition_scenario(s); },
      matrix_threads());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(outs[i].ok) << "seed " << seeds[i] << ": " << outs[i].detail;
  }
}

}  // namespace
}  // namespace music::verify
