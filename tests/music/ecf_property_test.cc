// Randomized state-space exploration with the ECF invariants checked
// continuously — the executable analogue of the paper's Alloy verification
// (§V), replacing bounded exhaustive enumeration with bounded randomized
// exploration over many seeds at small scopes (the small-scope hypothesis).
//
// Each run drives several clients through critical sections on a few shared
// keys while a chaos process injects the §III failure modes: client crashes
// mid-section (abandonment), crashes mid-put, forced releases of live
// holders (false failure detection), store-replica crashes/restarts, MUSIC-
// replica crashes, and short network partitions.  Every observable client
// transition feeds the EcfChecker, which holds the system to the
// Exclusivity and Latest-State properties (with the §III non-deterministic
// true-value refinement).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/world.h"
#include "verify/oracle.h"

namespace music::verify {
namespace {

using test::MusicWorld;
using test::WorldOptions;

constexpr int kKeys = 2;
constexpr int kClients = 4;

Key key_of(int i) { return "key" + std::to_string(i); }

/// One client's life: repeatedly run critical sections; sometimes "crash"
/// (abandon the section without releasing).
sim::Task<void> client_life(MusicWorld& w, CheckedClient c, int id,
                            sim::Time end, uint64_t seed) {
  sim::Rng rng(seed);
  while (w.sim.now() < end) {
    Key key = key_of(static_cast<int>(rng.next_u64() % kKeys));
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) continue;
    if (rng.chance(0.1)) continue;  // die after createLockRef: orphan ref
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    if (!acq.ok()) {
      co_await c.remove_lock_ref(key, ref.value());
      continue;
    }
    int ops = static_cast<int>(1 + rng.next_u64() % 3);
    bool alive = true;
    for (int i = 0; i < ops && alive; ++i) {
      if (rng.chance(0.5)) {
        auto g = co_await c.critical_get(key, ref.value());
        if (g.status() == OpStatus::NotLockHolder) alive = false;
      } else {
        Value v("c" + std::to_string(id) + "-" +
                std::to_string(w.sim.now()) + "-" + std::to_string(i));
        auto p = co_await c.critical_put(key, ref.value(), v);
        if (p.status() == OpStatus::NotLockHolder) alive = false;
      }
      if (rng.chance(0.08)) {
        alive = false;  // crash mid-section: never released
      }
    }
    if (alive && !rng.chance(0.1)) {
      co_await c.release_lock(key, ref.value());
    }
    co_await sim::sleep_for(w.sim, rng.uniform_int(0, sim::ms(200)));
  }
}

/// Chaos: forced releases (the failure detector's role, reported to the
/// checker), backend crashes/restarts, brief partitions.
sim::Task<void> chaos_life(MusicWorld& w, CheckedClient c, sim::Time end,
                           uint64_t seed) {
  sim::Rng rng(seed);
  while (w.sim.now() < end) {
    co_await sim::sleep_for(w.sim, rng.uniform_int(sim::sec(2), sim::sec(6)));
    double dice = rng.uniform_real(0, 1);
    if (dice < 0.5) {
      // Preempt whatever currently holds a random key (possibly a live
      // holder: false failure detection).
      Key key = key_of(static_cast<int>(rng.next_u64() % kKeys));
      auto peek = co_await w.locks.peek_quorum(
          w.store.replica_at_site(static_cast<int>(rng.next_u64() % 3)), key);
      if (peek.ok() && peek.value().head.has_value()) {
        co_await c.forced_release(key, *peek.value().head);
      }
    } else if (dice < 0.75) {
      // Crash one store replica briefly (quorum stays available).
      int victim = static_cast<int>(rng.next_u64() %
                                    static_cast<uint64_t>(w.store.num_replicas()));
      w.store.replica(victim).set_down(true);
      co_await sim::sleep_for(w.sim, rng.uniform_int(sim::ms(500), sim::sec(3)));
      w.store.replica(victim).set_down(false);
    } else if (dice < 0.9) {
      // Short single-site partition.
      int site = static_cast<int>(rng.next_u64() % 3);
      w.net.partition_sites({site}, {(site + 1) % 3, (site + 2) % 3});
      co_await sim::sleep_for(w.sim, rng.uniform_int(sim::ms(500), sim::sec(2)));
      w.net.heal_all_partitions();
    } else {
      // Crash a MUSIC replica briefly.
      int victim = static_cast<int>(rng.next_u64() % 3);
      w.replica(victim).set_down(true);
      co_await sim::sleep_for(w.sim, rng.uniform_int(sim::ms(500), sim::sec(2)));
      w.replica(victim).set_down(false);
    }
  }
}

/// Samples the paper's Critical-Section Invariant at the physical store:
/// whenever the oracle deems a key's truth stable, the data store must be
/// *defined* (SIV-A) as exactly that value.
sim::Task<void> defined_sampler(MusicWorld& w, EcfChecker& checker,
                                sim::Time end, int* checks,
                                int* violations) {
  while (w.sim.now() < end) {
    co_await sim::sleep_for(w.sim, sim::sec(3));
    for (int k = 0; k < kKeys; ++k) {
      Key key = key_of(k);
      auto truth = checker.stable_truth(key, sim::sec(2));
      if (!truth) continue;
      auto defined = data_store_defined(w.store, key);
      ++*checks;
      if (!defined.defined || !defined.value || !(*defined.value == *truth)) {
        ++*violations;
        ADD_FAILURE() << "Critical-Section Invariant: store not defined as "
                      << "the stable truth '" << truth->data << "' for "
                      << key << " at t=" << w.sim.now();
      }
    }
  }
}

class EcfProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcfProperty, InvariantsHoldUnderRandomizedFailures) {
  WorldOptions opt;
  opt.seed = GetParam();
  opt.clients_per_site = 2;  // 6 clients total; we use 4 + 1 chaos
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);

  sim::Time end = sim::sec(90);
  for (int i = 0; i < kClients; ++i) {
    sim::spawn(w.sim, client_life(w, CheckedClient(w.client(static_cast<size_t>(i)), checker),
                                  i, end, opt.seed * 1000 + static_cast<uint64_t>(i)));
  }
  sim::spawn(w.sim, chaos_life(w, CheckedClient(w.client(4), checker), end,
                               opt.seed * 7777));
  int defined_checks = 0, defined_violations = 0;
  sim::spawn(w.sim, defined_sampler(w, checker, end, &defined_checks,
                                    &defined_violations));
  // Run past `end` so in-flight operations settle.
  w.sim.run_until(end + sim::sec(120));

  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(defined_violations, 0);
  EXPECT_GT(defined_checks, 0) << "sampler never found a stable window";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcfProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

class EcfFailureFree : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcfFailureFree, StrictInvariantsHoldWithoutFailures) {
  WorldOptions opt;
  opt.seed = GetParam();
  opt.clients_per_site = 2;
  MusicWorld w(opt);
  EcfChecker checker(w.sim);  // strict mode

  sim::Time end = sim::sec(60);
  for (int i = 0; i < kClients; ++i) {
    // Reuse client_life but with a seed stream that never rolls a "crash":
    // simpler: run plain sections inline.
    sim::spawn(w.sim, [](MusicWorld& world, CheckedClient c, int id,
                         sim::Time until, uint64_t seed) -> sim::Task<void> {
      sim::Rng rng(seed);
      while (world.sim.now() < until) {
        Key key = key_of(static_cast<int>(rng.next_u64() % kKeys));
        auto ref = co_await c.create_lock_ref(key);
        if (!ref.ok()) continue;
        auto acq = co_await c.acquire_lock_blocking(key, ref.value());
        if (!acq.ok()) {
          co_await c.remove_lock_ref(key, ref.value());
          continue;
        }
        auto g = co_await c.critical_get(key, ref.value());
        (void)g;
        Value v("c" + std::to_string(id) + "@" + std::to_string(world.sim.now()));
        co_await c.critical_put(key, ref.value(), v);
        co_await c.release_lock(key, ref.value());
        co_await sim::sleep_for(world.sim, rng.uniform_int(0, sim::ms(100)));
      }
    }(w, CheckedClient(w.client(static_cast<size_t>(i)), checker), i, end,
      opt.seed * 31 + static_cast<uint64_t>(i)));
  }
  // No chaos, but orphan refs from LWT replay retries still need collection.
  w.replica(0).start_failure_detector();
  w.sim.run_until(end + sim::sec(60));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcfFailureFree,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace music::verify
