// The batched Session path under randomized §III failure injection, held to
// the same ECF oracle as the unbatched client (tests/music/ecf_property_
// test.cc): forced releases land mid-batch, store replicas crash, sites
// partition — and the Exclusivity / Latest-State invariants must still
// hold over the per-op batch results.  A Session over a CheckedClient
// reports every queued put as attempted before the batch ships and
// acks/reads from the aligned results, so a preempted tail shows up as
// pending-never-acked attempts, exactly like a client that crashed mid-put.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "util/world.h"
#include "verify/oracle.h"

namespace music::verify {
namespace {

using test::MusicWorld;
using test::WorldOptions;

constexpr int kKeys = 2;
constexpr int kClients = 4;

Key key_of(int i) { return "bk" + std::to_string(i); }

/// One client's life: repeatedly run critical sections whose entire body is
/// one batched flush (puts and gets on the held key), with occasional
/// crash-style abandonment.
sim::Task<void> batch_client_life(MusicWorld& w, CheckedClient c, int id,
                                  sim::Time end, uint64_t seed) {
  sim::Rng rng(seed);
  while (w.sim.now() < end) {
    Key key = key_of(static_cast<int>(rng.next_u64() % kKeys));
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) continue;
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    if (!acq.ok()) {
      co_await c.remove_lock_ref(key, ref.value());
      continue;
    }
    core::Session s(c, key, ref.value());
    int ops = static_cast<int>(1 + rng.next_u64() % 4);
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(0.4)) {
        s.get();
      } else {
        // Built stepwise: GCC 12 mis-fires -Werror=restrict on
        // literal + to_string rvalue concats inside coroutine frames.
        std::string val = "b";
        val += std::to_string(id);
        val += "-";
        val += std::to_string(w.sim.now());
        val += "-";
        val += std::to_string(i);
        s.put(Value(val));
      }
    }
    auto st = co_await s.flush();
    (void)st;  // a NotLockHolder tail is legal under preemption
    if (!rng.chance(0.1)) {
      co_await c.release_lock(key, ref.value());
    }
    co_await sim::sleep_for(w.sim, rng.uniform_int(0, sim::ms(200)));
  }
}

/// Chaos: forced releases of live holders (these are what land mid-batch),
/// brief store-replica crashes and single-site partitions.
sim::Task<void> chaos_life(MusicWorld& w, CheckedClient c, sim::Time end,
                           uint64_t seed) {
  sim::Rng rng(seed);
  while (w.sim.now() < end) {
    co_await sim::sleep_for(w.sim, rng.uniform_int(sim::sec(1), sim::sec(4)));
    double dice = rng.uniform_real(0, 1);
    if (dice < 0.6) {
      Key key = key_of(static_cast<int>(rng.next_u64() % kKeys));
      auto peek = co_await w.locks.peek_quorum(
          w.store.replica_at_site(static_cast<int>(rng.next_u64() % 3)), key);
      if (peek.ok() && peek.value().head.has_value()) {
        co_await c.forced_release(key, *peek.value().head);
      }
    } else if (dice < 0.8) {
      int victim = static_cast<int>(
          rng.next_u64() % static_cast<uint64_t>(w.store.num_replicas()));
      w.store.replica(victim).set_down(true);
      co_await sim::sleep_for(w.sim,
                              rng.uniform_int(sim::ms(500), sim::sec(2)));
      w.store.replica(victim).set_down(false);
    } else {
      int site = static_cast<int>(rng.next_u64() % 3);
      w.net.partition_sites({site}, {(site + 1) % 3, (site + 2) % 3});
      co_await sim::sleep_for(w.sim,
                              rng.uniform_int(sim::ms(500), sim::sec(2)));
      w.net.heal_all_partitions();
    }
  }
}

class BatchEcfProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEcfProperty, BatchedSectionsHoldEcfUnderForcedReleases) {
  WorldOptions opt;
  opt.seed = GetParam();
  opt.clients_per_site = 2;  // 6 clients: 4 workers + 1 chaos
  MusicWorld w(opt);
  EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);

  sim::Time end = sim::sec(75);
  for (int i = 0; i < kClients; ++i) {
    sim::spawn(w.sim,
               batch_client_life(
                   w, CheckedClient(w.client(static_cast<size_t>(i)), checker),
                   i, end, opt.seed * 1000 + static_cast<uint64_t>(i)));
  }
  sim::spawn(w.sim, chaos_life(w, CheckedClient(w.client(4), checker), end,
                               opt.seed * 7777));
  w.sim.run_until(end + sim::sec(120));

  EXPECT_TRUE(checker.ok()) << checker.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEcfProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace music::verify
