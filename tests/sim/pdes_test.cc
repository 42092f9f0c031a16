// The conservative PDES engine: windowed execution over per-site event
// lanes, cross-lane mail, and — the property the whole design exists for —
// bit-identical results at ANY worker count.
//
// Three layers of coverage:
//  - engine unit tests on a bare Simulation (window math, cross-lane mail
//    ordering, main-lane solo execution, schedule_main_at hops);
//  - a synthetic worker-count-invariance fingerprint (per-lane rng draws
//    and randomized cross-lane sends), and timer cancellation from the
//    event's own lane and from another one, at the kernel and through the
//    sim/future.h wait primitives;
//  - determinism goldens: the full MUSIC deployment from
//    sim/determinism_golden_test.cc on the lUsEu WAN profile, fingerprints
//    pinned and asserted identical at 1/2/4/8 shard workers.  PDES worlds
//    draw per-lane rng streams, so these constants deliberately differ from
//    the classic-kernel goldens.
//
// Regenerate after a deliberate semantic change with:
//   MUSIC_REGEN_GOLDENS=1 ./sim_pdes_test
// and paste the printed table over kPdesGoldens below.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/client.h"
#include "sim/future.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/world.h"
#include "verify/oracle.h"

namespace music {
namespace {

/// FNV-1a 64-bit; the fingerprint accumulator.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    mix(s.size());
  }
};

sim::Simulation::PdesOptions pdes(int sites, size_t workers,
                                  sim::Duration lookahead) {
  sim::Simulation::PdesOptions po;
  po.sites = sites;
  po.workers = workers;
  po.lookahead = lookahead;
  return po;
}

TEST(PdesEngine, AccessorsReflectConfiguration) {
  sim::Simulation sim(1);
  EXPECT_FALSE(sim.pdes());
  EXPECT_TRUE(sim.on_main_lane());
  sim.enable_pdes(pdes(3, 2, sim::us(50)));
  EXPECT_TRUE(sim.pdes());
  EXPECT_EQ(sim.pdes_sites(), 3);
  EXPECT_EQ(sim.pdes_workers(), 2u);
  EXPECT_EQ(sim.pdes_lookahead(), sim::us(50));
  EXPECT_EQ(sim.pdes_windows_run(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST(PdesEngine, CrossLaneMailDeliversInTimestampOrder) {
  sim::Simulation sim(7);
  constexpr sim::Duration kLook = sim::us(50);
  sim.enable_pdes(pdes(2, 2, kLook));

  // A strict ping-pong: site 0 and site 1 alternate, every hop exactly one
  // lookahead apart, each lane appending only to its own log (no shared
  // mutable state between lanes).
  std::array<std::vector<sim::Time>, 2> log;
  int remaining = 16;
  std::function<void(int)> arrive = [&](int site) {
    log[static_cast<size_t>(site)].push_back(sim.now());
    if (--remaining > 0) {
      int to = 1 - site;
      sim.schedule_site_at(to, sim.now() + kLook,
                           [&arrive, to] { arrive(to); });
    }
  };
  sim.schedule_site_at(0, kLook, [&arrive] { arrive(0); });
  sim.run_until_idle();

  ASSERT_EQ(log[0].size(), 8u);
  ASSERT_EQ(log[1].size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    // Hop k lands at (k+1)*kLook; even hops at site 0, odd at site 1.
    EXPECT_EQ(log[0][i], static_cast<sim::Time>(2 * i + 1) * kLook);
    EXPECT_EQ(log[1][i], static_cast<sim::Time>(2 * i + 2) * kLook);
  }
  EXPECT_EQ(sim.events_run(), 16u);
  EXPECT_GE(sim.pdes_windows_run(), 1u);
}

TEST(PdesEngine, MainLaneEventsRunAloneBetweenWindows) {
  sim::Simulation sim(3);
  sim.enable_pdes(pdes(4, 4, sim::us(100)));

  // `flag` is a PLAIN int: safe only because the main-lane event that
  // writes it runs with no site lane in flight (TSan enforces the claim).
  // Site events straddle the write; each must observe 0 strictly before it
  // and 1 strictly after.
  int flag = 0;
  constexpr sim::Time kFlip = 505;
  std::array<std::vector<std::pair<sim::Time, int>>, 4> seen;
  for (int s = 0; s < 4; ++s) {
    for (sim::Time t = 3; t < 1000; t += 30) {
      sim.schedule_site_at(s, t, [&seen, &flag, s, &sim] {
        seen[static_cast<size_t>(s)].emplace_back(sim.now(), flag);
      });
    }
  }
  sim.schedule_at(kFlip, [&flag] { flag = 1; });  // main lane (setup context)
  sim.run_until_idle();

  for (const auto& lane : seen) {
    ASSERT_FALSE(lane.empty());
    for (const auto& [t, v] : lane) EXPECT_EQ(v, t < kFlip ? 0 : 1) << t;
  }
}

TEST(PdesEngine, ScheduleMainAtHopsMutationsOffSiteLanes) {
  sim::Simulation sim(5);
  sim.enable_pdes(pdes(2, 2, sim::us(40)));

  // A site-lane event requests a main-lane mutation mid-window; the hop
  // must land on the main lane (alone), at or after the requesting window's
  // end, and before any site event of a later window reads the value.
  int shared = 0;
  bool hopped_on_main = false;
  sim::Time hop_at = 0;
  sim.schedule_site_at(0, sim::us(10), [&] {
    EXPECT_FALSE(sim.on_main_lane());
    sim.schedule_main_at(sim.now(), [&] {
      hopped_on_main = sim.on_main_lane();
      hop_at = sim.now();
      shared = 42;
    });
  });
  int observed = -1;
  sim.schedule_site_at(1, sim::us(500), [&] { observed = shared; });
  sim.run_until_idle();

  EXPECT_TRUE(hopped_on_main);
  EXPECT_GE(hop_at, sim::us(10));  // clamped into the barrier, never early
  EXPECT_LE(hop_at, sim::us(500));
  EXPECT_EQ(observed, 42);
  EXPECT_EQ(shared, 42);
}

TEST(PdesEngine, RunUntilAdvancesEveryLaneToTarget) {
  sim::Simulation sim(1);
  sim.enable_pdes(pdes(3, 1, sim::us(50)));
  sim.schedule_site_at(2, sim::ms(2), [] {});
  sim.run_until(sim::ms(10));
  EXPECT_EQ(sim.now(), sim::ms(10));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.events_run(), 1u);
}

/// Synthetic worker-invariance scenario: every lane runs a randomized
/// self-rescheduling chain (drawing from its own lane rng) that sometimes
/// mails the next lane one-lookahead-plus-jitter ahead.  The fingerprint
/// folds each lane's observation log in lane order.
uint64_t synthetic_fingerprint(size_t workers) {
  sim::Simulation sim(42);
  constexpr sim::Duration kLook = sim::us(50);
  sim.enable_pdes(pdes(4, workers, kLook));

  std::array<Fnv, 4> logs;
  std::array<int, 4> budget{160, 160, 160, 160};
  std::function<void(int)> tick = [&](int s) {
    auto si = static_cast<size_t>(s);
    uint64_t r = sim.rng().next_u64();  // this lane's private stream
    logs[si].mix(static_cast<uint64_t>(sim.now()));
    logs[si].mix(r);
    if (--budget[si] <= 0) return;
    sim::Duration jitter = static_cast<sim::Duration>(r % 40) + 1;
    if (r % 3 == 0) {
      int to = (s + 1) % 4;
      sim.schedule_site_at(to, sim.now() + kLook + jitter,
                           [&tick, to] { tick(to); });
    } else {
      sim.schedule(jitter, [&tick, s] { tick(s); });
    }
  };
  for (int s = 0; s < 4; ++s) {
    sim.schedule_site_at(s, sim::us(1 + s), [&tick, s] { tick(s); });
  }
  sim.run_until_idle();

  Fnv fp;
  for (const Fnv& l : logs) fp.mix(l.h);
  fp.mix(sim.events_run());
  fp.mix(static_cast<uint64_t>(sim.now()));
  return fp.h;
}

TEST(PdesEngine, SyntheticFingerprintIsWorkerCountInvariant) {
  uint64_t one = synthetic_fingerprint(1);
  EXPECT_EQ(one, synthetic_fingerprint(2));
  EXPECT_EQ(one, synthetic_fingerprint(4));
}

// ---- Cancellation across lanes. ---------------------------------------------

TEST(PdesEngine, CancelWorksOnTheEventsLaneOnly) {
  sim::Simulation sim(9);
  constexpr sim::Duration kLook = sim::us(50);
  sim.enable_pdes(pdes(2, 2, kLook));
  // Both targets are far-heap events on lane 0.  Lane 0 cancels one; lane 1
  // tries to cancel the other, which would race lane 0's worker, so that
  // cancel is a no-op and the event runs.
  std::atomic<int> ran{0};
  sim.schedule_site_at(0, sim::us(10), [&] {
    sim::EventId mine = sim.schedule(sim::sec(1), [&ran] { ran += 1; });
    sim::EventId theirs = sim.schedule(sim::sec(1), [&ran] { ran += 10; });
    sim.schedule(sim::us(20), [&sim, mine] { sim.cancel(mine); });
    sim.schedule_site_at(1, sim.now() + kLook,
                         [&sim, theirs] { sim.cancel(theirs); });
  });
  sim.run_until_idle();
  EXPECT_EQ(ran.load(), 10);
  // The cancelled timer still popped, as a tombstone: 5 events in all.
  EXPECT_EQ(sim.events_run(), 5u);
}

/// A reply value counting its live instances across every lane.
struct Held {
  static std::atomic<int> live;
  int v = 0;
  explicit Held(int x) : v(x) { ++live; }
  Held(const Held& o) : v(o.v) { ++live; }
  Held& operator=(const Held&) = default;
  ~Held() { --live; }
};
std::atomic<int> Held::live{0};

/// One timed wait; `log` belongs to the lane the wait ends on.
sim::Task<void> timed_wait(sim::Simulation& sim, sim::Future<Held> f,
                           bool quorum, Fnv& log) {
  int v = -1;
  if (quorum) {
    std::vector<sim::Future<Held>> fs(1, f);
    std::vector<Held> got =
        co_await sim::await_count<Held>(sim, std::move(fs), 1, sim::sec(1));
    if (!got.empty()) v = got[0].v;
  } else {
    std::optional<Held> got =
        co_await sim::await_with_timeout(sim, f, sim::sec(1));
    if (got) v = got->v;
  }
  log.mix(static_cast<uint64_t>(sim.now()));
  log.mix(static_cast<uint64_t>(v));
}

struct CrossLaneWaits {
  uint64_t fingerprint;
  int live_before_deadlines;
  int live_after;
};

/// Every lane starts 8 waits, alternating await_with_timeout and
/// await_count.  Half are fulfilled on the waiting lane, so the wait ends
/// there and cancels its timer; the other half are fulfilled on the next
/// lane, where the wait then ends and its cancel is a no-op.
CrossLaneWaits cross_lane_waits(size_t workers) {
  constexpr int kSites = 4;
  constexpr sim::Duration kLook = sim::us(50);
  sim::Simulation sim(21);
  sim.enable_pdes(pdes(kSites, workers, kLook));
  std::array<Fnv, kSites> logs;
  Held::live = 0;
  for (int s = 0; s < kSites; ++s) {
    for (int i = 0; i < 8; ++i) {
      sim.schedule_site_at(s, sim::us(10 * i + s), [&, s, i] {
        sim::Promise<Held> p(sim);
        bool cross = (i / 2) % 2 == 1;
        int end = cross ? (s + 1) % kSites : s;
        sim::spawn(sim, timed_wait(sim, p.future(), i % 2 == 1,
                                   logs[static_cast<size_t>(end)]));
        int v = 100 * s + i;
        if (cross) {
          sim.schedule_site_at(end, sim.now() + kLook + i,
                               [p, v] { p.set_value(Held(v)); });
        } else {
          sim.schedule(sim::us(5 + i), [p, v] { p.set_value(Held(v)); });
        }
      });
    }
  }
  sim.run_until(sim::ms(100));  // every wait ended, no deadline reached
  CrossLaneWaits out{};
  out.live_before_deadlines = Held::live.load();
  sim.run_until_idle();
  out.live_after = Held::live.load();
  Fnv fp;
  for (const Fnv& l : logs) fp.mix(l.h);
  fp.mix(sim.events_run());
  fp.mix(static_cast<uint64_t>(sim.now()));
  out.fingerprint = fp.h;
  return out;
}

TEST(PdesFuture, TimersCancelOnTheirOwnLaneAndAreWorkerCountInvariant) {
  CrossLaneWaits one = cross_lane_waits(1);
  // Only the cross-lane waits' timers still hold values: per lane, two
  // await_with_timeout (one copy in `done`) and two await_count (one in
  // the gather, one in the result).  Same-lane waits hold none.
  EXPECT_EQ(one.live_before_deadlines, 4 * (2 * 1 + 2 * 2));
  EXPECT_EQ(one.live_after, 0);
  for (size_t w : {size_t{2}, size_t{4}}) {
    CrossLaneWaits other = cross_lane_waits(w);
    EXPECT_EQ(other.fingerprint, one.fingerprint) << "workers " << w;
    EXPECT_EQ(other.live_before_deadlines, one.live_before_deadlines);
    EXPECT_EQ(other.live_after, 0);
  }
}

// ---- Determinism goldens: the full MUSIC stack under PDES. -----------------

/// One checked client's life (same shape as determinism_golden_test.cc) —
/// but logging into its OWN Fnv: under PDES clients at different sites run
/// on different lanes, so a shared log would race and fold in scheduling
/// order.  Per-client logs folded in cid order are worker-count invariant.
sim::Task<void> client_loop(test::MusicWorld& w, verify::EcfChecker& checker,
                            int cid, Fnv& log) {
  verify::CheckedClient c(w.client(static_cast<size_t>(cid)), checker);
  Key key = "g";
  key += std::to_string(cid % 3);  // 2 clients contend per key
  for (int round = 0; round < 4; ++round) {
    auto ref = co_await c.create_lock_ref(key);
    log.mix(static_cast<uint64_t>(w.sim.now()));
    if (!ref.ok()) continue;
    log.mix(static_cast<uint64_t>(ref.value()));
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    log.mix(static_cast<uint64_t>(acq.status()));
    if (!acq.ok()) continue;
    for (int i = 0; i < 2; ++i) {
      std::string payload = "c";
      payload += std::to_string(cid);
      payload += "r";
      payload += std::to_string(round);
      payload += "i";
      payload += std::to_string(i);
      Value v(std::move(payload));
      auto st = co_await c.critical_put(key, ref.value(), v);
      log.mix(static_cast<uint64_t>(st.status()));
    }
    auto got = co_await c.critical_get(key, ref.value());
    log.mix(static_cast<uint64_t>(got.status()));
    if (got.ok()) log.mix(got.value().data);
    auto rel = co_await c.release_lock(key, ref.value());
    log.mix(static_cast<uint64_t>(rel.status()));
    log.mix(static_cast<uint64_t>(w.sim.now()));
  }
}

struct RunOutcome {
  uint64_t events_run;
  uint64_t fingerprint;
};

RunOutcome run_pdes_scenario(uint64_t seed, size_t workers) {
  test::WorldOptions opt;
  opt.seed = seed;
  opt.profile = sim::LatencyProfile::profile_luseu();
  opt.clients_per_site = 2;
  opt.pdes_workers = workers;
  test::MusicWorld w(opt);
  EXPECT_TRUE(w.sim.pdes());
  verify::EcfChecker checker(w.sim);
  std::vector<Fnv> logs(6);
  for (int cid = 0; cid < 6; ++cid) {
    sim::spawn(w.sim, client_loop(w, checker, cid, logs[static_cast<size_t>(cid)]));
  }
  w.sim.run_until(sim::sec(600));

  EXPECT_TRUE(checker.ok()) << checker.report();
  Fnv fp;
  for (const Fnv& log : logs) fp.mix(log.h);
  fp.mix(w.sim.events_run());
  fp.mix(static_cast<uint64_t>(w.sim.now()));
  fp.mix(w.net.messages_sent());
  fp.mix(w.net.messages_dropped());
  fp.mix(w.net.bytes_sent());
  fp.mix(w.net.wan_messages_sent());
  for (size_t k = 0; k < static_cast<size_t>(sim::MsgKind::kCount); ++k) {
    fp.mix(w.net.messages_sent(static_cast<sim::MsgKind>(k)));
  }
  fp.mix(checker.violations().size());
  for (int key = 0; key < 3; ++key) {
    std::string name = "g";
    name += std::to_string(key);
    auto truth = checker.stable_truth(name, sim::sec(1));
    fp.mix(truth.has_value() ? truth->data : std::string("<none>"));
  }
  return {w.sim.events_run(), fp.h};
}

struct Golden {
  uint64_t seed;
  uint64_t events_run;
  uint64_t fingerprint;
};

// Captured at 1 worker on the lUsEu profile; every other worker count must
// reproduce each row bit-identically.  These differ from the classic-kernel
// goldens by design (per-lane rng streams).
constexpr Golden kPdesGoldens[] = {
    {1, 11001, 0x8b990fbf48681c27ull},
    {2, 10078, 0x6dc236746cb07eb8ull},
};

constexpr size_t kWorkerConfigs[] = {1, 2, 4, 8};

TEST(PdesGolden, WorkerCountsReproducePinnedFingerprints) {
  bool regen = std::getenv("MUSIC_REGEN_GOLDENS") != nullptr;
  for (const Golden& g : kPdesGoldens) {
    RunOutcome base{0, 0};
    for (size_t wi = 0; wi < std::size(kWorkerConfigs); ++wi) {
      RunOutcome out = run_pdes_scenario(g.seed, kWorkerConfigs[wi]);
      if (wi == 0) {
        base = out;
        if (regen) {
          std::printf("    {%llu, %llu, 0x%016llxull},\n",
                      static_cast<unsigned long long>(g.seed),
                      static_cast<unsigned long long>(out.events_run),
                      static_cast<unsigned long long>(out.fingerprint));
        } else {
          EXPECT_EQ(out.events_run, g.events_run) << "seed " << g.seed;
          EXPECT_EQ(out.fingerprint, g.fingerprint) << "seed " << g.seed;
        }
        continue;
      }
      // The tentpole property: shard workers change wall-clock, never bits.
      EXPECT_EQ(out.events_run, base.events_run)
          << "seed " << g.seed << " workers " << kWorkerConfigs[wi];
      EXPECT_EQ(out.fingerprint, base.fingerprint)
          << "seed " << g.seed << " workers " << kWorkerConfigs[wi];
    }
  }
}

}  // namespace
}  // namespace music
