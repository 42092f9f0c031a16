// Workload harness tests: statistics, Zipfian distribution, the closed-loop
// and sequential drivers.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "util/world.h"
#include "workload/driver.h"
#include "workload/runners.h"
#include "workload/stats.h"
#include "workload/ycsb.h"
#include "workload/zipfian.h"

namespace music::wl {
namespace {

TEST(Samples, MeanAndStddev) {
  Samples s;
  for (auto v : {1000, 2000, 3000, 4000, 5000}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 3.0);
  EXPECT_NEAR(s.stddev_ms(), 1.5811, 0.001);
  EXPECT_EQ(s.count(), 5u);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i * 1000);
  EXPECT_NEAR(s.percentile_ms(50), 50.5, 0.6);
  EXPECT_NEAR(s.percentile_ms(99), 99.0, 1.1);
  EXPECT_DOUBLE_EQ(s.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms(), 100.0);
}

TEST(Samples, CdfIsMonotone) {
  Samples s;
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) s.add(rng.uniform_int(100, 100000));
  auto cdf = s.cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, MergeCombines) {
  Samples a, b;
  a.add(1000);
  b.add(3000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_ms(), 2.0);
}

TEST(Zipfian, IsSkewedTowardLowRanks) {
  Zipfian z(1000);
  sim::Rng rng(7);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) counts[z.next(rng)]++;
  // Rank 0 should receive roughly 1/zeta(1000,0.99) ~ 13% of draws.
  EXPECT_GT(counts[0], kDraws / 20);
  EXPECT_GT(counts[0], counts[10]);
  // All draws in range.
  for (const auto& [k, v] : counts) {
    (void)v;
    EXPECT_LT(k, 1000u);
  }
}

TEST(Zipfian, CoversTheTail) {
  Zipfian z(100);
  sim::Rng rng(11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.next(rng)]++;
  EXPECT_GT(counts.size(), 80u);  // most of the keyspace gets touched
}

/// A deterministic workload for driver tests: sleeps then succeeds.
class SleepWorkload : public Workload {
 public:
  SleepWorkload(sim::Simulation& s, sim::Duration d) : sim_(s), d_(d) {}
  sim::Task<bool> run_once(int) override {
    co_await sim::sleep_for(sim_, d_);
    co_return true;
  }

 private:
  sim::Simulation& sim_;
  sim::Duration d_;
};

TEST(Driver, ClosedLoopThroughputMatchesLittleLaw) {
  sim::Simulation s(1);
  auto w = std::make_shared<SleepWorkload>(s, sim::ms(10));
  DriverConfig cfg;
  cfg.clients = 4;
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(10);
  auto r = run_closed_loop(s, w, cfg);
  // 4 clients / 10ms = 400 ops/s.
  EXPECT_NEAR(r.throughput(), 400.0, 10.0);
  EXPECT_NEAR(r.latency.mean_ms(), 10.0, 0.5);
  EXPECT_EQ(r.failed, 0u);
}

TEST(Driver, SequentialRunsExactOpCount) {
  sim::Simulation s(1);
  auto w = std::make_shared<SleepWorkload>(s, sim::ms(5));
  auto r = run_sequential(s, w, 37);
  EXPECT_EQ(r.completed, 37u);
  EXPECT_NEAR(r.latency.mean_ms(), 5.0, 0.1);
}

TEST(MusicCsWorkloadIntegration, RunsFullCriticalSections) {
  test::WorldOptions opt;
  opt.clients_per_site = 2;
  test::MusicWorld world(opt);
  std::vector<core::MusicClient*> clients;
  for (auto& c : world.clients) clients.push_back(c.get());
  auto w = std::make_shared<MusicCsWorkload>(clients, "bench", 2, 10);
  DriverConfig cfg;
  cfg.clients = static_cast<int>(clients.size());
  cfg.warmup = sim::sec(2);
  cfg.measure = sim::sec(20);
  auto r = run_closed_loop(world.sim, w, cfg);
  EXPECT_GT(r.completed, 10u);
  EXPECT_EQ(r.failed, 0u);
  // A critical section takes ~0.6s; 6 clients -> ~10/s.
  EXPECT_GT(r.throughput(), 4.0);
  EXPECT_LT(r.throughput(), 20.0);
}

// YCSB mixes R (reads only) and U (updates only): each op is one critical
// section doing only the mix's operation, and every op is counted.
TEST(YcsbWorkloadIntegration, MixesRAndUDoOnlyTheirOperation) {
  struct Totals {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t grants = 0;
  };
  auto run = [](const YcsbMix& mix) {
    test::MusicWorld world;
    std::vector<core::MusicClient*> clients;
    for (auto& c : world.clients) clients.push_back(c.get());
    auto w = std::make_shared<YcsbWorkload>(clients, mix, 100, 10, 7);
    RunResult r = run_sequential(world.sim, w, 12);
    EXPECT_EQ(w->operations(), r.completed + r.failed) << mix.name;
    EXPECT_LE(w->collisions(), w->operations()) << mix.name;
    EXPECT_EQ(r.completed, 12u) << mix.name;
    Totals t;
    for (auto& rep : world.replicas) {
      t.puts += rep->stats().critical_puts;
      t.gets += rep->stats().critical_gets;
      t.grants += rep->stats().acquire_granted;
    }
    return t;
  };
  Totals r = run(YcsbMix::r());
  EXPECT_EQ(r.puts, 0u);
  EXPECT_GE(r.grants, 12u);
  EXPECT_EQ(r.gets, 12u);  // keys nobody wrote: each read answers NotFound
  Totals u = run(YcsbMix::u());
  EXPECT_EQ(u.gets, 0u);
  EXPECT_GT(u.puts, 0u);
}

}  // namespace
}  // namespace music::wl
