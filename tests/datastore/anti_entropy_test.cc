// Anti-entropy repair tests: divergence that hints and read-repair cannot
// fix converges through the periodic digest exchange.
#include <gtest/gtest.h>

#include "datastore/store.h"
#include "util/world.h"

namespace music::ds {
namespace {

using test::StoreWorld;

StoreConfig no_hints() {
  StoreConfig cfg;
  cfg.hinted_handoff = false;  // force anti-entropy to do the healing
  cfg.read_repair = false;
  cfg.anti_entropy_interval = sim::sec(2);
  return cfg;
}

TEST(AntiEntropy, HealsAReplicaThatMissedWrites) {
  StoreWorld w(1, sim::LatencyProfile::profile_lus(), 3, no_hints());
  w.store.replica(2).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
      // to_string rvalue concats inside coroutine frames.
      std::string k = "k";
      k += std::to_string(i);
      auto st = co_await w.store.replica(0).put(
          k, Cell(Value("v"), i + 1), Consistency::Quorum);
      CO_ASSERT_TRUE(st.ok());
    }
  });
  ASSERT_TRUE(ok);
  w.store.replica(2).set_down(false);
  // Without hints or repair reads the replica stays empty...
  w.sim.run_for(sim::sec(1));
  EXPECT_EQ(w.store.replica(2).table_size(), 0u);
  // ...until anti-entropy runs.
  w.store.start_anti_entropy();
  w.sim.run_for(sim::sec(30));
  EXPECT_EQ(w.store.replica(2).table_size(), 5u);
  for (int i = 0; i < 5; ++i) {
    std::string k = "k";  // stepwise: see note above
    k += std::to_string(i);
    auto c = w.store.replica(2).local_read(k);
    ASSERT_TRUE(c.has_value()) << i;
    EXPECT_EQ(c->ts, i + 1);
  }
}

TEST(AntiEntropy, RepairsBothDirections) {
  StoreWorld w(2, sim::LatencyProfile::profile_lus(), 3, no_hints());
  // Seed divergent state directly: each replica knows something the others
  // do not, plus conflicting versions of a shared key.
  w.store.replica(0).apply_write("only-a", Cell(Value("a"), 1));
  w.store.replica(1).apply_write("only-b", Cell(Value("b"), 1));
  w.store.replica(0).apply_write("shared", Cell(Value("old"), 1));
  w.store.replica(1).apply_write("shared", Cell(Value("new"), 2));
  w.store.start_anti_entropy();
  w.sim.run_for(sim::sec(30));
  for (int i = 0; i < 3; ++i) {
    auto a = w.store.replica(i).local_read("only-a");
    auto b = w.store.replica(i).local_read("only-b");
    auto s = w.store.replica(i).local_read("shared");
    ASSERT_TRUE(a && b && s) << "replica " << i;
    EXPECT_EQ(s->value.data, "new") << "replica " << i;  // LWW winner spreads
  }
}

TEST(AntiEntropy, DoesNotResurrectOlderValues) {
  StoreWorld w(3, sim::LatencyProfile::profile_lus(), 3, no_hints());
  w.store.replica(0).apply_write("k", Cell(Value("stale"), 1));
  w.store.replica(1).apply_write("k", Cell(Value("fresh"), 5));
  w.store.replica(2).apply_write("k", Cell(Value("fresh"), 5));
  w.store.start_anti_entropy();
  w.sim.run_for(sim::sec(30));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.store.replica(i).local_read("k")->value.data, "fresh") << i;
    EXPECT_EQ(w.store.replica(i).local_read("k")->ts, 5) << i;
  }
}

TEST(AntiEntropy, SkipsPartitionedPeersThenCatchesUp) {
  StoreWorld w(4, sim::LatencyProfile::profile_lus(), 3, no_hints());
  w.store.replica(0).apply_write("k", Cell(Value("v"), 9));
  w.net.partition_sites({0}, {1, 2});
  w.store.start_anti_entropy();
  w.sim.run_for(sim::sec(10));
  EXPECT_FALSE(w.store.replica(1).local_read("k").has_value());
  w.net.heal_all_partitions();
  w.sim.run_for(sim::sec(30));
  EXPECT_TRUE(w.store.replica(1).local_read("k").has_value());
  EXPECT_TRUE(w.store.replica(2).local_read("k").has_value());
}

}  // namespace
}  // namespace music::ds
