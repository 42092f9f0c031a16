// Network model tests: Table II latency profiles, delays, drops, partitions
// and node crashes.
#include "sim/network.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace music::sim {
namespace {

TEST(LatencyProfile, Table2ProfilesMatchThePaper) {
  auto p11 = LatencyProfile::profile_11();
  EXPECT_EQ(p11.name, "11");
  EXPECT_DOUBLE_EQ(p11.rtt_ms[0][1], 0.2);     // Ohio-Ohio
  EXPECT_DOUBLE_EQ(p11.rtt_ms[0][2], 15.14);   // Ohio-N.Virginia
  EXPECT_DOUBLE_EQ(p11.rtt_ms[1][2], 15.14);

  auto lus = LatencyProfile::profile_lus();
  EXPECT_DOUBLE_EQ(lus.rtt_ms[0][1], 53.79);   // Ohio-N.Calif
  EXPECT_DOUBLE_EQ(lus.rtt_ms[0][2], 72.14);   // Ohio-Oregon
  EXPECT_DOUBLE_EQ(lus.rtt_ms[1][2], 24.2);    // N.Calif-Oregon

  auto eu = LatencyProfile::profile_luseu();
  EXPECT_DOUBLE_EQ(eu.rtt_ms[0][1], 53.79);
  EXPECT_DOUBLE_EQ(eu.rtt_ms[0][2], 100.56);
  EXPECT_DOUBLE_EQ(eu.rtt_ms[1][2], 150.74);   // N.Calif-Frankfurt

  EXPECT_EQ(LatencyProfile::table2().size(), 3u);
}

TEST(LatencyProfile, MatrixIsSymmetricWithLocalDiagonal) {
  for (const auto& p : LatencyProfile::table2()) {
    for (int i = 0; i < p.num_sites(); ++i) {
      EXPECT_DOUBLE_EQ(p.rtt_ms[static_cast<size_t>(i)][static_cast<size_t>(i)], 0.2);
      for (int j = 0; j < p.num_sites(); ++j) {
        EXPECT_DOUBLE_EQ(p.rtt_ms[static_cast<size_t>(i)][static_cast<size_t>(j)],
                         p.rtt_ms[static_cast<size_t>(j)][static_cast<size_t>(i)]);
      }
    }
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(7), net_(sim_, make_config()) {
    a_ = net_.add_node(0);
    b_ = net_.add_node(1);
    c_ = net_.add_node(2);
    a2_ = net_.add_node(0);
  }

  static NetworkConfig make_config() {
    NetworkConfig c;
    c.profile = LatencyProfile::profile_lus();
    c.jitter_frac = 0.0;  // exact delays for assertions
    return c;
  }

  Simulation sim_;
  Network net_;
  NodeId a_, b_, c_, a2_;
};

TEST_F(NetworkTest, OneWayDelayIsHalfRtt) {
  // Ohio -> N.Calif: RTT 53.79ms -> one way 26.895ms (+ tiny bandwidth).
  Duration d = net_.sample_delay(a_, b_, 0);
  EXPECT_NEAR(static_cast<double>(d), 26895.0, 1.0);
  // Same-site: 0.2ms RTT -> 0.1ms.
  Duration local = net_.sample_delay(a_, a2_, 0);
  EXPECT_NEAR(static_cast<double>(local), 100.0, 1.0);
}

TEST_F(NetworkTest, BandwidthTermGrowsWithMessageSize) {
  Duration small = net_.sample_delay(a_, b_, 100);
  Duration large = net_.sample_delay(a_, b_, 256 * 1024);
  // 256KB over 1Gbps ~ 2.1ms extra.
  EXPECT_GT(large, small + 1500);
}

TEST_F(NetworkTest, MessageDeliveredAfterDelay) {
  Time delivered = -1;
  net_.send(a_, b_, 0, [&] { delivered = sim_.now(); });
  sim_.run_until_idle();
  EXPECT_NEAR(static_cast<double>(delivered), 26895.0, 1.0);
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(net_.messages_dropped(), 0u);
}

TEST_F(NetworkTest, CrashedNodeDropsTraffic) {
  net_.set_node_down(b_, true);
  bool delivered = false;
  net_.send(a_, b_, 0, [&] { delivered = true; });
  sim_.run_until_idle();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.messages_dropped(), 1u);

  net_.set_node_down(b_, false);
  net_.send(a_, b_, 0, [&] { delivered = true; });
  sim_.run_until_idle();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, CrashDuringFlightDropsAtDelivery) {
  bool delivered = false;
  net_.send(a_, b_, 0, [&] { delivered = true; });
  // Take the destination down while the message is in flight.
  sim_.schedule(1000, [&] { net_.set_node_down(b_, true); });
  sim_.run_until_idle();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, PartitionBlocksCrossTrafficOnly) {
  net_.partition_sites({0}, {1, 2});
  EXPECT_FALSE(net_.deliverable(a_, b_));
  EXPECT_FALSE(net_.deliverable(c_, a_));
  EXPECT_TRUE(net_.deliverable(b_, c_));   // same side
  EXPECT_TRUE(net_.deliverable(a_, a2_));  // same site

  bool crossed = false;
  bool same_side = false;
  net_.send(a_, b_, 0, [&] { crossed = true; });
  net_.send(b_, c_, 0, [&] { same_side = true; });
  sim_.run_until_idle();
  EXPECT_FALSE(crossed);
  EXPECT_TRUE(same_side);

  net_.heal_all_partitions();
  net_.send(a_, b_, 0, [&] { crossed = true; });
  sim_.run_until_idle();
  EXPECT_TRUE(crossed);
}

TEST_F(NetworkTest, PartitionsStackInsteadOfReplacing) {
  // Regression: partition_sites used to silently REPLACE the active
  // partition, so the second call below would have reopened 0<->1.
  PartitionId p01 = net_.partition_sites({0}, {1});
  PartitionId p12 = net_.partition_sites({1}, {2});
  EXPECT_EQ(net_.active_partitions(), 2u);
  EXPECT_FALSE(net_.deliverable(a_, b_));  // first partition still holds
  EXPECT_FALSE(net_.deliverable(b_, c_));
  EXPECT_TRUE(net_.deliverable(a_, c_));  // no partition separates 0 and 2

  // Healing is per-id: dropping 1|2 must not heal 0|1.
  net_.heal_partition(p12);
  EXPECT_FALSE(net_.deliverable(a_, b_));
  EXPECT_TRUE(net_.deliverable(b_, c_));
  net_.heal_partition(p01);
  EXPECT_TRUE(net_.deliverable(a_, b_));
  EXPECT_EQ(net_.active_partitions(), 0u);
}

TEST_F(NetworkTest, HealAllPartitionsHealsEveryStackedPartition) {
  net_.partition_sites({0}, {1});
  net_.partition_sites({0}, {2});
  EXPECT_EQ(net_.active_partitions(), 2u);
  net_.heal_all_partitions();
  EXPECT_EQ(net_.active_partitions(), 0u);
  EXPECT_TRUE(net_.deliverable(a_, b_));
  EXPECT_TRUE(net_.deliverable(a_, c_));
}

TEST_F(NetworkTest, BlackholeIsDirected) {
  LinkFault f;
  f.blackhole = true;
  LinkFaultId id = net_.add_link_fault(0, 1, f);
  EXPECT_FALSE(net_.deliverable(a_, b_));
  EXPECT_TRUE(net_.deliverable(b_, a_));  // reverse direction untouched

  bool forward = false, backward = false;
  net_.send(a_, b_, 0, [&] { forward = true; });
  net_.send(b_, a_, 0, [&] { backward = true; });
  sim_.run_until_idle();
  EXPECT_FALSE(forward);
  EXPECT_TRUE(backward);
  EXPECT_EQ(net_.link_fault_drops(), 0u);  // blackhole drops at deliverable()

  net_.remove_link_fault(id);
  net_.send(a_, b_, 0, [&] { forward = true; });
  sim_.run_until_idle();
  EXPECT_TRUE(forward);
}

TEST_F(NetworkTest, GrayLinkDropsRoughlyItsLossFraction) {
  LinkFault f;
  f.extra_drop = 0.5;
  net_.add_link_fault(0, 1, f);
  int delivered = 0;
  const int kMsgs = 2000;
  for (int i = 0; i < kMsgs; ++i) {
    net_.send(a_, b_, 0, [&] { ++delivered; });
  }
  sim_.run_until_idle();
  EXPECT_GT(delivered, kMsgs / 2 - 200);
  EXPECT_LT(delivered, kMsgs / 2 + 200);
  EXPECT_EQ(net_.link_fault_drops(),
            static_cast<uint64_t>(kMsgs - delivered));
}

TEST_F(NetworkTest, LatencySpikeAddsDelay) {
  LinkFault f;
  f.extra_delay_ms = 100.0;
  net_.add_link_fault(0, 1, f);
  Time delivered = -1;
  net_.send(a_, b_, 0, [&] { delivered = sim_.now(); });
  sim_.run_until_idle();
  // Base one-way 26.895ms + 100ms spike.
  EXPECT_NEAR(static_cast<double>(delivered), 126895.0, 1.0);
  // The reverse direction is unaffected.
  net_.send(b_, a_, 0, [&] { delivered = sim_.now(); });
  Time t0 = sim_.now();
  sim_.run_until_idle();
  EXPECT_NEAR(static_cast<double>(sim_.now() - t0), 26895.0, 1.0);
}

TEST_F(NetworkTest, DuplicationIsDedupedAtTheEndpoint) {
  // The endpoint continuations are single-shot RPC promises, so the network
  // models receiver-side dedup: the payload fires exactly once, at the
  // earlier of the two sampled arrivals (duplication shows up as early or
  // reordered delivery, never as a double-invoked continuation).
  LinkFault f;
  f.dup_prob = 1.0;
  net_.add_link_fault(0, 1, f);
  int deliveries = 0;
  Time delivered = -1;
  net_.send(a_, b_, 0, [&] {
    ++deliveries;
    delivered = sim_.now();
  });
  sim_.run_until_idle();
  EXPECT_EQ(deliveries, 1);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(net_.messages_sent(), 1u);  // a dup is not a send
  EXPECT_EQ(net_.duplicates_delivered(), 1u);
}

TEST_F(NetworkTest, ComposedFaultsOnOneLink) {
  // A gray link and a latency spike on the same pair compose: delays add,
  // and a blackhole added on top dominates both.
  LinkFault spike;
  spike.extra_delay_ms = 50.0;
  net_.add_link_fault(0, 1, spike);
  LinkFault spike2;
  spike2.extra_delay_ms = 25.0;
  net_.add_link_fault(0, 1, spike2);
  Time delivered = -1;
  net_.send(a_, b_, 0, [&] { delivered = sim_.now(); });
  sim_.run_until_idle();
  EXPECT_NEAR(static_cast<double>(delivered), 26895.0 + 75000.0, 1.0);

  LinkFault hole;
  hole.blackhole = true;
  LinkFaultId id = net_.add_link_fault(0, 1, hole);
  EXPECT_FALSE(net_.deliverable(a_, b_));
  net_.remove_link_fault(id);
  EXPECT_TRUE(net_.deliverable(a_, b_));
  net_.clear_link_faults();
  EXPECT_EQ(net_.active_link_faults(), 0u);
}

TEST(NetworkDrops, DropProbabilityLosesRoughlyThatFraction) {
  Simulation s(11);
  NetworkConfig cfg;
  cfg.profile = LatencyProfile::uniform(2, 10.0);
  cfg.drop_prob = 0.3;
  Network net(s, cfg);
  NodeId a = net.add_node(0);
  NodeId b = net.add_node(1);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) net.send(a, b, 0, [&] { ++delivered; });
  s.run_until_idle();
  EXPECT_NEAR(delivered, 1400, 100);
}

TEST(NetworkJitter, JitterVariesDelays) {
  Simulation s(13);
  NetworkConfig cfg;
  cfg.profile = LatencyProfile::profile_lus();
  cfg.jitter_frac = 0.02;
  Network net(s, cfg);
  NodeId a = net.add_node(0);
  NodeId b = net.add_node(1);
  Duration d1 = net.sample_delay(a, b, 0);
  bool varied = false;
  for (int i = 0; i < 50; ++i) {
    if (net.sample_delay(a, b, 0) != d1) varied = true;
  }
  EXPECT_TRUE(varied);
  // Bounded by +/-2%.
  for (int i = 0; i < 50; ++i) {
    double d = static_cast<double>(net.sample_delay(a, b, 0));
    EXPECT_GE(d, 26895.0 * 0.975);
    EXPECT_LE(d, 26895.0 * 1.025);
  }
}

}  // namespace
}  // namespace music::sim
