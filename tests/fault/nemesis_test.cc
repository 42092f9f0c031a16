// fault:: unit tests: the schedule DSL parser, the nemesis engine's
// inject/heal mechanics against a live network, crash hooks, and the obs
// spans that bracket every injected fault.
#include "fault/nemesis.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace music::fault {
namespace {

TEST(ScheduleParse, FullScriptAllClauseKinds) {
  std::string err;
  auto s = Schedule::parse(
      "at 2s partition 0|1,2 for 3s;"
      "at 4s crash store 1 for 1s;"
      "at 5s crash music 2 amnesia;"
      "at 1500ms blackhole 0>1;"
      "at 6s gray 1<>2 loss 0.3 delay 50ms for 2s;"
      "at 7s spike 0>2 delay 200ms for 500ms;"
      "at 8s dup 2>0 prob 0.25",
      &err);
  ASSERT_TRUE(s.has_value()) << err;
  ASSERT_EQ(s->size(), 7u);
  const auto& v = s->specs();

  EXPECT_EQ(v[0].kind, FaultKind::Partition);
  EXPECT_EQ(v[0].at, sim::sec(2));
  EXPECT_EQ(v[0].duration, sim::sec(3));
  EXPECT_EQ(v[0].side_a, (std::set<int>{0}));
  EXPECT_EQ(v[0].side_b, (std::set<int>{1, 2}));

  EXPECT_EQ(v[1].kind, FaultKind::CrashStore);
  EXPECT_EQ(v[1].replica, 1);
  EXPECT_EQ(v[1].duration, sim::sec(1));
  EXPECT_FALSE(v[1].amnesia);

  EXPECT_EQ(v[2].kind, FaultKind::CrashMusic);
  EXPECT_EQ(v[2].replica, 2);
  EXPECT_TRUE(v[2].amnesia);
  EXPECT_EQ(v[2].duration, 0);  // until heal_all

  EXPECT_EQ(v[3].kind, FaultKind::Blackhole);
  EXPECT_EQ(v[3].at, sim::ms(1500));
  EXPECT_EQ(v[3].from_site, 0);
  EXPECT_EQ(v[3].to_site, 1);
  EXPECT_FALSE(v[3].bidirectional);

  EXPECT_EQ(v[4].kind, FaultKind::GrayLink);
  EXPECT_TRUE(v[4].bidirectional);
  EXPECT_DOUBLE_EQ(v[4].loss, 0.3);
  EXPECT_DOUBLE_EQ(v[4].delay_ms, 50.0);

  EXPECT_EQ(v[5].kind, FaultKind::LatencySpike);
  EXPECT_DOUBLE_EQ(v[5].delay_ms, 200.0);
  EXPECT_EQ(v[5].duration, sim::ms(500));

  EXPECT_EQ(v[6].kind, FaultKind::Duplication);
  EXPECT_DOUBLE_EQ(v[6].dup_prob, 0.25);
}

TEST(ScheduleParse, RejectsMalformedScripts) {
  std::string err;
  EXPECT_FALSE(Schedule::parse("", &err));
  // The string overload carries the line/col prefix of the ParseDiag form.
  EXPECT_EQ(err, "line 1, col 1: empty schedule");
  EXPECT_FALSE(Schedule::parse("partition 0|1", &err));  // missing "at TIME"
  EXPECT_FALSE(Schedule::parse("at 2x partition 0|1", &err));  // bad unit
  EXPECT_FALSE(Schedule::parse("at 2s explode 0", &err));
  EXPECT_NE(err.find("unknown fault"), std::string::npos);
  EXPECT_FALSE(Schedule::parse("at 2s partition 01", &err));   // no '|'
  EXPECT_FALSE(Schedule::parse("at 2s blackhole 0-1", &err));  // bad link
  EXPECT_FALSE(Schedule::parse("at 2s gray 0>1 loss 1.5 delay 1ms", &err));
  EXPECT_FALSE(Schedule::parse("at 2s dup 0>1 prob -0.1", &err));
  EXPECT_FALSE(Schedule::parse("at 2s crash store 1 loudly", &err));
  EXPECT_FALSE(Schedule::parse("at 2s blackhole 1>1", &err));  // self link
}

TEST(ScheduleParse, DescribeMentionsEveryClause) {
  auto s = Schedule::parse(
      "at 2s partition 0|1,2 for 3s; at 4s crash store 1 amnesia");
  ASSERT_TRUE(s.has_value());
  std::string d = s->describe();
  EXPECT_NE(d.find("at 2s partition {0}|{1,2} for 3s"), std::string::npos) << d;
  EXPECT_NE(d.find("at 4s crash store 1 (amnesia)"), std::string::npos) << d;
}

/// A 3-site network with one node per site, plus recording crash hooks.
class NemesisTest : public ::testing::Test {
 protected:
  NemesisTest() : sim_(11), net_(sim_, make_config()) {
    for (int s = 0; s < 3; ++s) nodes_.push_back(net_.add_node(s));
    hooks_.crash_store = [this](int r, bool down, bool amnesia) {
      store_events_.push_back({r, down, amnesia});
    };
    hooks_.crash_music = [this](int r, bool down, bool amnesia) {
      music_events_.push_back({r, down, amnesia});
    };
  }

  static sim::NetworkConfig make_config() {
    sim::NetworkConfig c;
    c.profile = sim::LatencyProfile::uniform(3, 20.0);
    c.jitter_frac = 0.0;
    return c;
  }

  struct CrashEvent {
    int replica;
    bool down;
    bool amnesia;
  };

  sim::Simulation sim_;
  sim::Network net_;
  std::vector<sim::NodeId> nodes_;
  NemesisHooks hooks_;
  std::vector<CrashEvent> store_events_;
  std::vector<CrashEvent> music_events_;
};

TEST_F(NemesisTest, ArmedScheduleFiresAndHealsOnTime) {
  Nemesis nem(sim_, net_, hooks_);
  auto s = Schedule::parse(
      "at 1s partition 0|1,2 for 2s; at 2s crash store 1 for 1s");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);

  // Probe deliverability around the fault windows.
  std::vector<std::pair<sim::Time, bool>> probes;
  for (sim::Time t : {sim::ms(500), sim::ms(1500), sim::ms(2500),
                      sim::ms(3500)}) {
    sim_.schedule_at(t, [this, &probes] {
      probes.emplace_back(sim_.now(), net_.deliverable(nodes_[0], nodes_[1]));
    });
  }
  sim_.run_until(sim::sec(5));

  ASSERT_EQ(probes.size(), 4u);
  EXPECT_TRUE(probes[0].second);   // before the partition
  EXPECT_FALSE(probes[1].second);  // during
  EXPECT_FALSE(probes[2].second);  // still during (2s window)
  EXPECT_TRUE(probes[3].second);   // healed at 3s

  ASSERT_EQ(store_events_.size(), 2u);
  EXPECT_EQ(store_events_[0].replica, 1);
  EXPECT_TRUE(store_events_[0].down);
  EXPECT_FALSE(store_events_[1].down);  // restarted at 3s

  EXPECT_EQ(nem.counters().partitions, 1u);
  EXPECT_EQ(nem.counters().store_crashes, 1u);
  EXPECT_EQ(nem.counters().heals, 2u);
  EXPECT_EQ(nem.open_faults(), 0u);
}

TEST_F(NemesisTest, HealAllEndsOpenEndedFaults) {
  Nemesis nem(sim_, net_, hooks_);
  // No "for" clause: every fault is open-ended.
  auto s = Schedule::parse(
      "at 0s partition 0|1,2; at 0s blackhole 1>2; at 0s crash music 0");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);
  sim_.run_until(sim::ms(10));
  EXPECT_EQ(nem.open_faults(), 3u);
  EXPECT_FALSE(net_.deliverable(nodes_[0], nodes_[1]));
  EXPECT_FALSE(net_.deliverable(nodes_[1], nodes_[2]));
  ASSERT_EQ(music_events_.size(), 1u);
  EXPECT_TRUE(music_events_[0].down);

  nem.heal_all();
  EXPECT_EQ(nem.open_faults(), 0u);
  EXPECT_TRUE(net_.deliverable(nodes_[0], nodes_[1]));
  EXPECT_TRUE(net_.deliverable(nodes_[1], nodes_[2]));
  ASSERT_EQ(music_events_.size(), 2u);
  EXPECT_FALSE(music_events_[1].down);
  EXPECT_EQ(net_.active_partitions(), 0u);
  EXPECT_EQ(net_.active_link_faults(), 0u);
}

TEST_F(NemesisTest, BidirectionalLinkFaultInstallsBothDirections) {
  Nemesis nem(sim_, net_, hooks_);
  FaultSpec spec;
  spec.kind = FaultKind::Blackhole;
  spec.from_site = 0;
  spec.to_site = 1;
  spec.bidirectional = true;
  nem.inject(spec);
  EXPECT_EQ(net_.active_link_faults(), 2u);
  EXPECT_FALSE(net_.deliverable(nodes_[0], nodes_[1]));
  EXPECT_FALSE(net_.deliverable(nodes_[1], nodes_[0]));
  nem.heal_all();
  EXPECT_EQ(net_.active_link_faults(), 0u);
}

TEST_F(NemesisTest, AmnesiaFlagReachesTheCrashHook) {
  Nemesis nem(sim_, net_, hooks_);
  auto s = Schedule::parse("at 0s crash store 2 amnesia for 1s");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);
  sim_.run_until(sim::sec(2));
  ASSERT_EQ(store_events_.size(), 2u);
  EXPECT_TRUE(store_events_[0].amnesia);
  EXPECT_TRUE(store_events_[1].amnesia);  // restart knows it was amnesiac
}

TEST_F(NemesisTest, EveryFaultIsBracketedByAnObsSpan) {
  obs::Tracer tracer;
  sim_.set_tracer(&tracer);
  Nemesis nem(sim_, net_, hooks_);
  auto s = Schedule::parse(
      "at 1s partition 0|1,2 for 1s;"
      "at 2s gray 0>1 loss 0.5 delay 10ms for 1s;"
      "at 3s crash music 1 for 1s");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);
  sim_.run_until(sim::sec(6));

  std::vector<const obs::Span*> fault_spans;
  for (const auto& sp : tracer.spans()) {
    if (std::string_view(sp.name).substr(0, 6) == "fault.") {
      fault_spans.push_back(&sp);
    }
  }
  ASSERT_EQ(fault_spans.size(), 3u);
  EXPECT_EQ(std::string_view(fault_spans[0]->name), "fault.partition");
  EXPECT_EQ(fault_spans[0]->begin_us, sim::sec(1));
  EXPECT_EQ(fault_spans[0]->end_us, sim::sec(2));
  EXPECT_NE(fault_spans[0]->detail.find("partition {0}|{1,2}"),
            std::string::npos);
  EXPECT_EQ(std::string_view(fault_spans[1]->name), "fault.gray_link");
  EXPECT_EQ(std::string_view(fault_spans[2]->name), "fault.crash_music");
  for (const auto* sp : fault_spans) EXPECT_TRUE(sp->finished());
}

TEST(ScheduleParse, RestartClauseVariants) {
  auto s = Schedule::parse(
      "at 1s restart 2\n"
      "at 2s restart 0 version 1 for 500ms\n"
      "at 3s restart 1 version 2 amnesia for 1s\n"
      "at 4s restart 1 amnesia");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->size(), 4u);
  EXPECT_EQ(s->specs()[0].kind, FaultKind::Restart);
  EXPECT_EQ(s->specs()[0].site, 2);
  EXPECT_EQ(s->specs()[0].version, 0);  // plain bounce, no version change
  EXPECT_FALSE(s->specs()[0].amnesia);
  EXPECT_EQ(s->specs()[1].site, 0);
  EXPECT_EQ(s->specs()[1].version, 1);  // downgrade step
  EXPECT_EQ(s->specs()[1].duration, sim::ms(500));
  EXPECT_EQ(s->specs()[2].version, 2);
  EXPECT_TRUE(s->specs()[2].amnesia);
  EXPECT_TRUE(s->specs()[3].amnesia);

  std::string d = s->describe();
  EXPECT_NE(d.find("restart site 0 version=1"), std::string::npos);
  EXPECT_NE(d.find("(amnesia)"), std::string::npos);
}

TEST(ScheduleParse, RejectsMalformedRestartClauses) {
  std::string err;
  EXPECT_FALSE(Schedule::parse("at 1s restart", &err));
  EXPECT_FALSE(Schedule::parse("at 1s restart -1", &err));
  EXPECT_FALSE(Schedule::parse("at 1s restart 0 version", &err));
  EXPECT_FALSE(Schedule::parse("at 1s restart 0 version 0", &err));
  EXPECT_FALSE(Schedule::parse("at 1s restart 0 version x", &err));
  EXPECT_FALSE(Schedule::parse("at 1s restart 0 amnesia version 2", &err));
  EXPECT_FALSE(Schedule::parse("at 1s restart 0 loudly", &err));
}

TEST_F(NemesisTest, RestartFaultDrivesTheSiteHook) {
  struct RestartEvent {
    int site;
    bool down;
    bool amnesia;
    int version;
  };
  std::vector<RestartEvent> events;
  hooks_.restart_site = [&events](int site, bool down, bool amnesia,
                                  int version) {
    events.push_back({site, down, amnesia, version});
  };
  Nemesis nem(sim_, net_, hooks_);
  auto s = Schedule::parse("at 1s restart 1 version 2 for 500ms");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);
  sim_.run_until(sim::sec(3));

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].site, 1);
  EXPECT_TRUE(events[0].down);
  EXPECT_EQ(events[1].site, 1);
  EXPECT_FALSE(events[1].down);      // back after the 500ms downtime
  EXPECT_EQ(events[1].version, 2);   // restarted onto the v2 binary
  EXPECT_EQ(nem.counters().restarts, 1u);
  EXPECT_EQ(nem.open_faults(), 0u);
}

TEST_F(NemesisTest, OpenEndedRestartHealsViaHealAll) {
  int backs = 0;
  hooks_.restart_site = [&backs](int, bool down, bool, int) {
    if (!down) ++backs;
  };
  Nemesis nem(sim_, net_, hooks_);
  auto s = Schedule::parse("at 0s restart 2 version 1 amnesia");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);
  sim_.run_until(sim::ms(10));
  EXPECT_EQ(nem.open_faults(), 1u);
  EXPECT_EQ(backs, 0);
  nem.heal_all();
  EXPECT_EQ(backs, 1);
  EXPECT_EQ(nem.open_faults(), 0u);
}

TEST_F(NemesisTest, MetricsExportCoversCounters) {
  obs::MetricsRegistry reg;
  Nemesis nem(sim_, net_, hooks_);
  auto s = Schedule::parse("at 0s partition 0|1,2 for 1s");
  ASSERT_TRUE(s.has_value());
  nem.arm(*s);
  sim_.run_until(sim::sec(2));
  nem.export_metrics(reg);
  EXPECT_EQ(reg.counter("nemesis.partitions").value, 1u);
  EXPECT_EQ(reg.counter("nemesis.heals").value, 1u);
  EXPECT_EQ(reg.counter("nemesis.open").value, 0u);
}

}  // namespace
}  // namespace music::fault
