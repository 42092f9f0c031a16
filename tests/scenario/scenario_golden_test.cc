// Determinism goldens for the scenario runner.
//
// One small multi-axis sweep (protocol x mix x seed on the local profile)
// pinned two ways: every cell's checksum must be identical at 1 and 4
// worker threads (thread-count invariance of par::run_worlds), and the
// checksums themselves are pinned so any change to the scenario compiler,
// the workload drivers, or the protocols underneath shows up as a diff.
//
// A traced run must schedule exactly like an untraced one, so tracing a
// cell (bench_scenarios --trace-out) shows the run the goldens pin.
//
// Regenerate after a deliberate semantic change with:
//   MUSIC_REGEN_GOLDENS=1 ./scenario_golden_test
// and paste the printed table over kGoldens below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/run.h"
#include "scenario/spec.h"

namespace music::scn {
namespace {

const char kSweep[] =
    "scenario golden\n"
    "seeds 2\n"
    "protocols music,mscp\n"
    "topology {\n"
    "  profiles local\n"
    "}\n"
    "workload {\n"
    "  mixes 0,1\n"
    "  clients 3\n"
    "  keys 8\n"
    "  keying uniform\n"
    "  arrival closed\n"
    "  value 10\n"
    "  warmup 500ms\n"
    "  measure 2s\n"
    "}\n";

struct Golden {
  const char* label;
  uint64_t checksum;
};

// Re-pinned when music/mscp cells moved onto cluster::Cluster (`shards 1`
// is one group): each op adds routing-hop events, the logical clients share
// three per-site core clients instead of one MusicClient each, and every
// client draws keys from its own rng stream.  Regenerate (see header
// comment) when the runner's semantics deliberately change.
constexpr Golden kGoldens[] = {
    {"music/local/mix0/c3/s1", 0x72264f9ca033fd34ull},
    {"music/local/mix0/c3/s2", 0xa589be71e371eec5ull},
    {"music/local/mix1/c3/s1", 0x49babad81e5dcc9eull},
    {"music/local/mix1/c3/s2", 0x422ca16d4a850ca4ull},
    {"mscp/local/mix0/c3/s1", 0xd63f5c227f3e53d6ull},
    {"mscp/local/mix0/c3/s2", 0x4e12aa38309243e8ull},
    {"mscp/local/mix1/c3/s1", 0xdf2e9f8e2442dde8ull},
    {"mscp/local/mix1/c3/s2", 0x2f907691d536007aull},
};

std::vector<CellOutcome> sweep(size_t threads) {
  auto spec = ScenarioSpec::parse(kSweep);
  EXPECT_TRUE(spec.has_value());
  RunOptions opt;
  opt.threads = threads;
  return run_sweep(*spec, opt);
}

TEST(ScenarioGolden, ChecksumsMatchPinnedTableAndAreThreadCountInvariant) {
  std::vector<CellOutcome> one = sweep(1);
  std::vector<CellOutcome> four = sweep(4);
  ASSERT_EQ(one.size(), std::size(kGoldens));
  ASSERT_EQ(four.size(), one.size());

  bool regen = std::getenv("MUSIC_REGEN_GOLDENS") != nullptr;
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(one[i].ok) << one[i].label << ": " << one[i].error;
    // Thread-count invariance: same cell, same bits, any worker count.
    EXPECT_EQ(one[i].label, four[i].label);
    EXPECT_EQ(one[i].checksum(), four[i].checksum()) << one[i].label;

    if (regen) {
      std::printf("    {\"%s\", 0x%016llxull},\n", one[i].label.c_str(),
                  static_cast<unsigned long long>(one[i].checksum()));
      continue;
    }
    EXPECT_EQ(one[i].label, kGoldens[i].label);
    EXPECT_EQ(one[i].checksum(), kGoldens[i].checksum) << one[i].label;
  }
}

// The shape of scenarios/faults_partition.scn under --ctest: one faulted
// music cell whose three faults fire in the drain tail.
const char kFaultedCell[] =
    "scenario traced\n"
    "seeds 1\n"
    "protocols music\n"
    "topology {\n"
    "  profiles lUs\n"
    "}\n"
    "workload {\n"
    "  mixes 0.5\n"
    "  clients 4\n"
    "  keys 8\n"
    "  keying uniform\n"
    "  arrival closed\n"
    "  value 10\n"
    "  warmup 1s\n"
    "  measure 3s\n"
    "}\n"
    "faults {\n"
    "  at 3s partition 0|1,2 for 2s\n"
    "  at 5s gray 0<>1 loss 0.2 delay 20ms for 4s\n"
    "  at 8s crash store 1 for 2s\n"
    "}\n";

TEST(ScenarioTrace, TracedCellKeepsItsChecksumAndExportsTheRun) {
  auto spec = ScenarioSpec::parse(kFaultedCell);
  ASSERT_TRUE(spec.has_value());
  std::vector<Cell> cells = expand(*spec);
  ASSERT_EQ(cells.size(), 1u);

  CellOutcome plain = run_cell(cells[0]);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  tracer.set_registry(&metrics);
  CellOutcome traced = run_cell(cells[0], 0, &tracer);
  ASSERT_TRUE(plain.ok) << plain.error;
  ASSERT_TRUE(traced.ok) << traced.error;
  EXPECT_EQ(traced.checksum(), plain.checksum());

  // One finished fault.* span per faults clause.
  uint64_t fault_spans = 0;
  for (const obs::Span& s : tracer.spans()) {
    if (std::string_view(s.name).substr(0, 6) != "fault.") continue;
    ++fault_spans;
    EXPECT_TRUE(s.finished()) << s.name << " " << s.detail;
  }
  EXPECT_EQ(fault_spans, 3u);

  auto value = [&metrics](const std::string& name) -> uint64_t {
    auto it = metrics.counters().find(name);
    EXPECT_NE(it, metrics.counters().end()) << name << " not exported";
    return it == metrics.counters().end() ? 0 : it->second.value;
  };
  EXPECT_EQ(value("net.msgs.wan"), traced.wan_msgs);
  EXPECT_EQ(value("nemesis.partitions"), 1u);
  EXPECT_EQ(value("nemesis.link_faults"), 1u);
  EXPECT_EQ(value("nemesis.crashes.store"), 1u);
  EXPECT_EQ(value("nemesis.heals"), 3u);
  EXPECT_EQ(value("cluster.shards"), 1u);
  EXPECT_GT(value("music.s0.critical_puts"), 0u);
  EXPECT_GT(value("client.attempts"), 0u);
  EXPECT_EQ(value("sim.events_run"), traced.events);
  EXPECT_EQ(value("run.completed"), traced.run.completed);
  EXPECT_EQ(value("trace.spans"), tracer.spans().size());

  // Tracing is unsupported under PDES: the cell refuses before running.
  obs::Tracer pdes_tracer;
  CellOutcome refused = run_cell(cells[0], 2, &pdes_tracer);
  EXPECT_FALSE(refused.ok);
  EXPECT_TRUE(pdes_tracer.spans().empty());
}

}  // namespace
}  // namespace music::scn
