// Determinism goldens for the scenario runner's shards axis.
//
// A shards-axis sweep (music/mscp x shards 1,4 on the local profile) pinned
// the same two ways as tests/scenario/scenario_golden_test.cc: every cell's
// checksum must be identical at 1 and 4 worker threads (a sharded world —
// ring routing, epoch gate, parallel batch fan-out and all — is still a
// pure function of its seed), and the checksums are pinned so a change to
// the ring layout, the admission gate or the cluster client's retry
// discipline shows up as a diff.
//
// Regenerate after a deliberate semantic change with:
//   MUSIC_REGEN_GOLDENS=1 ./cluster_golden_test
// and paste the printed table over kGoldens below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "scenario/run.h"
#include "scenario/spec.h"

namespace music::scn {
namespace {

const char kSweep[] =
    "scenario cluster-golden\n"
    "seeds 2\n"
    "protocols music,mscp\n"
    "topology {\n"
    "  profiles local\n"
    "  shards 1,4\n"
    "}\n"
    "workload {\n"
    "  mixes 0\n"
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

// Re-pinned when every music/mscp cell moved onto cluster::Cluster (the
// sh1 rows now run one group; see scenario_golden_test.cc, which pins the
// same sh1 checksums) and onto per-client rng streams.  Regenerate (see
// header comment) when the runner's semantics deliberately change.
constexpr Golden kGoldens[] = {
    {"music/local/mix0/c3/s1", 0x72264f9ca033fd34ull},
    {"music/local/mix0/c3/s2", 0xa589be71e371eec5ull},
    {"music/local/mix0/c3/sh4/s1", 0x0e4a5e031e962ec5ull},
    {"music/local/mix0/c3/sh4/s2", 0xbd414e7d38eda879ull},
    {"mscp/local/mix0/c3/s1", 0xd63f5c227f3e53d6ull},
    {"mscp/local/mix0/c3/s2", 0x4e12aa38309243e8ull},
    {"mscp/local/mix0/c3/sh4/s1", 0xfa78cd5a908763e7ull},
    {"mscp/local/mix0/c3/sh4/s2", 0x22b6287ebf61a0baull},
};

std::vector<CellOutcome> sweep(size_t threads) {
  auto spec = ScenarioSpec::parse(kSweep);
  EXPECT_TRUE(spec.has_value());
  RunOptions opt;
  opt.threads = threads;
  return run_sweep(*spec, opt);
}

TEST(ClusterGolden, ShardedChecksumsMatchPinnedTableAndThreadCount) {
  std::vector<CellOutcome> one = sweep(1);
  std::vector<CellOutcome> four = sweep(4);
  ASSERT_EQ(one.size(), std::size(kGoldens));
  ASSERT_EQ(four.size(), one.size());

  bool regen = std::getenv("MUSIC_REGEN_GOLDENS") != nullptr;
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(one[i].ok) << one[i].label << ": " << one[i].error;
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

}  // namespace
}  // namespace music::scn
