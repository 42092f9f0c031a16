// Determinism goldens for the scenario runner.
//
// One small multi-axis sweep (protocol x mix x seed on the local profile)
// pinned two ways: every cell's checksum must be identical at 1 and 4
// worker threads (thread-count invariance of par::run_worlds), and the
// checksums themselves are pinned so any change to the scenario compiler,
// the workload drivers, or the protocols underneath shows up as a diff.
//
// Regenerate after a deliberate semantic change with:
//   MUSIC_REGEN_GOLDENS=1 ./scenario_golden_test
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

}  // namespace
}  // namespace music::scn
