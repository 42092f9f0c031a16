// A crashed MUSIC replica under the scenario runner: every client sits at
// site 0 and site 0's MUSIC replica crashes during warm-up and stays down.
// Clients must fail over to the other sites' replicas for every op —
// acquire polls included — so each cell keeps completing sections and stays
// ECF-clean, on one group (`shards 1`) and on four.
//
// Ops in flight at the crash wait out the 6 s request timeout, and a
// createLockRef whose ack was lost leaves an orphan lockRef at the head of
// its queue until a failure detector removes it (holder_timeout 8 s after
// the detector first sees it, on a 2 s scan).  The measured window runs
// well past both, so a cell completes sections in it unless its polls
// stick to the dead replica.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/run.h"
#include "scenario/spec.h"

namespace music::scn {
namespace {

const char kCrashMusicSpec[] =
    "scenario crash-music\n"
    "seeds 1\n"
    "protocols music,mscp\n"
    "topology {\n"
    "  profiles local\n"
    "  shards 1,4\n"
    "}\n"
    "workload {\n"
    "  mixes 0.5\n"
    "  clients 3\n"
    "  placement 1,0,0\n"
    "  keys 8\n"
    "  keying uniform\n"
    "  arrival closed\n"
    "  value 10\n"
    "  warmup 1s\n"
    "  measure 20s\n"
    "}\n"
    "faults {\n"
    "  at 500ms crash music 0\n"
    "}\n";

TEST(CrashMusicScenario, SiteLocalReplicaDownKeepsCellsLiveAndEcfClean) {
  Diag diag;
  auto spec = ScenarioSpec::parse(kCrashMusicSpec, &diag);
  ASSERT_TRUE(spec.has_value()) << diag.str();
  ASSERT_EQ(validate(*spec), "");

  std::vector<CellOutcome> outcomes = run_sweep(*spec);
  ASSERT_EQ(outcomes.size(), 4u);  // music,mscp x shards 1,4
  for (const CellOutcome& out : outcomes) {
    EXPECT_TRUE(out.ok) << out.label << ": " << out.error;
    EXPECT_EQ(out.violations, 0u) << out.label;
    EXPECT_GT(out.run.completed, 0u) << out.label;
  }
}

}  // namespace
}  // namespace music::scn
