// Replica failures under the scenario runner: each cell must stay live —
// more than 20 completed sections, and more than four completed per
// failed one — and ECF-clean.
//
// Crash music: every client sits at site 0 and site 0's MUSIC replica
// crashes during warm-up and stays down.  Clients must fail over to the
// other sites' replicas for every op — acquire polls included — so each
// cell keeps completing sections, on one group (`shards 1`) and on four.
// Ops in flight at the crash wait out the 6 s request timeout, and a
// createLockRef whose ack was lost leaves an orphan lockRef at the head of
// its queue until a failure detector removes it (holder_timeout 8 s after
// the detector first sees it, on a 2 s scan).  The measured window runs
// well past both, so a cell completes sections in it unless its polls
// stick to the dead replica.
//
// Bounded outages: a store crash, a MUSIC crash and a minority partition
// come and go over a 60 s window, each a few seconds long, so a majority
// is always up — the regime where MUSIC promises liveness (§III).
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

const char kBoundedOutagesSpec[] =
    "scenario bounded-outages\n"
    "seeds 1\n"
    "protocols music\n"
    "topology {\n"
    "  profiles lUs\n"
    "}\n"
    "workload {\n"
    "  mixes 0\n"
    "  clients 6\n"
    "  keys 6\n"
    "  keying uniform\n"
    "  arrival closed\n"
    "  value 10\n"
    "  warmup 2s\n"
    "  measure 60s\n"
    "}\n"
    "faults {\n"
    "  at 10s crash store 1 for 4s\n"
    "  at 28s crash music 2 for 4s\n"
    "  at 46s partition 1|0,2 for 4s\n"
    "}\n";

void expect_cells_live_and_clean(const char* text, size_t cells) {
  Diag diag;
  auto spec = ScenarioSpec::parse(text, &diag);
  ASSERT_TRUE(spec.has_value()) << diag.str();
  ASSERT_EQ(validate(*spec), "");

  std::vector<CellOutcome> outcomes = run_sweep(*spec);
  ASSERT_EQ(outcomes.size(), cells);
  for (const CellOutcome& out : outcomes) {
    EXPECT_TRUE(out.ok) << out.label << ": " << out.error;
    EXPECT_EQ(out.violations, 0u) << out.label;
    EXPECT_GT(out.run.completed, 20u) << out.label;
    EXPECT_GT(static_cast<double>(out.run.completed),
              4.0 * static_cast<double>(out.run.failed))
        << out.label;
  }
}

TEST(CrashMusicScenario, SiteLocalReplicaDownKeepsCellsLiveAndEcfClean) {
  expect_cells_live_and_clean(kCrashMusicSpec, 4);  // music,mscp x shards 1,4
}

TEST(CrashMusicScenario, BoundedOutagesKeepTheSystemServing) {
  expect_cells_live_and_clean(kBoundedOutagesSpec, 1);
}

}  // namespace
}  // namespace music::scn
