// The scenario compiler: turns one Cell of a ScenarioSpec grid into a
// ready-to-run sim world (network profile, protocol deployment, placed
// clients, armed nemesis, armed ECF oracle), runs it, and returns a
// CellOutcome; run_sweep fans the whole grid across par::run_worlds.
//
// Every cell is deterministic from its seed: same spec + same seed =>
// bit-identical CellOutcome (and checksum()) at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "sim/network.h"
#include "workload/stats.h"

namespace music::obs {
class Tracer;
}

namespace music::scn {

/// What one cell did.  Plain value, filled on the worker thread.
struct CellOutcome {
  std::string label;   // Cell::label()
  bool ok = false;     // ran to completion with a clean oracle
  std::string error;   // first problem (setup, run, or oracle report)

  wl::RunResult run;       // throughput/latency over the measured window
  uint64_t events = 0;     // sim events executed
  uint64_t msgs = 0;       // net.msgs.sent
  uint64_t wan_msgs = 0;   // net.msgs.wan (the paper's RTT-count currency)
  uint64_t bytes = 0;      // net.bytes.sent
  uint64_t violations = 0; // oracle violations (0 when ok)
  double wall_sec = 0.0;   // host time (NOT in checksum)
  /// Lowest pairwise-negotiated wire version across the fleet at the end of
  /// the run (after any "restart ... version K" faults applied their
  /// upgrade); 0 for cells without wire versions (zab/raftkv) or when some
  /// pair shares no version.  NOT in checksum, so pre-upgrade goldens are
  /// unchanged.
  int fleet_version = 0;

  /// WAN messages per completed operation (the §X-B4 cost metric).
  double wan_per_op() const {
    return run.completed > 0
               ? static_cast<double>(wan_msgs) /
                     static_cast<double>(run.completed)
               : 0.0;
  }

  /// FNV-1a over the deterministic fields (label, op counts, event and
  /// message totals, latency sample count and scaled mean).  Thread-count
  /// and platform invariant; the goldens test pins these.
  uint64_t checksum() const;
};

/// Caps applied to a spec before running (the ctest family runs a reduced
/// grid; the nightly harness runs the spec as written).  0 = no cap.
struct RunOptions {
  size_t threads = 0;            // worker threads (0 = default)
  int max_seeds = 0;             // clamp spec.seeds
  sim::Duration max_warmup = 0;  // clamp workload.warmup
  sim::Duration max_measure = 0; // clamp workload.measure
  size_t max_cells = 0;          // truncate the expanded grid (logged)
  /// Opt-in intra-world parallelism: run each music/mscp cell's world under
  /// the conservative PDES engine with this many site-lane workers (0 =
  /// classic kernel).  Zab/raftkv cells always run classic.  PDES cells
  /// produce checksums that differ from classic ones (per-lane rng streams)
  /// but are bit-identical at any worker count.
  size_t par_sites = 0;
};

/// Spec-level checks beyond the grammar: crash faults name replicas that
/// exist, and crash clauses only combine with protocols whose replicas the
/// nemesis can crash (music/mscp).  Empty string = valid.
std::string validate(const ScenarioSpec& spec);

/// The named WAN profile a spec's topology refers to ("11", "lUs",
/// "lUsEu", or "local" — a fast co-located profile for unit tests).
sim::LatencyProfile profile_by_name(const std::string& name);

/// Builds and runs one cell's world, oracle armed.  Never throws: setup
/// problems come back as ok=false with the error filled.  `par_sites` > 0
/// runs music/mscp cells under PDES (see RunOptions::par_sites).
///
/// With a `tracer` (classic kernel only: par_sites must be 0) the world
/// runs traced, and after the run its totals land in the tracer's registry
/// when the caller set one: the Network, Nemesis and (music/mscp) Cluster
/// exports, `music.s<site>.*` and `client.*` summed over the groups,
/// `sim.events_run`, `sim.now_us`, `run.completed`, `run.failed`,
/// `trace.spans` and `trace.dropped_spans`.  Tracing leaves the schedule,
/// and so checksum(), unchanged.
CellOutcome run_cell(const Cell& cell, size_t par_sites = 0,
                     obs::Tracer* tracer = nullptr);

/// Applies `opt`'s caps to a copy of the spec (reduced grids for ctest).
ScenarioSpec reduced(ScenarioSpec spec, const RunOptions& opt);

/// Expands the (reduced) spec and fans run_cell over par::run_worlds.
/// Outcomes are in expand() order regardless of thread count.
std::vector<CellOutcome> run_sweep(const ScenarioSpec& spec,
                                   const RunOptions& opt = {});

}  // namespace music::scn
