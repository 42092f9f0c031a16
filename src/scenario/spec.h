// Declarative scenario specs: one parseable text file describing a whole
// evaluation cell grid — workload, topology, protocol(s) and fault schedule.
//
// The axes come from "How to Evaluate Distributed Coordination Systems?"
// (PAPERS.md): read/write mix sweeps, client-count scaling, holder placement
// vs client locality, heterogeneous WAN profiles and diurnal load — none of
// which the paper's figures touch.  A spec composes four blocks:
//
//   scenario mix-sweep
//   seeds 2
//   protocols music,mscp            # sweep axis
//
//   topology {
//     profiles lUs,lUsEu            # sweep axis (Table II names, or "local")
//     holder_site 0                 # -1 = client-local replica preference
//     store_nodes 3
//     versions 1:2:2                # sweep axis: per-site max wire version
//   }
//
//   workload {
//     mixes 0,0.5,1                 # read fraction, sweep axis
//     clients 2,4                   # total client count, sweep axis
//     placement 1,0,2               # per-site weights ("" = spread evenly)
//     keys 64
//     keying zipfian 0.99           # zipfian THETA | uniform | single
//     arrival diurnal 50 period 20s low 0.2   # closed | poisson RATE | diurnal ...
//     value 10
//     warmup 2s
//     measure 10s
//   }
//
//   faults {                        # fault::Schedule DSL, verbatim
//     at 5s partition 0|1,2 for 3s
//   }
//
// Comma-separated fields (protocols, profiles, mixes, clients) are sweep
// AXES: the grid is their cross product, times `seeds` deterministic seeds
// per point.  parse() round-trips with format() — parse(format(s)) == s —
// and reports malformed input as line/column diagnostics, never by crashing
// or silently dropping clauses.  The compiler that turns a spec into
// runnable sim worlds lives in scenario/run.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace music::scn {

/// Where and why a spec failed to parse (1-based line/column).
struct Diag {
  int line = 1;
  int col = 1;
  std::string message;

  /// "line L, col C: message".
  std::string str() const;
};

/// Which system a cell drives through the workload.
enum class Protocol : uint8_t { Music, Mscp, Zab, RaftKv };

/// Stable lowercase name ("music", "mscp", "zab", "raftkv").
const char* to_string(Protocol p);
std::optional<Protocol> protocol_from(std::string_view name);

/// How keys are drawn for each operation.
enum class Keying : uint8_t { Uniform, Zipfian, Single };

/// Arrival process for the load generator.
enum class ArrivalKind : uint8_t { Closed, Poisson, Diurnal };

struct Arrival {
  ArrivalKind kind = ArrivalKind::Closed;
  /// Poisson/diurnal: target ops/sec per client (diurnal: at peak).
  double rate = 0.0;
  /// Diurnal: one day-night cycle length.
  sim::Duration period = 0;
  /// Diurnal: trough rate as a fraction of peak, in [0,1].
  double low = 0.0;

  bool operator==(const Arrival&) const = default;
};

struct TopologyBlock {
  /// WAN delay profile names; sweep axis.  "11" | "lUs" | "lUsEu" | "local".
  std::vector<std::string> profiles{"lUs"};
  /// Replica every client prefers first (coordination placement vs client
  /// locality, after Consus); -1 = each client prefers its own site.
  int holder_site = -1;
  /// Store replicas, interleaved across the 3 sites.
  int store_nodes = 3;
  /// Consistent-hash shard counts of the cluster::Cluster every music/mscp
  /// cell runs on, one MUSIC group per shard; sweep axis.  > 1 is
  /// music/mscp only.
  std::vector<int> shards{1};
  /// Mixed-version fleets (rolling upgrades); sweep axis.  Each entry is a
  /// colon-separated per-site max wire version, e.g. "1:2:2" = site 0 runs
  /// a v1-pinned binary while sites 1-2 run v2.  "" (the default) means
  /// every site runs the current binary's full range.
  std::vector<std::string> versions{""};

  bool operator==(const TopologyBlock&) const = default;
};

struct WorkloadBlock {
  /// Read fraction of the op mix (1.0 = 100% reads); sweep axis.
  std::vector<double> mixes{0.5};
  /// Total logical clients; sweep axis.
  std::vector<int> clients{3};
  /// Per-site client-count weights; empty = spread evenly.  A zero weight
  /// is a zero-client site.
  std::vector<int> placement;
  /// Keyspace size.
  uint64_t keys = 64;
  Keying keying = Keying::Uniform;
  /// Zipfian skew (YCSB's theta), used when keying == Zipfian.
  double zipf_theta = 0.99;
  Arrival arrival;
  /// Value payload bytes per write.
  size_t value_size = 10;
  sim::Duration warmup = sim::sec(2);
  sim::Duration measure = sim::sec(10);

  bool operator==(const WorkloadBlock&) const = default;
};

struct ScenarioSpec {
  std::string name = "unnamed";
  /// Deterministic seeds per grid point (seed values 1..seeds, offset by
  /// base_seed - 1).
  int seeds = 1;
  uint64_t base_seed = 1;
  /// Protocol selector; sweep axis.
  std::vector<Protocol> protocols{Protocol::Music};
  TopologyBlock topology;
  WorkloadBlock workload;
  /// fault::Schedule script, normalized (single spaces, clauses joined
  /// with "; "); empty = fault-free.  Embedded verbatim in the spec file's
  /// faults { } block, one clause per line.
  std::string faults;

  bool operator==(const ScenarioSpec&) const = default;

  /// Parses a spec.  On failure returns nullopt and fills `diag` (if given)
  /// with the first problem's line/column.
  static std::optional<ScenarioSpec> parse(std::string_view text,
                                           Diag* diag = nullptr);

  /// Canonical text form; parse(format()) reproduces *this exactly.
  std::string format() const;

  /// Grid size: |protocols| x |profiles| x |shards| x |versions| x |mixes|
  /// x |clients| x seeds.
  size_t num_cells() const;
};

/// One fully-resolved grid point: every sweep axis collapsed to a single
/// value, plus the world seed.  Self-contained — safe to ship to a worker
/// thread by value.
struct Cell {
  ScenarioSpec point;
  uint64_t seed = 1;

  Protocol protocol() const { return point.protocols.at(0); }
  const std::string& profile() const { return point.topology.profiles.at(0); }
  double mix() const { return point.workload.mixes.at(0); }
  int clients() const { return point.workload.clients.at(0); }
  int shards() const { return point.topology.shards.at(0); }
  const std::string& versions() const { return point.topology.versions.at(0); }

  /// "music/lUs/mix0.5/c4/s1" — stable row id for CSV and test output.
  /// Sharded cells insert a "/sh<N>" segment before the seed, and
  /// mixed-version cells a "/v<spec>" segment (each only when non-default,
  /// so pre-existing labels and their golden checksums are unchanged).
  std::string label() const;
};

/// Expands a spec into its cell grid, protocols-major, seeds-minor.  The
/// order is deterministic and documented (docs/SCENARIOS.md): protocol,
/// then profile, then shards, then versions, then mix, then clients, then
/// seed.
std::vector<Cell> expand(const ScenarioSpec& spec);

/// Splits `total` clients across 3 sites by `weights` (empty = {1,1,1}):
/// largest-remainder apportionment, ties to the lower site index.  Sites
/// with zero weight get zero clients.
std::vector<int> place_clients(int total, const std::vector<int>& weights);

}  // namespace music::scn
