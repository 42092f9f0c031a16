// Fault taxonomy and deterministic fault schedules (the nemesis script).
//
// The paper's failure model (§III) assumes fail-stop nodes, network
// partitions, and an asynchronous network that may delay, drop or duplicate
// messages.  This header gives each of those a first-class, data-driven
// representation: a FaultSpec names one injected failure (what, where, when,
// for how long), and a Schedule is an ordered list of them — buildable
// programmatically or parsed from a compact script like
//
//   at 2s partition 0|1,2 for 3s; at 4s crash store 1 for 1s
//
// so tests, benches and the CLI can all drive the same failure scenarios.
// The engine that executes a Schedule against a live simulation lives in
// fault/nemesis.h.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace music::fault {

/// What kind of failure a FaultSpec injects.
enum class FaultKind : uint8_t {
  /// Cut all links between two site sets (both directions).
  Partition,
  /// Drop every message on a directed site link (asymmetric partition).
  Blackhole,
  /// Gray link: elevated loss and/or delay on a directed site link.
  GrayLink,
  /// Latency spike: pure delay addition on a directed site link.
  LatencySpike,
  /// Message duplication on a directed site link.
  Duplication,
  /// Crash (and later restart) a store replica.
  CrashStore,
  /// Crash (and later restart) a MUSIC replica.
  CrashMusic,
  /// Bounce a whole site (its store + MUSIC replicas, or the musicd
  /// process): graceful drain, down for `duration`, then back — optionally
  /// onto a binary pinned to a different max wire version (`version`), and
  /// optionally with volatile state wiped (`amnesia`).  This is the
  /// rolling-upgrade step as a first-class fault.
  Restart,
};

/// Stable lowercase name ("partition", "gray_link", "crash_store", ...).
const char* to_string(FaultKind k);

/// One scheduled failure.  Which fields are meaningful depends on `kind`;
/// unused fields keep their defaults.
struct FaultSpec {
  FaultKind kind = FaultKind::Partition;

  /// Absolute sim time the fault begins.
  sim::Time at = 0;
  /// How long it lasts; 0 means "until Nemesis::heal_all()".
  sim::Duration duration = 0;

  // Partition.
  std::set<int> side_a, side_b;

  // Link faults (Blackhole / GrayLink / LatencySpike / Duplication).
  int from_site = -1;
  int to_site = -1;
  /// Apply the link fault in both directions (the `a<>b` script form).
  bool bidirectional = false;
  double loss = 0.0;      // GrayLink extra drop probability
  double delay_ms = 0.0;  // GrayLink / LatencySpike one-way delay add
  double dup_prob = 0.0;  // Duplication probability

  // Crashes.
  int replica = -1;
  /// Restart with volatile state wiped (amnesia) instead of durable state.
  bool amnesia = false;

  // Restart (rolling upgrade).
  /// Which site to bounce.
  int site = -1;
  /// Max wire version the restarted process advertises; 0 = keep whatever
  /// it was running (a plain restart, not an up/downgrade).
  int version = 0;

  /// Human/trace-readable one-liner: "partition {0}|{1,2}", "gray 0>1
  /// loss=0.3 delay=50ms", "crash store 1 (amnesia)".
  std::string describe() const;
};

/// Where and why a script failed to parse.  `line` and `col` are 1-based
/// and point at the offending token (or the start of the offending clause
/// when no single token is to blame).
struct ParseDiag {
  int line = 1;
  int col = 1;
  std::string message;

  /// "line L, col C: message".
  std::string str() const;
};

/// An ordered list of FaultSpecs, built by parse() from the script DSL.
class Schedule {
 public:
  /// Parses the nemesis script DSL.  Clauses are ';'- or newline-separated:
  ///
  ///   clause  := "at" TIME spec ["for" TIME]
  ///   spec    := "partition" SIDES            (SIDES := "0|1,2")
  ///            | "blackhole" LINK
  ///            | "gray" LINK "loss" FLOAT "delay" TIME
  ///            | "spike" LINK "delay" TIME
  ///            | "dup" LINK "prob" FLOAT
  ///            | "crash" ("store"|"music") INT ["amnesia"]
  ///            | "restart" INT ["version" INT] ["amnesia"]
  ///   LINK    := INT ">" INT  (directed)  |  INT "<>" INT  (both ways)
  ///   TIME    := NUMBER ("us"|"ms"|"s")
  ///
  /// "restart" bounces a whole site; its "for TIME" is the downtime before
  /// the site comes back (0 = back immediately).  "version K" restarts it
  /// onto a binary whose max wire version is K (the rolling-upgrade step).
  ///
  /// Returns nullopt on a malformed script; if `error` is non-null it
  /// receives a description of the first problem (with its line/column).
  static std::optional<Schedule> parse(std::string_view script,
                                       std::string* error = nullptr);

  /// Same, but reports the first problem as a structured diagnostic with
  /// 1-based line/column.  Malformed input never crashes and never silently
  /// drops clauses: the first bad clause aborts the whole parse.
  static std::optional<Schedule> parse(std::string_view script,
                                       ParseDiag* diag);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }
  size_t size() const { return specs_.size(); }

  /// The whole schedule, one described clause per line.
  std::string describe() const;

 private:
  std::vector<FaultSpec> specs_;
};

}  // namespace music::fault
