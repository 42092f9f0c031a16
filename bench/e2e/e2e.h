// bench_e2e: the repository's end-to-end benchmark (bench/e2e/README.md).
//
// Shared pieces of the workload runners: options, the metric sink, the
// generator-side correctness check, the op coroutine every workload drives
// through api::ClientApi, the bench-side trace, and host probes.  The
// benchmark reaches each layer only through public functions; nothing here
// reaches into src/ internals.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/client_api.h"
#include "common/types.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace music::e2e {

/// The four workloads, in run order.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cluster-16", "wan-contended", "wan-readmostly", "tcp-loopback"};
  return names;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the main measured phase in host seconds on the reference
  /// host.  Sim windows scale with it (so the same value always simulates
  /// the same window); the tcp phases scale with it directly.
  double seconds = 25.0;
  /// Short fixed-size runs for the ctest smoke.
  bool smoke = false;
  /// Traced run: bench-side spans (and, in sim worlds, the obs tracer and
  /// the ECF oracle) are recorded and written as a Chrome trace here.
  std::string trace_path;
  /// Index of the workload (the Chrome trace pid).
  int index = 0;
  std::string musicd;
};

/// Metrics in report order: name -> (value, unit).
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }
  double get(const std::string& name) const;

 private:
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// Runs one workload in this process; false when it could not run at all
/// (the metrics then carry no results).
bool run_sim_workload(const Options& opt, MetricSet& out);
bool run_tcp_workload(const Options& opt, MetricSet& out);

// ---- Correctness ------------------------------------------------------------

/// ECF latest-state, checked by the generator.  Sections on a key are
/// mutually exclusive, so a section's criticalGet must return the value of
/// the last acked criticalPut on that key (NotFound before the first).  Each
/// put writes a fresh 10-byte value: 4 hex digits of the key's hash and a
/// 6-digit base-36 per-key version.  A put that failed leaves the key
/// ambiguous between its value and the last acked one until the next read.
/// An eventual read must return some value already attempted on that key.
class LatestStateCheck {
 public:
  Value next_value(const Key& key);
  void on_put(const Key& key, const Value& v, bool acked);
  void on_critical_get(const Key& key, const Result<Value>& r);
  void on_read(const Key& key, const Result<Value>& r);
  uint64_t violations() const { return violations_; }

 private:
  struct KeyState {
    uint64_t attempted = 0;  // highest version written so far
    uint64_t acked = 0;      // version of the last acked put (0: none)
    std::vector<uint64_t> unknown;  // failed puts since the last ack
  };
  /// Version encoded in `v` for `key`, or 0 when the value is not one of
  /// this key's.
  static uint64_t version_of(const Key& key, const Value& v);
  void violation(const Key& key, const char* what);

  std::unordered_map<Key, KeyState> keys_;
  uint64_t violations_ = 0;
};

// ---- Ops --------------------------------------------------------------------

/// Durations in whole microseconds (both clocks tick in them), counted per
/// value in fixed windows of start time, so a percentile can also be taken
/// per stretch of the run and memory stays small however many ops run.
/// Percentiles treat each sample as its 1 us rounding interval and
/// interpolate inside it: thousands of sim-clock reads that all round to
/// 440 us still give a median that depends on how they split around it.
class Series {
 public:
  /// A failed op counts as missing every latency limit.
  static constexpr int64_t kFailed = int64_t{1} << 40;

  /// Cuts time from `start_us` on into windows of `window_us`, after the
  /// windows already filled: a series can collect several stretches of a
  /// run.  Samples starting before `start_us` land in its first window.
  /// Default: one window.
  void set_windows(int64_t start_us, int64_t window_us);
  void add(int64_t start_us, int64_t duration_us);
  /// Adds the samples of `o`, window by window (o's windows past this
  /// one's last land in the last).
  void merge(const Series& o);

  /// The p-th percentile (0..100) of every sample, in ms.
  double percentile_ms(double p) const;

  /// The p-th percentile of the quiet stretches, in ms: the non-empty
  /// windows are ranked by their own p-th percentile and the samples of the
  /// lowest fifth of them (at least one) are pooled.  Other load on a shared
  /// host only ever delays ops, and it comes and goes within seconds, so
  /// the quiet windows measure the program; pooling a fifth keeps a few
  /// lucky windows from deciding.
  double quiet_ms(double p) const;

 private:
  using Histogram = std::map<int64_t, uint64_t>;  // duration -> samples
  static double percentile_ms(const Histogram& h, double p);

  std::vector<Histogram> windows_{1};
  size_t base_ = 0;  // the window starting at start_us_
  int64_t start_us_ = 0;
  int64_t window_us_ = 0;
};

/// Latency samples (microseconds) and outcome counts of one measured phase.
struct Tally {
  Series section, read;
  // Each ClientApi call of a section, timed by the bench.
  Series create, acquire, get, put, release;
  Series read_call;  // the get() call of a read, from its own start
  uint64_t sections_ok = 0, sections_failed = 0;
  uint64_t reads_ok = 0, reads_failed = 0;
  uint64_t ops() const {
    return sections_ok + sections_failed + reads_ok + reads_failed;
  }
  uint64_t failed() const { return sections_failed + reads_failed; }
  void merge(const Tally& o);
  /// Windows the end-to-end series (section, read) by op start time.
  void set_windows(int64_t start_us, int64_t window_us) {
    section.set_windows(start_us, window_us);
    read.set_windows(start_us, window_us);
  }
};

/// Wall-clock stamps and op ids of the bench's own spans (traced runs).
/// The spans themselves live in the obs::Tracer attached to the workload's
/// simulation, so protocol spans nest under them; this side table adds
/// what an obs span does not carry.
struct BenchSpans {
  struct Stamp {
    uint64_t op = 0;
    int64_t wall_begin_ns = 0;
    int64_t wall_end_ns = 0;
  };
  obs::Tracer tracer;
  std::unordered_map<obs::SpanId, Stamp> stamps;  // op 0: inherit
  uint64_t sections = 0;
};

/// What every op of a workload shares.
struct OpContext {
  sim::Simulation* sim = nullptr;
  /// Sim workloads time on the sim clock; the tcp workload on the host
  /// clock (its sim clock is pinned to wall time only between epoll waits).
  bool wall_clock = false;
  LatestStateCheck check;
  BenchSpans* spans = nullptr;  // null when untraced
  uint64_t next_op = 1;
  int64_t inflight = 0;
  int64_t now_us() const;
};

/// One op on `c`: a section (createLockRef -> acquireLock -> criticalGet ->
/// criticalPut of 10 B -> releaseLock) or, when `read`, an eventual get.
/// Latency runs from `start_us` (the arrival's due time in an open loop).
/// Outcomes land in `tally` when it is non-null.
sim::Task<void> run_op(OpContext* ctx, api::ClientApi* c, Key key, bool read,
                       int64_t start_us, Tally* tally);

// ---- Tracing ----------------------------------------------------------------

/// Per-layer self time of the sections in `spans`, in ms per section:
/// "client" (bench, cluster and client spans), "core" (music.*),
/// "lockstore" (lock.*), "datastore" (store.*), "rpc" (the tcp wrapper's
/// per-request spans).  A span's self time is its duration minus the part
/// of it covered by its children.  `wall` times the wall-stamped spans on
/// the host clock (the tcp workload, whose sim clock stands still while
/// the loop computes); otherwise every span is timed on the sim clock.
std::map<std::string, double> self_ms_per_section(const BenchSpans& spans,
                                                  bool wall);

/// Writes the spans as Chrome trace events (one JSON object per line, no
/// enclosing array) for main() to merge: pid = workload index, tid = site,
/// ts/dur on the workload clock, with the op id and wall stamps as args.
bool write_trace_events(const BenchSpans& spans, int pid,
                        const std::string& path);

// ---- Host probes ------------------------------------------------------------

/// Heap allocations made by this process so far (global operator new is
/// replaced inside the bench binary).
uint64_t allocs_now();
/// Host monotonic clock, nanoseconds.
int64_t wall_ns();
/// CPU seconds (user + sys) used by this process so far.
double self_cpu_s();
/// Peak resident set of `pid` (0 = self), MB, from /proc/<pid>/status.
double peak_rss_mb(int pid = 0);
/// Lowers this process's peak resident set to its current one.
void reset_peak_rss();

/// CPU and context switches of a child process, from /proc/<pid>.
struct ProcSample {
  double user_s = 0.0, sys_s = 0.0;
  uint64_t ctxsw = 0;  // voluntary + involuntary
};
bool read_proc(int pid, ProcSample& out);

/// Host-wide CPU time in clock ticks, from the "cpu" line of /proc/stat:
/// all of it, and the part the hypervisor gave to other guests.
struct HostTicks {
  uint64_t total = 0, steal = 0;
};
HostTicks host_ticks();

/// The CPUs this process may run on.
std::vector<int> allowed_cpus();
/// Restricts this process to `cpus`.
void pin_to(const std::vector<int>& cpus);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// num / den, or 0 when den is 0 (a ratio over an empty window).
inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace music::e2e
