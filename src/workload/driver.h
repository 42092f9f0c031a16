// Closed-loop load driver: the simulator-side equivalent of the paper's
// per-site load generators (§VIII-a).  Peak throughput is measured by
// saturating the servers with many concurrent logical clients; mean latency
// with a single client.
#pragma once

#include <functional>
#include <memory>

#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "workload/stats.h"

namespace music::wl {

/// One benchmarkable operation stream.  Implementations own whatever
/// clients/state they need; `run_once(cid)` performs one logical operation
/// for logical client `cid` (e.g. one full critical section).
///
/// An abstract interface (rather than a callable) so no callable ever
/// crosses a coroutine boundary (see the GCC 12 note on ds::Cell).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual sim::Task<bool> run_once(int cid) = 0;
};

struct DriverConfig {
  /// Concurrent closed-loop clients (threads in the paper's terms).
  int clients = 1;
  /// Simulated warmup excluded from the stats.
  sim::Duration warmup = sim::sec(5);
  /// Measurement window.
  sim::Duration measure = sim::sec(30);
  /// Extra time to let in-flight operations finish after the window.
  sim::Duration drain = sim::sec(30);
  /// Arrival process: sampled before each operation as think time the
  /// client sleeps through.  The default (no hook) is the classic
  /// closed loop — the next op starts the moment the previous one
  /// finishes.  The hook receives the simulation rng and the current
  /// virtual time, so open-ish arrivals (Poisson inter-arrival gaps) and
  /// time-varying ones (diurnal load) are both expressible.  Think time
  /// is excluded from the recorded op latency.
  std::function<sim::Duration(sim::Rng&, sim::Time)> think;
  /// Per-run cap on retained latency samples (0 = keep every sample).
  /// Above the cap, samples are reservoir-subsampled (wl::Samples); the
  /// completed/failed counts — and so throughput — remain exact.  Set this
  /// for very large worlds (the cluster bench records millions of ops).
  size_t max_latency_samples = 0;
  /// Seed for the reservoir's private rng (decorrelates parallel worlds;
  /// deliberately NOT drawn from the sim rng, which must stay untouched).
  uint64_t latency_sample_seed = 0;
};

/// Runs the workload under `cfg.clients` concurrent clients and returns
/// completed-op throughput and latency over the measurement window.  Runs
/// the simulation internally (warmup + measure + drain of virtual time).
RunResult run_closed_loop(sim::Simulation& sim, std::shared_ptr<Workload> w,
                          DriverConfig cfg);

/// Runs exactly `ops` operations on one client and returns their latencies
/// (the single-thread mean-latency methodology of §VIII-a).
RunResult run_sequential(sim::Simulation& sim, std::shared_ptr<Workload> w,
                         int ops, sim::Duration time_limit = sim::sec(3600));

}  // namespace music::wl
