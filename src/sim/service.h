// Server compute and disk models.
//
// The paper's throughput results (Figs 4 and 6) are shaped not just by WAN
// RTTs but by server-side queueing: each testbed node has 8 cores, and a
// single Zab leader serializes every write (the "queuing effects of
// consensus writes" the paper observes).  ServiceNode models a node's
// request-processing capacity as `workers` parallel servers with a service
// time of base + bytes/rate per message.  Disk models Zookeeper's
// synchronous transaction-log fsync (Cassandra's default commit-log sync is
// periodic, so its write path takes only the in-memory cost).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace music::sim {

/// Compute-capacity parameters for one server process.
struct ServiceConfig {
  /// Parallel request-processing workers (cores).
  int workers = 8;
  /// Fixed per-message handling cost, microseconds.
  Duration base_cost_us = 50;
  /// Additional cost per payload byte, nanoseconds (serialization, memcpy).
  double per_byte_ns = 2.0;
};

/// The testbed server every store process runs on (data store, Zab, Raft):
/// 8 cores, 190us base cost per message, 2 ns per payload byte.  The 190us
/// calibrates a 3-node cluster's eventual-write capacity to the ~41k op/s
/// the paper reports for CassaEV (Fig. 4a), i.e. real Cassandra's per-op
/// overhead.
inline constexpr ServiceConfig kServerModel{8, 190, 2.0};

/// A node's compute executor: `workers` parallel servers with FIFO
/// assignment.  Work submitted while the node is down is discarded, and
/// taking the node down discards all queued work (crash semantics).
class ServiceNode {
 public:
  ServiceNode(Simulation& sim, ServiceConfig cfg);

  /// Cost model: base + bytes * per_byte.
  Duration cost_for(size_t bytes) const;

  /// Enqueues `work` with the cost derived from `bytes`; runs it when a
  /// worker has processed it (start delayed until a worker frees up).
  void submit(size_t bytes, InlineFn work);

  /// Enqueues `work` with an explicit cost.
  void submit_cost(Duration cost, InlineFn work);

  /// Crash / restart.  Going down discards queued and in-flight work.
  void set_down(bool down);
  bool down() const { return down_; }

  /// Completed work items (diagnostics).
  uint64_t completed() const { return completed_; }
  /// Total busy time accumulated across workers (diagnostics; for
  /// utilization = busy / (elapsed * workers)).
  Duration busy_time() const { return busy_; }

 private:
  Simulation& sim_;
  ServiceConfig cfg_;
  bool down_ = false;
  uint64_t epoch_ = 0;  // bumped on crash; stale completions no-op
  // Min-heap of times at which each worker becomes free.
  std::priority_queue<Time, std::vector<Time>, std::greater<>> free_at_;
  uint64_t completed_ = 0;
  Duration busy_ = 0;
};

/// Storage-device parameters.
struct DiskConfig {
  /// Base latency of a synchronous flush (fsync), microseconds.
  Duration fsync_base_us = 1000;
  /// Sequential write throughput, bytes per second.
  double write_bps = 300e6;
};

/// The log device Zab and Raft fsync before acknowledging: 300us reflects
/// an enterprise SSD with the small group-commit batches of a busy server.
inline constexpr DiskConfig kFsyncDisk{300, 300e6};

/// A single-queue storage device.  Used by the Zab substitute, which fsyncs
/// its transaction log before acknowledging each proposal.
class Disk {
 public:
  Disk(Simulation& sim, DiskConfig cfg);

  /// Synchronously persists `bytes`, then runs `done`.  Requests queue FIFO
  /// behind one another (single device).
  void write_sync(size_t bytes, InlineFn done);

  /// Crash semantics as in ServiceNode.
  void set_down(bool down);

  uint64_t completed() const { return completed_; }

 private:
  Simulation& sim_;
  DiskConfig cfg_;
  bool down_ = false;
  uint64_t epoch_ = 0;
  Time free_at_ = 0;
  uint64_t completed_ = 0;
};

}  // namespace music::sim
