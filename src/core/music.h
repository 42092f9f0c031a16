// The MUSIC replica: critical sections with entry-consistency-under-failures
// (ECF) semantics over the data and lock stores (§III–§IV of the paper).
//
// Each MusicReplica lives at a site, fronts the site's data-store
// coordinator, and executes the Table I operations on behalf of connected
// clients:
//
//   createLockRef  one LWT (consensus) to generate + enqueue a lockRef
//   acquireLock    local lock-store peek; on grant, quorum read of the
//                  synchFlag and — only after a forced release — the
//                  synchronization (quorum read + re-write of the value,
//                  quorum reset of the flag)
//   criticalPut    quorum write stamped v2s(lockRef, elapsed)  [MUSIC]
//                  or an LWT write                              [MSCP]
//   criticalGet    quorum read
//   releaseLock    one LWT to dequeue
//   forcedRelease  (internal) quorum synchFlag set at lockRef+delta,
//                  then LWT dequeue
//
// plus the non-ECF get/put conveniences of §VI.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/v2s.h"
#include "datastore/store.h"
#include "lockstore/lockstore.h"
#include "sim/network.h"
#include "sim/service.h"
#include "sim/task.h"
#include "wire/messages.h"

namespace music::core {

/// How critical puts reach the data store: the MUSIC-vs-MSCP axis of the
/// paper's evaluation (§VIII-b).
enum class PutMode {
  /// MUSIC: plain quorum write (1 round trip).
  Quorum,
  /// MSCP: sequentially-consistent LWT write (4 round trips).
  Lwt,
};

/// MUSIC configuration.
struct MusicConfig {
  /// T: the maximum critical-section duration (§VI).  Operations past the
  /// bound are rejected with CsExpired.
  sim::Duration t_max_cs = sim::sec(60);
  /// Critical-put implementation (MUSIC vs MSCP).
  PutMode put_mode = PutMode::Quorum;
  /// Compute model of the MUSIC replica process itself.
  sim::ServiceConfig service{};
  /// How long an unchanged lockholder is tolerated before the failure
  /// detector preempts it with forcedRelease (§III lock release).
  sim::Duration holder_timeout = sim::sec(15);
  /// Failure-detector scan period.
  sim::Duration fd_interval = sim::sec(2);
  /// TEST ONLY: skip the §IV-B synchronization a grant is supposed to run
  /// when it finds synchFlag set after a forced release.  This deliberately
  /// breaks the fencing path — it exists so the ECF-under-failure matrix
  /// can prove the oracle detects the resulting zombie writes (the matrix
  /// has teeth).  Never enable outside tests.
  bool test_skip_synchronization = false;
};

/// Batch vocabulary: defined in wire/messages.h (it crosses the client
/// seam); aliased here so replica-side code keeps its historical names.
using BatchOp = wire::BatchOp;
using BatchOpResult = wire::BatchOpResult;
using wire::batch_status;

/// Diagnostic counters exposed by a replica (tests and benches read these).
struct MusicStats {
  uint64_t create_lock_ref = 0;
  uint64_t acquire_attempts = 0;
  uint64_t acquire_granted = 0;
  uint64_t synchronizations = 0;  // acquireLock runs that found synchFlag set
  uint64_t critical_puts = 0;
  uint64_t critical_gets = 0;
  uint64_t releases = 0;
  uint64_t forced_releases = 0;
  uint64_t rejected_not_holder = 0;
  uint64_t rejected_expired = 0;
  uint64_t batches = 0;       // execute_batch invocations
  uint64_t batched_ops = 0;   // sub-ops carried by those batches
};

/// A MUSIC replica.  All operations are coroutines over the simulated
/// cluster; they are safe to invoke concurrently from many clients.
class MusicReplica {
 public:
  /// Creates a replica at `site`, talking to that site's data-store
  /// coordinator and the given lock backend (LWT-based ls::LockStore in the
  /// paper's production configuration; ls::RaftLockStore for the §X-A1
  /// alternative).  The replica registers its own node on the network.
  MusicReplica(ds::StoreCluster& store, ls::LockBackend& locks,
               MusicConfig cfg, int site);

  MusicReplica(const MusicReplica&) = delete;
  MusicReplica& operator=(const MusicReplica&) = delete;

  sim::NodeId node() const { return node_; }
  int site() const { return site_; }
  sim::ServiceNode& service() { return service_; }
  sim::Simulation& sim_ref() { return store_.simulation(); }
  sim::Network& net_ref() { return store_.network(); }
  const MusicConfig& config() const { return cfg_; }
  const MusicStats& stats() const { return stats_; }
  const V2S& v2s() const { return v2s_; }

  // ---- Table I operations (ECF semantics). ---------------------------------

  /// createLockRef: enqueues and returns a per-key unique increasing
  /// identifier, good for one critical section.  Cost: one consensus write.
  sim::Task<Result<LockRef>> create_lock_ref(Key key);

  /// acquireLock: Ok when `ref` is first in the queue (critical section
  /// entered; the data store has been synchronized if needed);
  /// NotYetHolder when not first yet (poll again); NotLockHolder when the
  /// lock was forcibly released.  Cost on grant: synchFlag quorum read
  /// (plus, only after a forced release, value quorum read + write and
  /// synchFlag quorum write).
  sim::Task<Status> acquire_lock(Key key, LockRef ref);

  /// criticalPut: writes the latest value of the key for the current
  /// lockholder.  Cost: one value quorum write (MUSIC) or one LWT (MSCP).
  sim::Task<Status> critical_put(Key key, LockRef ref, Value value);

  /// criticalGet: reads the latest (true) value of the key for the current
  /// lockholder.  Cost: one value quorum read.
  sim::Task<Result<Value>> critical_get(Key key, LockRef ref);

  /// criticalDelete: removes the key for the current lockholder (footnote 3
  /// of the paper).  Implemented as a tombstone quorum write.
  sim::Task<Status> critical_delete(Key key, LockRef ref);

  /// Batched critical section body: executes `ops` in order under `ref`,
  /// coalescing runs of independent ops into single quorum rounds.
  /// Consecutive same-class ops (writes = put/delete, reads = get) on
  /// distinct keys form one round, executed via the store's multi-cell
  /// put_cells/get_cells so the whole round costs one value-quorum WAN
  /// round trip (MUSIC mode; MSCP's LWT writes stay sequential — there is
  /// no batching win to be had from four-round consensus writes).  The
  /// holder guard and T-bound are re-checked per round; a guard failure or
  /// a failed round aborts every later sub-op with that status, so a
  /// forcedRelease landing mid-batch deterministically fails the tail with
  /// NotLockHolder.  Returns one result per op, aligned with `ops`.
  sim::Task<std::vector<BatchOpResult>> execute_batch(Key key, LockRef ref,
                                                      std::vector<BatchOp> ops);

  /// releaseLock: removes `ref` from the queue.  Cost: one consensus write.
  sim::Task<Status> release_lock(Key key, LockRef ref);

  /// removeLockReference (§VII): evicts a lockRef that was never granted
  /// (garbage collection by workers that lost the race for a job).
  sim::Task<Status> remove_lock_ref(Key key, LockRef ref) {
    return release_lock(key, ref);
  }

  /// forcedRelease (internal; §IV-B): preempts `ref`, marking the key's
  /// data store as needing synchronization.  Exposed for failure detectors
  /// and for ownership transfer in the Portal pattern (§VII-b).
  sim::Task<Status> forced_release(Key key, LockRef ref);

  // ---- Non-ECF conveniences (§VI "Additional Functions"). -------------------

  /// Eventual write at one replica.  Only for keys with no ECF expectations
  /// or as initialization before the first critical section on the key.
  sim::Task<Status> put_eventual(Key key, Value value);

  /// Eventual read at one replica (may be stale).
  sim::Task<Result<Value>> get_eventual(Key key);

  /// Quorum read without holding a lock (used by tests/oracle; not part of
  /// Table I).
  sim::Task<Result<Value>> get_quorum_unlocked(Key key);

  /// getAllKeys helper (§VII): MUSIC keys with the given prefix, from the
  /// local replica's (possibly stale) view.
  sim::Task<Result<std::vector<Key>>> get_all_keys(Key prefix);

  // ---- Failure detection (§III lock release). -------------------------------

  /// Starts a background scanner that forcedReleases lockholders whose head
  /// lockRef has not changed for holder_timeout, and any holder past the T
  /// bound.  Scans keys registered with watch_key() plus any key this
  /// replica has served.
  void start_failure_detector();
  void stop_failure_detector();

  /// Registers a key for failure-detector scanning.
  void watch_key(const Key& key);

  /// Records client-visible activity on a key (resets the preemption
  /// timer).  Called internally by successful critical operations.
  void note_activity(const Key& key);

  // ---- Data-store key layout (shared with the verify oracle). ---------------

  static Key data_key(const Key& key) { return "!d:" + key; }
  static Key synch_flag_key(const Key& key) { return "!sf:" + key; }
  static Key start_time_key(const Key& key) { return "!st:" + key; }

  /// Crash / restart the MUSIC replica process.  By default a crash wipes
  /// the replica's soft state (origin cache, last-stamp table, failure-
  /// detector observations) — the amnesia restart of §III's fail-stop
  /// model, and the safe assumption since none of it is durable.
  /// `amnesia = false` models a process restart that kept its local state
  /// (e.g. a hot standby takeover): caches survive, which is only correct
  /// because every entry is re-validated against the store on use.
  void set_down(bool down, bool amnesia = true);
  bool down() const { return service_.down(); }
  /// Some store replica at this site is live, so an op here can be
  /// coordinated (core::execute fails the op fast with Nack otherwise).
  bool has_live_store() const;

 private:
  struct Origin {
    LockRef ref = kNoLockRef;
    sim::Time at = 0;

    Origin() = default;
    Origin(LockRef r, sim::Time t) : ref(r), at(t) {}
  };

  sim::Simulation& sim() { return store_.simulation(); }

  /// The data-store coordinator for the next operation: rotates across the
  /// site's nodes (as Cassandra drivers round-robin coordinators), which
  /// spreads coordinator work in the 6/9-node deployments of Fig. 4(b).
  /// Always a replica at this site (ds::StoreCluster::coordinator_at).
  ds::StoreReplica& coord();

  /// Local lock-store peek -> holder guard shared by the critical ops.
  /// Returns Ok when `ref` is head, NotYetHolder / NotLockHolder otherwise.
  sim::Task<Status> holder_guard(Key key, LockRef ref);

  /// The critical-section time origin for (key, ref): the cached value, or
  /// the !st row from the local replica.  Nullopt when not yet known
  /// locally (callers return Nack so the client retries).
  sim::Task<std::optional<sim::Time>> origin_for(Key key, LockRef ref);

  /// Monotonic v2s stamp for a write under (key, ref) at elapsed time `e`.
  ScalarTs next_ts(const Key& key, LockRef ref, sim::Duration e);

  /// One failure-detector pass.
  sim::Task<void> fd_scan();
  void schedule_fd_tick();

  ds::StoreCluster& store_;
  ls::LockBackend& locks_;
  MusicConfig cfg_;
  int site_;
  sim::NodeId node_;
  sim::ServiceNode service_;
  V2S v2s_;
  MusicStats stats_;

  std::unordered_map<Key, Origin> origin_cache_;
  std::unordered_map<Key, ScalarTs> last_ts_;
  std::unordered_map<Key, ScalarTs> last_plain_ts_;

  // Failure detector state.
  bool fd_running_ = false;
  struct HeadObservation {
    LockRef head = kNoLockRef;
    sim::Time since = 0;

    HeadObservation() = default;
    HeadObservation(LockRef h, sim::Time s) : head(h), since(s) {}
  };
  std::unordered_map<Key, HeadObservation> fd_observed_;
  std::unordered_map<Key, bool> watched_;
  size_t coord_rr_ = 0;
};

}  // namespace music::core
