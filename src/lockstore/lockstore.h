// The lock store (§III-B, §VI): a sequentially-consistent, per-key queue of
// lock references, realized on the data store exclusively through
// light-weight transactions, exactly as MUSIC realizes it on Cassandra.
//
// Each MUSIC key has one lock-queue object (the paper's lock-table rows for
// that key, Fig. 2): a 64-bit `guard` counter that generates per-key unique,
// increasing lock references, plus the FIFO queue of outstanding lockRefs.
// The object is updated atomically with one LWT per operation — the paper's
// batched "increment guard + enqueue" (§VI) — which is what gives
// createLockRef/releaseLock their 4-RTT consensus cost (Fig. 5(b)).
// lsPeek reads the local replica's (possibly stale) committed copy, which is
// why polling acquireLock is nearly free.
#pragma once

#include <array>
#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "datastore/store.h"
#include "sim/task.h"

namespace music::ls {

/// One queued lock reference.
/// Non-aggregate on purpose: passed by value through coroutines (see the
/// GCC note on ds::Cell).
struct LockEntry {
  LockRef ref = kNoLockRef;
  /// Unique id of the enqueue operation that created this entry.  Lets a
  /// retried lsGenerateAndEnqueue recognize that its first proposal was
  /// completed by a competitor's Paxos replay and adopt that ref instead of
  /// enqueueing a duplicate (which would orphan a queue slot until the
  /// failure detector collects it).
  uint64_t op_tag = 0;

  LockEntry() = default;
  explicit LockEntry(LockRef r, uint64_t tag = 0) : ref(r), op_tag(tag) {}
  friend bool operator==(const LockEntry&, const LockEntry&) = default;
};

/// The per-key lock-queue object stored (serialized) in the data store.
struct LockQueue {
  /// The guard counter of §VI: constant across rows of a key, incremented
  /// by one LWT per createLockRef; its value is the new lockRef.
  int64_t guard = 0;
  /// Outstanding lock references in FIFO (ascending) order.
  std::vector<LockEntry> entries;

  LockQueue() = default;
  LockQueue(int64_t g, std::vector<LockEntry> e)
      : guard(g), entries(std::move(e)) {}

  /// The head of the queue (the current lockholder's ref), if any.
  std::optional<LockRef> head() const {
    if (entries.empty()) return std::nullopt;
    return entries.front().ref;
  }

  /// Compact text codec ("guard|ref,ref,...").
  std::string serialize() const;
  static LockQueue parse(const std::string& s);
};

/// Result of a peek: the head lockRef at the local replica, if the local
/// replica knows of any queue at all.
struct PeekResult {
  /// Head of the locally-known queue; nullopt if the local replica has no
  /// (or an empty) queue for the key.
  std::optional<LockRef> head;
  /// True if the local replica has ever seen the queue object.
  bool known = false;

  PeekResult() = default;
  PeekResult(std::optional<LockRef> h, bool k) : head(h), known(k) {}
};

/// Abstract lock-store backend.  MUSIC replicas depend only on this
/// interface, so the queue substrate is pluggable: the paper's production
/// choice (Cassandra LWTs, 4 RTTs per consensus write — LockStore below) or
/// the §X-A1 alternative it names as future work (a ~1-RTT consensus
/// engine — RaftLockStore in raft_lockstore.h).  Methods take the calling
/// replica's site; backends pick their own site-local server.
class LockBackend {
 public:
  virtual ~LockBackend() = default;

  /// lsGenerateAndEnqueue from `site`: one consensus write.
  virtual sim::Task<Result<LockRef>> backend_generate(int site, Key key) = 0;
  /// lsDequeue from `site`: one consensus write (no-op if absent).
  virtual sim::Task<Status> backend_dequeue(int site, Key key, LockRef ref) = 0;
  /// lsPeek: the head according to a replica AT `site` (local, maybe stale).
  virtual sim::Task<Result<PeekResult>> backend_peek(int site, Key key) = 0;
};

/// Lock-store operations over Cassandra LWTs, each executed through a
/// data-store coordinator (the node the MUSIC replica is talking to).
class LockStore : public LockBackend {
 public:
  explicit LockStore(ds::StoreCluster& store) : store_(store) {}

  /// lsGenerateAndEnqueue: atomically increments the guard and enqueues the
  /// new lockRef.  One LWT = one consensus write (4 RTTs).
  sim::Task<Result<LockRef>> generate_and_enqueue(ds::StoreReplica& coord,
                                                  Key key);

  /// lsDequeue: removes `ref` from the queue (no-op if absent).  One LWT.
  sim::Task<Status> dequeue(ds::StoreReplica& coord, Key key, LockRef ref);

  /// lsPeek: the head of the queue as known by the coordinator's local
  /// replica (eventual read; may be stale).  Purely local: no WAN hop.
  sim::Task<Result<PeekResult>> peek(ds::StoreReplica& coord, Key key);

  /// A quorum peek (used by the ablation bench to show why the paper made
  /// lsPeek local).
  sim::Task<Result<PeekResult>> peek_quorum(ds::StoreReplica& coord, Key key);

  /// The data-store key under which `key`'s queue object lives.
  static Key queue_key(const Key& key) { return "!lq:" + key; }

  // ---- LockBackend (site-based entry points used by MusicReplica). ----------
  sim::Task<Result<LockRef>> backend_generate(int site, Key key) override;
  sim::Task<Status> backend_dequeue(int site, Key key, LockRef ref) override;
  sim::Task<Result<PeekResult>> backend_peek(int site, Key key) override;

 private:
  /// Site-local coordinator with round-robin over same-site nodes (spreads
  /// lock-table coordination in multi-node-per-site clusters); null when no
  /// store replica at `site` is live, which the backend ops answer with Nack.
  ds::StoreReplica* coord_at(int site);

  ds::StoreCluster& store_;
  /// Relaxed atomic: tags are compared only for equality and carry the
  /// coordinator node in their high bits, so cross-lane increment order is
  /// unobservable — but the counter itself is bumped from every site lane.
  std::atomic<uint64_t> next_op_tag_{1};
  /// Round-robin position per site, not one shared counter: coord_at(s) only
  /// ever runs on site s's lane, so per-site counters stay single-threaded
  /// under PDES and the replica choice is independent of how other sites'
  /// calls interleave.  Fixed-size so no lane ever grows the storage.
  std::array<size_t, 64> coord_rr_{};
};

}  // namespace music::ls
