// The session/handle layer of the client API: critical sections as objects.
//
// CriticalSection owns the createLockRef -> acquireLock -> releaseLock
// lifecycle that every caller of the raw client had to spell out, and
// exposes the critical ops without (key, ref) threading:
//
//   CriticalSection cs(client, "inventory");
//   if ((co_await cs.enter()).ok()) {
//     co_await cs.put(Value("7"));
//     co_await cs.exit();
//   }
//
// Session pipelines: put/get/del enqueue without blocking, flush() ships
// everything as ONE Batch request, executed by the replica with coalesced
// quorum rounds (see MusicReplica::execute_batch) — N independent-key puts
// cost one value-quorum WAN round trip instead of N:
//
//   auto s = cs.session();
//   s.put("a", Value("1"));     // enqueued, no I/O
//   s.put("b", Value("2"));
//   size_t ix = s.get("c");     // result index for after the flush
//   co_await s.flush();         // one wire request, coalesced rounds
//   use(s.results()[ix]);
//
// Failure surface: flush() returns the roll-up (first non-Ok/NotFound
// sub-op status); per-op outcomes stay in results().  A forcedRelease
// landing mid-batch fails the tail deterministically with NotLockHolder.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/client.h"

namespace music::core {

/// The put/get/del queue of a batch, shared by Session and the sharded
/// cluster::Batch.  put/get/del enqueue and return the op's index into
/// results(); after a flush, the next enqueue starts a fresh batch.
class OpQueue {
 public:
  /// Enqueues a critical put of `key` (any key, not just the lock's).
  size_t put(Key key, Value value) {
    return enqueue(BatchOp(BatchOp::Kind::Put, std::move(key), std::move(value)));
  }
  /// Enqueues a critical get; read results()[index] after the flush.
  size_t get(Key key) {
    return enqueue(BatchOp(BatchOp::Kind::Get, std::move(key), Value()));
  }
  /// Enqueues a critical delete (tombstone write).
  size_t del(Key key) {
    return enqueue(BatchOp(BatchOp::Kind::Delete, std::move(key), Value()));
  }
  size_t enqueue(BatchOp op) {
    if (flushed_) {
      ops_.clear();
      results_.clear();
      flushed_ = false;
    }
    ops_.push_back(std::move(op));
    return ops_.size() - 1;
  }

  /// Ops queued and not yet flushed.
  size_t pending() const { return flushed_ ? 0 : ops_.size(); }
  /// The last flushed batch's ops (aligned with results()).
  const std::vector<BatchOp>& ops() const { return ops_; }
  /// Per-op outcomes of the last flush, aligned with the enqueue indices.
  const std::vector<BatchOpResult>& results() const { return results_; }

 protected:
  std::vector<BatchOp> ops_;
  std::vector<BatchOpResult> results_;
  bool flushed_ = false;
};

/// A pipelined batch of critical ops under one held lock; flush() ships the
/// queue as one Batch request.  The session object is reusable for as long
/// as the lock is held.
///
/// Session (and CriticalSection below) bind the shared api::ClientApi seam,
/// not the concrete client: the same handle code runs over one MUSIC group
/// (core::MusicClient) or a sharded deployment (cluster::Client), and a
/// checked batch is a Session over a verify::CheckedClient.
class Session : public OpQueue {
 public:
  /// Usually obtained via CriticalSection::session().
  Session(api::ClientApi& client, Key key, LockRef ref)
      : client_(client), key_(std::move(key)), ref_(ref) {}

  using OpQueue::del;
  using OpQueue::get;
  using OpQueue::put;
  /// The same ops on the lock key itself.
  size_t put(Value value) { return put(key_, std::move(value)); }
  size_t get() { return get(key_); }
  size_t del() { return del(key_); }

  /// Ships the queued ops as one Batch request (empty queue: no-op, Ok).
  /// Returns the batch roll-up status; per-op outcomes land in results().
  sim::Task<Status> flush();

 private:
  api::ClientApi& client_;
  Key key_;
  LockRef ref_;
};

/// RAII handle for one critical section: owns the lockRef lifecycle and
/// exposes the critical ops bound to (key, ref).  Move-only.  If the
/// handle is destroyed while the lock is still held, the release is issued
/// fire-and-forget (prefer an explicit exit(), which reports the status).
class CriticalSection {
 public:
  CriticalSection(api::ClientApi& client, Key key)
      : client_(&client), key_(std::move(key)) {}

  CriticalSection(CriticalSection&& other) noexcept
      : client_(other.client_),
        key_(std::move(other.key_)),
        ref_(other.ref_),
        held_(other.held_) {
    other.client_ = nullptr;
    other.held_ = false;
    other.ref_ = kNoLockRef;
  }
  CriticalSection(const CriticalSection&) = delete;
  CriticalSection& operator=(const CriticalSection&) = delete;
  CriticalSection& operator=(CriticalSection&&) = delete;

  ~CriticalSection();

  /// createLockRef + acquireLock polling (Listing 1's entry).  On failure
  /// the lockRef is evicted from the queue (unless the lock store already
  /// preempted it) and the handle stays un-held; enter() may be retried.
  sim::Task<Status> enter();

  /// releaseLock.  Idempotent: Ok if the lock is not held.
  sim::Task<Status> exit();

  /// Forgets the lock without releasing (after a preemption the ref is no
  /// longer ours to release; the destructor must not try).
  void abandon() {
    held_ = false;
    ref_ = kNoLockRef;
  }

  bool held() const { return held_; }
  LockRef ref() const { return ref_; }
  const Key& key() const { return key_; }

  // ---- Critical ops under the held lock (immediate, one op per trip). ------

  sim::Task<Status> put(Key key, Value value);
  sim::Task<Status> put(Value value);
  sim::Task<Result<Value>> get(Key key);
  sim::Task<Result<Value>> get();
  sim::Task<Status> del(Key key);
  sim::Task<Status> del();

  /// A pipelined batch session under this lock (see Session).
  Session session() { return Session(*client_, key_, ref_); }

 private:
  /// Op outcome bookkeeping: a NotLockHolder answer means the lock was
  /// forcibly taken — stop treating it as held.
  void note(OpStatus s) {
    if (s == OpStatus::NotLockHolder) abandon();
  }

  api::ClientApi* client_;
  Key key_;
  LockRef ref_ = kNoLockRef;
  bool held_ = false;
};

// ---- with_lock: Listing 1 over the handle. --------------------------------

template <typename F>
sim::Task<Status> MusicClient::with_lock(Key key, F& body) {
  sim::OpSpan span(sim_, "client.critical_section", site_, node_, key);
  CriticalSection cs(*this, std::move(key));
  auto acq = co_await cs.enter();
  if (!acq.ok()) co_return acq;
  Status body_status = co_await body(cs.ref());
  if (body_status.status() == OpStatus::NotLockHolder) {
    // Preempted mid-section: the lock is no longer ours to release.
    cs.abandon();
    co_return body_status;
  }
  co_await cs.exit();
  co_return body_status;
}

}  // namespace music::core
