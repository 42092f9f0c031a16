// Executable counterpart of the paper's Alloy verification (§V).
//
// The Alloy model keeps *history variables* — the set of attempted quorum
// writes partitioned into pending/succeeded, and the "true pair" (the
// attempted write with the latest timestamp) — and proves, by bounded model
// enumeration, that the Critical-Section, SynchFlag, Exclusivity and
// Latest-State properties hold in every reachable state.
//
// Here the same history variables are maintained at runtime by EcfChecker,
// fed by instrumented clients (CheckedClient, cluster::Client), and the same
// properties are asserted continuously while randomized property tests drive
// the system through crashes, partitions, forced releases and false failure
// detection.  Bounded exhaustive enumeration is replaced by bounded
// randomized exploration over many seeds (tests/music/ecf_property_test.cc).
//
// The §III refinement is encoded exactly: after a preemption, the next
// lockholder's first read may return either the last acknowledged write or
// one of the writes that were attempted (pending or acknowledged) by later
// lockRefs since then — the synchronization commits the system to one
// choice, and from then on the checker holds it to that choice.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/music.h"

namespace music::verify {

/// A violation found by the checker.
struct Violation {
  std::string invariant;
  Key key;
  std::string detail;

  Violation() = default;
  Violation(std::string i, Key k, std::string d)
      : invariant(std::move(i)), key(std::move(k)), detail(std::move(d)) {}
};

/// History-variable checker for ECF semantics.
///
/// Thread-safe: one checker is typically shared by every client in a world,
/// and under PDES those clients execute on concurrent site lanes, so each
/// public method takes an internal mutex (uncontended — a handful of cycles
/// — in classic single-threaded worlds).  The history itself stays
/// deterministic because per-key event order is driven by the simulated
/// timeline, not by which worker delivers the callback.
class EcfChecker {
 public:
  explicit EcfChecker(sim::Simulation& sim) : sim_(sim) {}

  /// In failure-injection runs a client may be granted a lock from a stale
  /// local lock-store view after it was already preempted and superseded.
  /// ECF makes no promises to such holders; lenient mode ignores their
  /// grant events instead of flagging Fairness (keep strict for
  /// failure-free histories).
  void set_lenient_stale_grants(bool v) { lenient_stale_grants_ = v; }

  // ---- Events reported by instrumented clients. -----------------------------

  void on_acquired(const Key& key, LockRef ref);
  /// A criticalPut was sent (it is now "pending" in the Alloy sense).
  void on_put_attempt(const Key& key, LockRef ref, const Value& v);
  /// The same put was acknowledged (it moves to "succeeded").
  void on_put_acked(const Key& key, LockRef ref, const Value& v);
  /// A criticalGet returned a value (checks Latest-State).
  void on_get_ok(const Key& key, LockRef ref, const Value& v);
  /// A criticalGet reported the key absent.
  void on_get_not_found(const Key& key, LockRef ref);
  void on_released(const Key& key, LockRef ref);
  void on_forced_release(const Key& key, LockRef ref);

  // ---- Reporting policy shared by every instrumented client. ---------------

  /// A criticalGet's outcome: a value or NotFound is an observation; any
  /// other status observed nothing.
  void on_get(const Key& key, LockRef ref, const Result<Value>& r);
  /// A batch under `ref` shipped: each of its puts is now an attempt
  /// ("pending" in the Alloy sense) whether or not the replica aborts the
  /// tail.  Deletes are unmodeled, as for the unbatched client; checked
  /// histories batch on the key whose lock they hold.
  void on_batch_sent(LockRef ref, const std::vector<core::BatchOp>& ops);
  /// The batch's per-op results came back: Ok puts are acks, gets are
  /// observations (results may be shorter than ops; the rest saw nothing).
  void on_batch_done(LockRef ref, const std::vector<core::BatchOp>& ops,
                     const std::vector<core::BatchOpResult>& results);

  // ---- Results. --------------------------------------------------------------

  /// Post-run accessor (not synchronized: call after the world is drained).
  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return violations_.empty();
  }
  /// Human-readable report of all violations (empty string if none).
  std::string report() const;

  /// The key's committed true value, when it is STABLE: the choice is
  /// committed (no open candidates), no eligible attempt is still pending
  /// (nothing in flight can change the winning timestamp), and the key has
  /// been quiet for `min_quiet`.  Under these conditions the paper's
  /// Critical-Section Invariant says the data store must be *defined* as
  /// exactly this value — samplers combine this with data_store_defined()
  /// to tie the oracle to the physical replicas.
  std::optional<Value> stable_truth(const Key& key,
                                    sim::Duration min_quiet) const;

  /// Explicitly records an observation point for quietness tracking.
  void note_event(const Key& key);

 private:
  struct Attempt {
    LockRef ref = 0;
    int64_t seq = 0;  // order within the critical section
    Value value;
    bool acked = false;

    Attempt() = default;
    Attempt(LockRef r, int64_t s, Value v) : ref(r), seq(s), value(std::move(v)) {}
  };

  struct KeyState {
    /// All attempted writes, in (ref, seq) order — the Alloy history set.
    std::vector<Attempt> attempts;
    /// The committed choice for the key's true value, as an index into
    /// attempts (-1: none; the key has never had a committed write).
    int64_t true_idx = -1;
    /// Open candidate set (indices) when the true value is ambiguous after
    /// a preemption; the next observation commits the choice.
    std::vector<int64_t> candidates;
    /// Highest ref ever granted; grants must be non-decreasing.
    LockRef max_granted = 0;
    /// Ref currently believed to hold the lock exclusively (0: none).
    LockRef active_holder = 0;
    /// Per-ref attempt counter.
    std::map<LockRef, int64_t> next_seq;
    /// Refs that were force-released (their acks no longer advance the
    /// committed truth; they only extend the candidate set).
    std::map<LockRef, bool> preempted;
    /// A forced release happened since the last grant: the next grant runs
    /// the synchFlag synchronization, which re-stamps the chosen value under
    /// the new holder's lockRef and thereby kills every older attempt.
    bool resync_pending = false;
    /// Attempts with ref below this are dead (killed by a synchronization)
    /// unless they are the committed truth itself.
    LockRef dead_below = 0;
    /// Some attempt was acknowledged (reached a quorum): reads can no
    /// longer legally return NotFound.
    bool any_acked = false;
    /// Last event touching this key (quietness for stable_truth).
    sim::Time last_event = 0;
  };

  void fail(const std::string& invariant, const Key& key,
            const std::string& detail);
  /// Attempt table + history variables, one line — appended to Latest-State
  /// failures so a violation report is diagnosable without a re-run.
  static std::string dump_state(const KeyState& ks);
  /// (ref, seq) ordering of two attempts.
  static bool later(const Attempt& a, const Attempt& b) {
    return a.ref != b.ref ? a.ref > b.ref : a.seq > b.seq;
  }
  /// Recomputes the candidate set for a new holder entering at `ref`.
  void open_candidates(KeyState& ks, LockRef ref);

  sim::Simulation& sim_;
  mutable std::mutex mu_;
  std::map<Key, KeyState> keys_;
  std::vector<Violation> violations_;
  bool lenient_stale_grants_ = false;
};

/// An api::ClientApi decorator that reports every observable transition to
/// an EcfChecker.  It wraps any client — core, cluster or raft-backed — and
/// property tests use it exactly like the client it wraps; a checked batch
/// is a plain core::Session over a CheckedClient.  Ops the oracle does not
/// model (deletes, lockRef eviction, non-ECF conveniences) forward as-is.
class CheckedClient : public api::ClientApi {
 public:
  CheckedClient(api::ClientApi& inner, EcfChecker& checker)
      : inner_(inner), checker_(checker) {}

  sim::Simulation& simulation() override { return inner_.simulation(); }
  int site() const override { return inner_.site(); }
  int shard_count() const override { return inner_.shard_count(); }
  uint64_t map_epoch() const override { return inner_.map_epoch(); }

  sim::Task<Result<LockRef>> create_lock_ref(Key key) override {
    co_return co_await inner_.create_lock_ref(std::move(key));
  }

  sim::Task<Status> acquire_lock(Key key, LockRef ref) override {
    auto st = co_await inner_.acquire_lock(key, ref);
    if (st.ok()) checker_.on_acquired(key, ref);
    co_return st;
  }

  sim::Task<Status> acquire_lock_blocking(Key key, LockRef ref) override {
    auto st = co_await inner_.acquire_lock_blocking(key, ref);
    if (st.ok()) checker_.on_acquired(key, ref);
    co_return st;
  }

  sim::Task<Status> critical_put(Key key, LockRef ref, Value value) override {
    checker_.on_put_attempt(key, ref, value);
    auto st = co_await inner_.critical_put(key, ref, value);
    if (st.ok()) checker_.on_put_acked(key, ref, value);
    co_return st;
  }

  sim::Task<Result<Value>> critical_get(Key key, LockRef ref) override {
    auto r = co_await inner_.critical_get(key, ref);
    checker_.on_get(key, ref, r);
    co_return r;
  }

  sim::Task<Status> critical_delete(Key key, LockRef ref) override {
    return inner_.critical_delete(std::move(key), ref);
  }

  sim::Task<std::vector<core::BatchOpResult>> execute_batch(
      Key key, LockRef ref, std::vector<core::BatchOp> ops) override {
    checker_.on_batch_sent(ref, ops);
    auto results = co_await inner_.execute_batch(std::move(key), ref, ops);
    checker_.on_batch_done(ref, ops, results);
    co_return results;
  }

  sim::Task<Status> release_lock(Key key, LockRef ref) override {
    // Report on entry: the holder leaves its critical section the moment it
    // initiates the release (the dequeue commits at the lock store before
    // the client's reply arrives, so the next grant may be observed first).
    checker_.on_released(key, ref);
    co_return co_await inner_.release_lock(std::move(key), ref);
  }

  sim::Task<Status> remove_lock_ref(Key key, LockRef ref) override {
    return inner_.remove_lock_ref(std::move(key), ref);
  }

  sim::Task<Status> forced_release(Key key, LockRef ref) override {
    auto st = co_await inner_.forced_release(key, ref);
    if (st.ok()) checker_.on_forced_release(key, ref);
    co_return st;
  }

  sim::Task<Status> put(Key key, Value value) override {
    return inner_.put(std::move(key), std::move(value));
  }
  sim::Task<Result<Value>> get(Key key) override {
    return inner_.get(std::move(key));
  }
  sim::Task<Result<std::vector<Key>>> get_all_keys(Key prefix) override {
    return inner_.get_all_keys(std::move(prefix));
  }

 private:
  api::ClientApi& inner_;
  EcfChecker& checker_;
};

/// Store-level check of the paper's "data store is defined as value v"
/// (§IV-A): fewer than a quorum of the key's replicas hold a value that is
/// not v, where v is the highest-timestamp cell present.  Inspects replica
/// tables directly (no messages); call while the simulation is quiescent
/// for the key.
struct DefinedResult {
  bool defined = false;
  std::optional<Value> value;

  DefinedResult() = default;
  DefinedResult(bool d, std::optional<Value> v) : defined(d), value(std::move(v)) {}
};
DefinedResult data_store_defined(ds::StoreCluster& cluster, const Key& music_key);

}  // namespace music::verify
