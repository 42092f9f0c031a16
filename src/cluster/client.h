// The shard-aware client: one keyspace over N MUSIC groups.
//
// cluster::Client mirrors core::MusicClient's op surface but routes every
// operation through the cluster's ShardMap: pick the shard from the cached
// snapshot, pass the admission gate (cluster/cluster.h), dispatch to the
// owning group's shared core client at this client's site.  A WrongShard
// rejection (shard frozen mid-move, or this client's snapshot predates the
// shard's last move) is handled HERE: refresh the snapshot, back off,
// re-route — the caller only ever sees WrongShard when the re-route budget
// is spent, and then it is retryable by the same discipline.
//
// acquire_lock_blocking re-implements Listing 1's polling loop at the
// cluster layer (one admission per poll, not one admission for the whole
// wait): a shard freeze interleaves between polls instead of stalling the
// move's drain, and because the shard move copies the lock-queue row, a
// waiter's (or holder's) lockRef stays valid on the new group — polling
// simply resumes against the destination.
//
// Batch is the multi-shard counterpart of core::Session: enqueued ops are
// split by shard at flush, each shard's slice runs as its own
// core::CriticalSection (lockRef on the slice's first key) whose Session
// ships it as one batch, all shards flush in parallel, and results stitch
// back in enqueue order — Ok-prefix semantics hold per shard.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/client_api.h"
#include "cluster/cluster.h"
#include "core/client.h"
#include "core/music.h"
#include "core/session.h"
#include "verify/oracle.h"

namespace music::cluster {

struct ClientOptions {
  /// Route attempts per op before surfacing WrongShard to the caller.
  int max_route_attempts = 4096;
  /// Pause between route attempts (a frozen shard unfreezes in ~ms).
  sim::Duration route_backoff = sim::ms(2);
  /// Polls allowed for one acquire_lock_blocking loop.
  int max_poll_attempts = 4096;
  /// Pause between acquireLock polls.
  sim::Duration poll_backoff = sim::ms(2);
};

struct ClusterClientStats {
  uint64_t routed_ops = 0;          // ops dispatched through the gate
  uint64_t wrong_shard_retries = 0; // WrongShard bounces re-routed
  uint64_t map_refreshes = 0;       // snapshot refreshes those caused
};

/// One admitted route: the shard and the group client to dispatch to.
/// Callers MUST pair a granted route with Cluster::complete(shard).
/// (User ctors: crosses coroutine boundaries by value; see ds::Cell note.)
struct RouteGrant {
  int shard = -1;
  core::MusicClient* client = nullptr;

  RouteGrant() = default;
  RouteGrant(int s, core::MusicClient* c) : shard(s), client(c) {}
  bool ok() const { return client != nullptr; }
};

class Client : public api::ClientApi {
 public:
  /// A client at `site`.  With a checker, every observable ECF transition
  /// is reported inline through the checker's reporting helpers — the same
  /// policy verify::CheckedClient applies, without a decorator's extra
  /// coroutine per op.
  explicit Client(Cluster& cluster, int site,
                  verify::EcfChecker* checker = nullptr,
                  ClientOptions opt = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = default;

  int site() const override { return site_; }
  sim::Simulation& simulation() override { return sim_; }
  const ClusterClientStats& stats() const { return stats_; }
  /// The current ShardMap epoch (api::ClientApi introspection; reports the
  /// cluster's live snapshot, not this client's possibly-stale cache, so
  /// the REST status verb shows a move the moment it commits).
  uint64_t map_epoch() const override { return cluster_.snapshot()->epoch(); }
  /// Shards behind the routing layer (api::ClientApi introspection).
  int shard_count() const override { return cluster_.num_shards(); }
  Cluster& cluster() { return cluster_; }

  // ---- Table I operations, shard-routed. ------------------------------------

  sim::Task<Result<LockRef>> create_lock_ref(Key key) override;
  sim::Task<Status> acquire_lock(Key key, LockRef ref) override;
  sim::Task<Status> acquire_lock_blocking(Key key, LockRef ref) override;
  sim::Task<Status> critical_put(Key key, LockRef ref, Value value) override;
  sim::Task<Result<Value>> critical_get(Key key, LockRef ref) override;
  sim::Task<Status> critical_delete(Key key, LockRef ref) override;
  /// Single-shard batch under one lockRef.  Every op must route to `key`'s
  /// shard; otherwise nothing ships and every entry is WrongShard (Batch
  /// below splits multi-shard op sets).
  sim::Task<std::vector<core::BatchOpResult>> execute_batch(
      Key key, LockRef ref, std::vector<core::BatchOp> ops) override;
  sim::Task<Status> release_lock(Key key, LockRef ref) override;
  sim::Task<Status> remove_lock_ref(Key key, LockRef ref) override;
  sim::Task<Status> forced_release(Key key, LockRef ref) override;

  // ---- Non-ECF conveniences. ------------------------------------------------

  sim::Task<Status> put(Key key, Value value) override;
  sim::Task<Result<Value>> get(Key key) override;
  /// Fans the prefix scan out to every group and merges (sorted, deduped).
  /// May include keys whose authoritative shard moved away from a group —
  /// source rows survive a move — which dedup absorbs.
  sim::Task<Result<std::vector<Key>>> get_all_keys(Key prefix) override;

 private:
  friend class Batch;

  /// Routes `key` to an admitted (shard, group-client) pair, refreshing the
  /// snapshot and backing off on WrongShard.  A null grant means the route
  /// budget is spent (callers surface WrongShard).
  sim::Task<RouteGrant> admit_route(Key key);

  Cluster& cluster_;
  sim::Simulation& sim_;
  int site_;
  verify::EcfChecker* checker_;
  ClientOptions opt_;
  std::shared_ptr<const ShardMap> map_;
  ClusterClientStats stats_;
};

/// A multi-shard pipelined batch.  Enqueue with put/get/del (returns the
/// result index), then flush(): ops are split by shard, each shard's slice
/// runs as its own core::CriticalSection + core::Session in parallel with
/// the others, and per-op outcomes stitch back into results() in enqueue
/// order.  The roll-up status is the first non-Ok/NotFound outcome in
/// enqueue order.  After a flush the next enqueue starts a fresh batch.
class Batch : public core::OpQueue {
 public:
  explicit Batch(Client& client) : client_(client) {}

  sim::Task<Status> flush();

 private:
  /// One shard's slice of the batch (stable address while in flight).
  struct ShardBatch {
    std::vector<size_t> idx;  // enqueue indices, ascending
    std::vector<core::BatchOp> ops;
    std::vector<core::BatchOpResult> results;
  };

  /// Runs one shard's slice as a critical section keyed on its first key (a
  /// named coroutine: spawned frames must not be lambdas; see ds::Cell note).
  static sim::Task<void> run_shard(Client* c, ShardBatch* sb,
                                   sim::Promise<sim::Unit> done);

  Client& client_;
};

}  // namespace music::cluster
