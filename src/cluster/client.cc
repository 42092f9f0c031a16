#include "cluster/client.h"

#include <algorithm>
#include <map>
#include <utility>

#include "sim/future.h"
#include "sim/span.h"

namespace music::cluster {

Client::Client(Cluster& cluster, int site, verify::EcfChecker* checker,
               ClientOptions opt)
    : cluster_(cluster),
      sim_(cluster.simulation()),
      site_(site),
      checker_(checker),
      opt_(opt),
      map_(cluster.snapshot()) {}

sim::Task<RouteGrant> Client::admit_route(Key key) {
  for (int attempt = 0; attempt < opt_.max_route_attempts; ++attempt) {
    int shard = map_->route(key);
    if (shard < 0) co_return RouteGrant();  // empty ring: unroutable
    Status gate = cluster_.admit(shard, map_->epoch());
    if (gate.ok()) {
      stats_.routed_ops += 1;
      co_return RouteGrant(shard,
                           &cluster_.client_at(map_->group_of(shard), site_));
    }
    // The unified retry surface (common/types.h): the routing layer owns
    // exactly the statuses its own machinery can cure — WrongShard (refresh
    // the snapshot, re-route) and the transient set.  Anything else is a
    // final answer no amount of re-routing fixes.
    if (!is_retryable(gate.status(), RetryLayer::kCluster)) {
      co_return RouteGrant();
    }
    // WrongShard: the shard is frozen mid-move or our snapshot is stale.
    // Refresh and retry — the move protocol guarantees the freeze window
    // is bounded by the drain, so bounded backoff converges.
    stats_.wrong_shard_retries += 1;
    if (map_ != cluster_.snapshot()) {
      map_ = cluster_.snapshot();
      stats_.map_refreshes += 1;
    }
    co_await sim::sleep_for(sim_, opt_.route_backoff);
  }
  co_return RouteGrant();
}

sim::Task<Result<LockRef>> Client::create_lock_ref(Key key) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Result<LockRef>::Err(OpStatus::WrongShard);
  auto r = co_await g.client->create_lock_ref(key);
  cluster_.complete(g.shard);
  co_return r;
}

sim::Task<Status> Client::acquire_lock(Key key, LockRef ref) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  Status st = co_await g.client->acquire_lock(key, ref);
  cluster_.complete(g.shard);
  if (st.ok() && checker_ != nullptr) checker_->on_acquired(key, ref);
  co_return st;
}

sim::Task<Status> Client::acquire_lock_blocking(Key key, LockRef ref) {
  // The polling loop lives at THIS layer (one admission per poll) so a
  // shard freeze interleaves between polls: waiters drain promptly and
  // resume polling against the destination group, where the copied !lq
  // row still carries their queue entry.
  sim::OpSpan span(sim_, "cluster.acquire", site_, -1, key);
  OpStatus last = OpStatus::Timeout;
  for (int poll = 0; poll < opt_.max_poll_attempts; ++poll) {
    RouteGrant g = co_await admit_route(key);
    if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
    Status st = co_await g.client->acquire_lock(key, ref);
    cluster_.complete(g.shard);
    if (st.ok()) {
      if (checker_ != nullptr) checker_->on_acquired(key, ref);
      co_return st;
    }
    last = st.status();
    // NotYetHolder (not first in queue) and transient wire failures poll
    // again; anything else is the final answer for this lockRef.
    if (!is_retryable(last) && last != OpStatus::NotYetHolder) {
      co_return st;
    }
    co_await sim::sleep_for(sim_, opt_.poll_backoff);
  }
  co_return Status::Err(last == OpStatus::NotYetHolder ? OpStatus::Timeout
                                                       : last);
}

sim::Task<Status> Client::critical_put(Key key, LockRef ref, Value value) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  // Attempt is reported only once the op is admitted (it reaches the wire);
  // a WrongShard bounce never launched a write the oracle could observe.
  if (checker_ != nullptr) checker_->on_put_attempt(key, ref, value);
  Status st = co_await g.client->critical_put(key, ref, value);
  cluster_.complete(g.shard);
  if (st.ok() && checker_ != nullptr) checker_->on_put_acked(key, ref, value);
  co_return st;
}

sim::Task<Result<Value>> Client::critical_get(Key key, LockRef ref) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Result<Value>::Err(OpStatus::WrongShard);
  auto r = co_await g.client->critical_get(key, ref);
  cluster_.complete(g.shard);
  if (checker_ != nullptr) checker_->on_get(key, ref, r);
  co_return r;
}

sim::Task<Status> Client::critical_delete(Key key, LockRef ref) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  Status st = co_await g.client->critical_delete(key, ref);
  cluster_.complete(g.shard);
  co_return st;
}

sim::Task<std::vector<core::BatchOpResult>> Client::execute_batch(
    Key key, LockRef ref, std::vector<core::BatchOp> ops) {
  RouteGrant g = co_await admit_route(key);
  // The batch is admitted to the lock key's shard only: a sub-op routed to
  // another shard would be acked into a group that does not own its key,
  // so nothing ships.
  if (!g.ok() || !std::all_of(ops.begin(), ops.end(), [&](const auto& op) {
        return map_->route(op.key) == g.shard;
      })) {
    if (g.ok()) cluster_.complete(g.shard);
    co_return std::vector<core::BatchOpResult>(
        ops.size(), core::BatchOpResult(OpStatus::WrongShard));
  }
  if (checker_ != nullptr) checker_->on_batch_sent(ref, ops);
  auto results = co_await g.client->execute_batch(key, ref, ops);
  cluster_.complete(g.shard);
  if (checker_ != nullptr) checker_->on_batch_done(ref, ops, results);
  co_return results;
}

sim::Task<Status> Client::release_lock(Key key, LockRef ref) {
  // Reported on entry: once release is initiated the client must no longer
  // rely on holding the lock, whatever the wire outcome.
  if (checker_ != nullptr) checker_->on_released(key, ref);
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  Status st = co_await g.client->release_lock(key, ref);
  cluster_.complete(g.shard);
  co_return st;
}

sim::Task<Status> Client::remove_lock_ref(Key key, LockRef ref) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  Status st = co_await g.client->remove_lock_ref(key, ref);
  cluster_.complete(g.shard);
  co_return st;
}

sim::Task<Status> Client::forced_release(Key key, LockRef ref) {
  if (checker_ != nullptr) checker_->on_forced_release(key, ref);
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  Status st = co_await g.client->forced_release(key, ref);
  cluster_.complete(g.shard);
  co_return st;
}

sim::Task<Status> Client::put(Key key, Value value) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Status::Err(OpStatus::WrongShard);
  Status st = co_await g.client->put(key, value);
  cluster_.complete(g.shard);
  co_return st;
}

sim::Task<Result<Value>> Client::get(Key key) {
  RouteGrant g = co_await admit_route(key);
  if (!g.ok()) co_return Result<Value>::Err(OpStatus::WrongShard);
  auto r = co_await g.client->get(key);
  cluster_.complete(g.shard);
  co_return r;
}

sim::Task<Result<std::vector<Key>>> Client::get_all_keys(Key prefix) {
  // Prefix scans cut across shards, so this fans out to every group (no
  // admission gate: the scan is advisory, like the core op it wraps) and
  // merges.  Stale copies left behind by moves collapse in the dedup.
  std::vector<Key> merged;
  OpStatus err = OpStatus::Ok;
  bool any_ok = false;
  for (int g = 0; g < cluster_.num_groups(); ++g) {
    auto r = co_await cluster_.client_at(g, site_).get_all_keys(prefix);
    if (r.ok()) {
      any_ok = true;
      for (const Key& k : r.value()) merged.push_back(k);
    } else {
      err = r.status();
    }
  }
  if (!any_ok && err != OpStatus::Ok) {
    co_return Result<std::vector<Key>>::Err(err);
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  co_return Result<std::vector<Key>>::Ok(std::move(merged));
}

// ---- Batch ------------------------------------------------------------------

sim::Task<void> Batch::run_shard(Client* c, ShardBatch* sb,
                                 sim::Promise<sim::Unit> done) {
  // Every step is cluster-routed, so a shard move mid-flush re-routes
  // transparently.
  core::CriticalSection cs(*c, sb->ops.front().key);
  Status acq = co_await cs.enter();
  if (acq.ok()) {
    core::Session s = cs.session();
    for (core::BatchOp& op : sb->ops) s.enqueue(std::move(op));
    co_await s.flush();
    sb->results = s.results();
    co_await cs.exit();
  } else {
    sb->results.assign(sb->ops.size(), core::BatchOpResult(acq.status()));
  }
  done.set_value(sim::Unit{});
}

sim::Task<Status> Batch::flush() {
  if (ops_.empty() || flushed_) {
    flushed_ = true;
    co_return Status::Ok();
  }
  sim::Simulation& sim = client_.simulation();
  sim::OpSpan span(sim, "cluster.batch_flush", client_.site(), -1,
                   std::to_string(ops_.size()));
  results_.assign(ops_.size(), core::BatchOpResult(OpStatus::Timeout));

  // Split by shard against the client's current snapshot.  Routing is only
  // advisory here — each shard run re-admits per op — so a concurrent move
  // costs a WrongShard retry inside the run, not a mis-stitched result.
  std::map<int, std::unique_ptr<ShardBatch>> by_shard;
  for (size_t i = 0; i < ops_.size(); ++i) {
    std::unique_ptr<ShardBatch>& sb = by_shard[client_.map_->route(ops_[i].key)];
    if (!sb) sb = std::make_unique<ShardBatch>();
    sb->idx.push_back(i);
    sb->ops.push_back(ops_[i]);
  }

  // Spawn in ascending shard order (deterministic), then barrier.
  std::vector<sim::Future<sim::Unit>> done;
  done.reserve(by_shard.size());
  for (auto& [shard, sb] : by_shard) {
    (void)shard;
    sim::Promise<sim::Unit> p(sim);
    done.push_back(p.future());
    sim::spawn(sim, run_shard(&client_, sb.get(), p));
  }
  co_await sim::await_all(sim, std::move(done));

  for (auto& [shard, sb] : by_shard) {
    (void)shard;
    for (size_t j = 0; j < sb->idx.size(); ++j) {
      results_[sb->idx[j]] = sb->results[j];
    }
  }
  flushed_ = true;
  co_return Status(core::batch_status(results_));
}

}  // namespace music::cluster
