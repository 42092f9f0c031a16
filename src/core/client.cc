#include "core/client.h"

#include <algorithm>
#include <utility>

#include "sim/span.h"

namespace music::core {

namespace {

/// Replica-side request wrapper: runs the dispatched coroutine and hands
/// the response to the transport's completion.  Named free-function
/// coroutine with by-value user-ctor parameters (the GCC-12-safe shape).
sim::Task<void> serve_transport(MusicReplica& rep, wire::Request req,
                                net::RespondFn respond) {
  Response resp = co_await execute(rep, std::move(req));
  respond(std::move(resp));
}

}  // namespace

/// The replica-side serving glue both transports share: dispatch each
/// arriving Request through execute() as a fresh coroutine.
net::ServeRequestFn serve_request_fn(MusicReplica& rep) {
  MusicReplica* target = &rep;
  return [target](wire::Request req, net::RespondFn respond) {
    sim::spawn(target->sim_ref(),
               serve_transport(*target, std::move(req), std::move(respond)));
  };
}

/// Binds `rep` as a client-seam endpoint of `transport` (shared by the
/// MusicClient sim ctor and hosting code that assembles transports by hand).
void bind_replica(net::SimTransport& transport, MusicReplica& rep) {
  transport.bind(rep.node(), net::SimEndpoint{&rep.service(),
                                              serve_request_fn(rep), nullptr});
}

sim::Task<Response> execute(MusicReplica& replica, Request req) {
  // No live store replica at this site: the op cannot be coordinated here,
  // so fail fast and let the client retry at another MUSIC replica (§III).
  if (!replica.has_live_store()) co_return Response(OpStatus::Nack);
  switch (req.op) {
    case Request::Op::CreateLockRef: {
      auto r = co_await replica.create_lock_ref(req.key);
      if (!r.ok()) co_return Response(r.status());
      co_return Response(OpStatus::Ok, r.value(), Value(), {});
    }
    case Request::Op::AcquireLock: {
      auto r = co_await replica.acquire_lock(req.key, req.ref);
      co_return Response(r.status());
    }
    case Request::Op::CriticalPut: {
      auto r = co_await replica.critical_put(req.key, req.ref, req.value);
      co_return Response(r.status());
    }
    case Request::Op::CriticalGet: {
      auto r = co_await replica.critical_get(req.key, req.ref);
      if (!r.ok()) co_return Response(r.status());
      co_return Response(OpStatus::Ok, req.ref, r.value(), {});
    }
    case Request::Op::CriticalDelete: {
      auto r = co_await replica.critical_delete(req.key, req.ref);
      co_return Response(r.status());
    }
    case Request::Op::ReleaseLock: {
      auto r = co_await replica.release_lock(req.key, req.ref);
      co_return Response(r.status());
    }
    case Request::Op::ForcedRelease: {
      auto r = co_await replica.forced_release(req.key, req.ref);
      co_return Response(r.status());
    }
    case Request::Op::PutEventual: {
      auto r = co_await replica.put_eventual(req.key, req.value);
      co_return Response(r.status());
    }
    case Request::Op::GetEventual: {
      auto r = co_await replica.get_eventual(req.key);
      if (!r.ok()) co_return Response(r.status());
      co_return Response(OpStatus::Ok, req.ref, r.value(), {});
    }
    case Request::Op::GetAllKeys: {
      auto r = co_await replica.get_all_keys(req.key);
      if (!r.ok()) co_return Response(r.status());
      co_return Response(OpStatus::Ok, 0, Value(), r.value());
    }
    case Request::Op::Batch: {
      auto rs =
          co_await replica.execute_batch(req.key, req.ref, std::move(req.batch));
      Response resp(batch_status(rs));
      resp.batch = std::move(rs);
      co_return resp;
    }
  }
  co_return Response(OpStatus::Nack);
}

MusicClient::MusicClient(sim::Simulation& sim, sim::Network& net,
                         std::vector<MusicReplica*> replicas, ClientConfig cfg,
                         int site)
    : sim_(sim),
      cfg_(cfg),
      site_(site),
      node_(net.add_node(site)),
      rng_(0x636c69656e74ull ^ (static_cast<uint64_t>(node_) * 0x9e3779b9ull)),
      health_(replicas.size()) {
  own_transport_ = std::make_unique<net::SimTransport>(sim, net);
  peers_.reserve(replicas.size());
  for (MusicReplica* rep : replicas) {
    peers_.push_back(rep->node());
    bind_replica(*own_transport_, *rep);
  }
  transport_ = own_transport_.get();
}

MusicClient::MusicClient(sim::Simulation& sim, net::Transport& transport,
                         std::vector<net::PeerId> peers, ClientConfig cfg,
                         int site, net::PeerId node)
    : sim_(sim),
      cfg_(cfg),
      site_(site),
      node_(node),
      rng_(0x636c69656e74ull ^ (static_cast<uint64_t>(node_) * 0x9e3779b9ull)),
      peers_(std::move(peers)),
      transport_(&transport),
      health_(peers_.size()) {}

int MusicClient::pick_replica(int attempt) {
  // Counted twice rather than collected: this runs on every attempt and
  // every acquire poll, so it stays allocation-free.
  auto eligible = [this](size_t i, bool healthy_only) {
    return transport_->peer_up(peers_[i]) &&
           (!healthy_only || health_[i].quarantined_until <= sim_.now());
  };
  // Prefer replicas that are up and not quarantined; when everything
  // healthy is quarantined, probe the up replicas anyway rather than
  // stalling the operation.
  for (bool healthy_only : {true, false}) {
    size_t count = 0;
    for (size_t i = 0; i < peers_.size(); ++i) {
      if (eligible(i, healthy_only)) ++count;
    }
    if (count == 0) continue;
    size_t pick = static_cast<size_t>(attempt) % count;
    for (size_t i = 0; i < peers_.size(); ++i) {
      if (eligible(i, healthy_only) && pick-- == 0) return static_cast<int>(i);
    }
  }
  return -1;
}

void MusicClient::note_result(size_t idx, bool responsive) {
  ReplicaHealth& h = health_[idx];
  if (responsive) {
    h.consecutive_failures = 0;
    h.quarantined_until = 0;
    return;
  }
  ++h.consecutive_failures;
  if (h.consecutive_failures >= cfg_.health_fail_threshold) {
    if (sim_.now() >= h.quarantined_until) ++stats_.demotions;
    h.quarantined_until = sim_.now() + cfg_.health_quarantine;
  }
}

sim::Duration decorrelated_backoff(const ClientConfig& cfg, sim::Rng& rng,
                                   sim::Duration prev) {
  // The jitter math lives at the sim layer (sim/rng.h) so the TCP reconnect
  // loop — which sits below src/core — shares the exact same scheme.
  return sim::decorrelated_backoff(cfg.retry_backoff_base, cfg.retry_backoff_cap,
                                   prev, rng);
}

sim::Duration MusicClient::next_backoff(sim::Duration prev) {
  return decorrelated_backoff(cfg_, rng_, prev);
}

sim::Task<Response> MusicClient::invoke(net::PeerId peer, Request req) {
  auto reply =
      transport_->invoke(node_, peer, std::move(req), cfg_.overhead_bytes);
  auto got = co_await sim::await_with_timeout<Response>(sim_, reply,
                                                        cfg_.request_timeout);
  if (!got) co_return Response(OpStatus::Timeout);
  co_return *got;
}

sim::Task<Response> MusicClient::with_retries(Request req) {
  sim::Time deadline =
      cfg_.op_deadline > 0 ? sim_.now() + cfg_.op_deadline : sim::kTimeNever;
  sim::Duration pause = cfg_.retry_backoff_base;
  for (int attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    int idx = pick_replica(attempt);
    if (idx < 0) continue;  // everything down: fail fast, no sleeps
    ++stats_.attempts;
    Response r = co_await invoke(peers_[static_cast<size_t>(idx)], req);
    note_result(static_cast<size_t>(idx), !is_retryable(r.status));
    if (!is_retryable(r.status)) co_return r;
    ++stats_.retries;
    if (sim_.now() >= deadline) {
      ++stats_.deadline_exceeded;
      co_return Response(OpStatus::RetryExhausted);
    }
    pause = next_backoff(pause);
    co_await sim::sleep_for(sim_, pause);
  }
  ++stats_.retry_exhausted;
  co_return Response(OpStatus::RetryExhausted);
}

sim::Task<Result<LockRef>> MusicClient::create_lock_ref(Key key) {
  sim::OpSpan span(sim_, "client.create_lock_ref", site_, node_,
                   key);
  // NOTE: a retried createLockRef whose first attempt actually committed
  // (ack lost) leaves an orphan lockRef in the queue; §IV-B: it is removed
  // by forcedRelease when it reaches the head.
  Response r = co_await with_retries(
      Request(Request::Op::CreateLockRef, std::move(key), 0, Value()));
  if (r.status != OpStatus::Ok) co_return Result<LockRef>::Err(r.status);
  co_return Result<LockRef>::Ok(r.ref);
}

sim::Task<Status> MusicClient::acquire_lock(Key key, LockRef ref) {
  // A single poll at the first eligible replica (the preferred one unless
  // it is down or quarantined); NotYetHolder is a normal outcome, not a
  // failure (the caller's polling loop drives the retries).
  int idx = pick_replica(0);
  if (idx < 0) co_return Status(OpStatus::Timeout);
  Response r = co_await invoke(
      peers_[static_cast<size_t>(idx)],
      Request(Request::Op::AcquireLock, std::move(key), ref, Value()));
  note_result(static_cast<size_t>(idx), !is_retryable(r.status));
  co_return Status(r.status);
}

sim::Task<Status> MusicClient::acquire_lock_blocking(Key key, LockRef ref) {
  sim::OpSpan span(sim_, "client.acquire_lock", site_, node_,
                   key);
  // Listing 1: while (acquireLock(key, lockRef) != true) skip;  — with the
  // paper's "standard back-off mechanisms".
  OpStatus last = OpStatus::Timeout;
  for (int attempt = 0; attempt < cfg_.max_poll_attempts; ++attempt) {
    // Stick with one replica for 8 polls before rotating; the health table
    // steers polls away from dead/gray replicas.
    int idx = pick_replica(attempt / 8);
    if (idx < 0) continue;
    ++stats_.attempts;
    Response r = co_await invoke(
        peers_[static_cast<size_t>(idx)],
        Request(Request::Op::AcquireLock, key, ref, Value()));
    last = r.status;
    note_result(static_cast<size_t>(idx), !is_retryable(last));
    // Poll again on NotYetHolder (not yet first in queue) and on the
    // transient statuses; everything else is a final answer.
    if (!is_retryable(last) && last != OpStatus::NotYetHolder) {
      co_return Status(last);
    }
    co_await sim::sleep_for(sim_, cfg_.poll_backoff);
  }
  co_return Status(OpStatus::Timeout);
}

sim::Task<Status> MusicClient::critical_put(Key key, LockRef ref,
                                            Value value) {
  sim::OpSpan span(sim_, "client.critical_put", site_, node_,
                   key);
  Response r = co_await with_retries(Request(
      Request::Op::CriticalPut, std::move(key), ref, std::move(value)));
  co_return Status(r.status);
}

sim::Task<Result<Value>> MusicClient::critical_get(Key key, LockRef ref) {
  sim::OpSpan span(sim_, "client.critical_get", site_, node_,
                   key);
  Response r = co_await with_retries(
      Request(Request::Op::CriticalGet, std::move(key), ref, Value()));
  if (r.status != OpStatus::Ok) co_return Result<Value>::Err(r.status);
  co_return Result<Value>::Ok(std::move(r.value));
}

sim::Task<Status> MusicClient::critical_delete(Key key, LockRef ref) {
  sim::OpSpan span(sim_, "client.critical_delete", site_, node_,
                   key);
  Response r = co_await with_retries(
      Request(Request::Op::CriticalDelete, std::move(key), ref, Value()));
  co_return Status(r.status);
}

sim::Task<std::vector<BatchOpResult>> MusicClient::execute_batch(
    Key key, LockRef ref, std::vector<BatchOp> ops) {
  sim::OpSpan span(sim_, "client.batch", site_, node_, key);
  size_t n = ops.size();
  Response r = co_await with_retries(
      Request(Request::Op::Batch, std::move(key), ref, std::move(ops)));
  if (r.batch.size() != n) {
    // Wire-level failure (no replica answer): fail every sub-op uniformly
    // so callers always get a result vector aligned with their ops.
    r.batch.assign(n, BatchOpResult(r.status));
  }
  co_return std::move(r.batch);
}

sim::Task<Status> MusicClient::release_lock(Key key, LockRef ref) {
  sim::OpSpan span(sim_, "client.release_lock", site_, node_,
                   key);
  Response r = co_await with_retries(
      Request(Request::Op::ReleaseLock, std::move(key), ref, Value()));
  co_return Status(r.status);
}

sim::Task<Status> MusicClient::remove_lock_ref(Key key, LockRef ref) {
  co_return co_await release_lock(std::move(key), ref);
}

sim::Task<Status> MusicClient::forced_release(Key key, LockRef ref) {
  sim::OpSpan span(sim_, "client.forced_release", site_, node_,
                   key);
  Response r = co_await with_retries(
      Request(Request::Op::ForcedRelease, std::move(key), ref, Value()));
  co_return Status(r.status);
}

sim::Task<Status> MusicClient::put(Key key, Value value) {
  sim::OpSpan span(sim_, "client.put_eventual", site_, node_,
                   key);
  Response r = co_await with_retries(Request(
      Request::Op::PutEventual, std::move(key), 0, std::move(value)));
  co_return Status(r.status);
}

sim::Task<Result<Value>> MusicClient::get(Key key) {
  sim::OpSpan span(sim_, "client.get_eventual", site_, node_,
                   key);
  Response r = co_await with_retries(
      Request(Request::Op::GetEventual, std::move(key), 0, Value()));
  if (r.status != OpStatus::Ok) co_return Result<Value>::Err(r.status);
  co_return Result<Value>::Ok(std::move(r.value));
}

sim::Task<Result<std::vector<Key>>> MusicClient::get_all_keys(Key prefix) {
  Response r = co_await with_retries(
      Request(Request::Op::GetAllKeys, std::move(prefix), 0, Value()));
  if (r.status != OpStatus::Ok) {
    co_return Result<std::vector<Key>>::Err(r.status);
  }
  co_return Result<std::vector<Key>>::Ok(std::move(r.keys));
}

}  // namespace music::core
