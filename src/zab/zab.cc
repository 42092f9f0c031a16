#include "zab/zab.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/span.h"

namespace music::zab {

namespace {

/// Leader heartbeat period.
constexpr sim::Duration kHeartbeat = sim::ms(250);
/// A follower that misses heartbeats this long starts an election.
constexpr sim::Duration kElectionTimeout = sim::ms(1500);
/// Client-visible request timeout at a server.
constexpr sim::Duration kOpTimeout = sim::sec(5);

}  // namespace

// ---- ZabServer --------------------------------------------------------------

ZabServer::ZabServer(ZabEnsemble& ensemble, sim::NodeId node, int site, int id)
    : ensemble_(ensemble),
      node_(node),
      site_(site),
      id_(id),
      // Same server as the data store's nodes (the paper's testbed);
      // Zookeeper fsyncs its txn log before acking every proposal.
      service_(ensemble.simulation(), sim::kServerModel),
      disk_(ensemble.simulation(), sim::kFsyncDisk) {}

sim::Simulation& ZabServer::sim() { return ensemble_.simulation(); }

bool ZabServer::is_leader() const { return leader_id_ == id_ && !down(); }

sim::Future<bool> ZabServer::broadcast(Txn txn, int64_t* zxid_out) {
  sim::Promise<bool> done(sim());
  txn.zxid = next_zxid_++;
  int64_t zxid = txn.zxid;
  if (zxid_out != nullptr) *zxid_out = zxid;
  int64_t epoch = epoch_;
  size_t bytes = txn.bytes() + sim::kFramingBytes;
  pending_.emplace(zxid, Pending(txn, done));
  // One propose/ack WAN round trip to reach quorum commit.
  sim::trace_rtts(sim(), 1);
  // Zookeeper forces the transaction to the log before acknowledging; the
  // leader's own ack also waits for its fsync.
  disk_.write_sync(txn.bytes(), [this, epoch, zxid] { on_ack(epoch, zxid); });
  for (int i = 0; i < ensemble_.num_servers(); ++i) {
    if (i == id_) continue;
    ensemble_.post(
        node_, i, bytes,
        [epoch, txn, leader = id_](ZabServer& f) {
          f.on_propose(epoch, txn, sim::NodeId{});
          (void)leader;
        },
        sim::MsgKind::ZabProposal);
  }
  return done.future();
}

void ZabServer::on_propose(int64_t epoch, Txn txn, sim::NodeId /*from*/) {
  if (epoch < epoch_) return;  // stale leader
  if (epoch > epoch_) {
    epoch_ = epoch;
  }
  last_heartbeat_seen_ = sim().now();
  int64_t zxid = txn.zxid;
  // Follower durability: fsync, then ack to the leader.
  disk_.write_sync(txn.bytes(), [this, epoch, zxid] {
    size_t small = sim::kFramingBytes;
    ensemble_.post(
        node_, leader_id_, small,
        [epoch, zxid](ZabServer& l) { l.on_ack(epoch, zxid); },
        sim::MsgKind::ZabAck);
  });
}

void ZabServer::on_ack(int64_t epoch, int64_t zxid) {
  if (epoch != epoch_ || !is_leader()) return;
  auto it = pending_.find(zxid);
  if (it == pending_.end()) return;
  it->second.acks += 1;
  try_commit();
}

void ZabServer::try_commit() {
  // Zab delivers strictly in zxid order: commit from the front of the
  // pending window only.
  while (!pending_.empty()) {
    auto it = pending_.begin();
    if (it->second.acks < ensemble_.quorum()) break;
    Txn txn = it->second.txn;
    sim::Promise<bool> done = it->second.done;
    pending_.erase(it);
    last_committed_ = txn.zxid;
    apply(txn);
    size_t bytes = txn.bytes() + sim::kFramingBytes;
    int64_t epoch = epoch_;
    for (int i = 0; i < ensemble_.num_servers(); ++i) {
      if (i == id_) continue;
      ensemble_.post(
          node_, i, bytes,
          [epoch, txn](ZabServer& f) { f.on_commit(epoch, txn); },
          sim::MsgKind::ZabCommit);
    }
    done.set_value(true);
  }
}

void ZabServer::apply(const Txn& txn) {
  if (txn.deleted) {
    tree_.erase(txn.path);
  } else {
    tree_[txn.path] = txn.data;
  }
  last_applied_ = std::max(last_applied_, txn.zxid);
  ++applied_count_;
  if (record_applied_) applied_zxids_.push_back(txn.zxid);
  while (!apply_waiters_.empty() &&
         apply_waiters_.begin()->first <= last_applied_) {
    apply_waiters_.begin()->second.set_value(true);
    apply_waiters_.erase(apply_waiters_.begin());
  }
}

void ZabServer::reply_when_applied(int64_t zxid, sim::Promise<bool> reply) {
  if (last_applied_ >= zxid) {
    reply.set_value(true);
  } else {
    apply_waiters_.emplace(zxid, std::move(reply));
  }
}

void ZabServer::on_commit(int64_t epoch, Txn txn) {
  if (epoch < epoch_) return;
  if (epoch > epoch_) {
    // New leader: adopt and fast-forward (log sync elided; see header).
    epoch_ = epoch;
    commit_buffer_.clear();
    apply(txn);
    return;
  }
  if (txn.zxid <= last_applied_) return;
  commit_buffer_.emplace(txn.zxid, txn);
  // Apply in order; Zab guarantees gap-free delivery per epoch.
  while (!commit_buffer_.empty() &&
         commit_buffer_.begin()->first == last_applied_ + 1) {
    apply(commit_buffer_.begin()->second);
    commit_buffer_.erase(commit_buffer_.begin());
  }
}

void ZabServer::on_heartbeat(int64_t epoch, int leader_id) {
  if (epoch < epoch_) return;
  epoch_ = epoch;
  leader_id_ = leader_id;
  last_heartbeat_seen_ = sim().now();
}

void ZabServer::maybe_elect() {
  // Simplified election (documented): the highest-id live server takes over
  // with a fresh epoch.  Leader election mechanics are not the paper's
  // subject; this provides the stable-leader property plus failover.
  int highest_live = -1;
  for (int i = ensemble_.num_servers() - 1; i >= 0; --i) {
    if (!ensemble_.server(i).down()) {
      highest_live = i;
      break;
    }
  }
  if (highest_live != id_) return;
  epoch_ += 1;
  leader_id_ = id_;
  next_zxid_ = last_applied_ + 1;
  pending_.clear();
  int64_t epoch = epoch_;
  for (int i = 0; i < ensemble_.num_servers(); ++i) {
    if (i == id_) continue;
    ensemble_.post(
        node_, i, sim::kFramingBytes,
        [epoch, me = id_](ZabServer& f) { f.on_heartbeat(epoch, me); },
        sim::MsgKind::ZabElection);
  }
}

void ZabServer::election_tick() {
  if (down()) return;
  if (is_leader()) {
    int64_t epoch = epoch_;
    for (int i = 0; i < ensemble_.num_servers(); ++i) {
      if (i == id_) continue;
      ensemble_.post(
          node_, i, sim::kFramingBytes,
          [epoch, me = id_](ZabServer& f) { f.on_heartbeat(epoch, me); },
          sim::MsgKind::ZabHeartbeat);
    }
  } else if (sim().now() - last_heartbeat_seen_ > kElectionTimeout) {
    maybe_elect();
  }
}

sim::Task<Status> ZabServer::set_data(Key path, Value data) {
  co_return co_await write(std::move(path), std::move(data), false);
}

sim::Task<Status> ZabServer::write(Key path, Value data, bool deleted) {
  sim::OpSpan span(sim(), "zab.write", site_, node_, path);
  if (down()) co_return OpStatus::Timeout;
  Txn txn(0, std::move(path), std::move(data), deleted);
  if (is_leader()) {
    auto committed = co_await sim::await_with_timeout<bool>(
        sim(), broadcast(std::move(txn)), kOpTimeout);
    co_return committed.has_value() ? Status::Ok()
                                    : Status::Err(OpStatus::Timeout);
  }
  // Forward to the leader; it acknowledges with the assigned zxid once the
  // txn commits, and we reply to the client only after our own local
  // commit of that zxid (read-your-writes at the connected server).
  sim::Promise<bool> local_commit(sim());
  // Forward-to-leader and commit-notify: one extra WAN round trip.
  sim::trace_rtts(sim(), 1);
  size_t bytes = txn.bytes() + sim::kFramingBytes;
  ensemble_.post(node_, leader_id_, bytes,
                 [txn, local_commit, back = id_](ZabServer& l) {
                   if (!l.is_leader()) return;  // stale view; client times out
                   int64_t zxid = 0;
                   auto fut = l.broadcast(txn, &zxid);
                   fut.on_value([&l, local_commit, back, zxid](const bool&) {
                     l.ensemble_.post(
                         l.node_, back, sim::kFramingBytes,
                         [local_commit, zxid](ZabServer& f) {
                           f.reply_when_applied(zxid, local_commit);
                         });
                   });
                 });
  auto done = co_await sim::await_with_timeout<bool>(
      sim(), local_commit.future(), kOpTimeout);
  co_return done.has_value() ? Status::Ok() : Status::Err(OpStatus::Timeout);
}

sim::Task<Result<Value>> ZabServer::get_data(Key path) {
  // Zookeeper reads are served locally by the connected server.
  sim::OpSpan span(sim(), "zab.read", site_, node_, path);
  if (down()) co_return Result<Value>::Err(OpStatus::Timeout);
  sim::Promise<Result<Value>> p(sim());
  service_.submit(path.size() + 64, [this, path, p] {
    auto it = tree_.find(path);
    p.set_value(it == tree_.end() ? Result<Value>::Err(OpStatus::NotFound)
                                  : Result<Value>::Ok(it->second));
  });
  co_return co_await p.future();
}

sim::Task<Result<Value>> ZabServer::sync_get_data(Key path) {
  if (down()) co_return Result<Value>::Err(OpStatus::Timeout);
  // sync(): a null broadcast flushes the leader pipeline to this server,
  // then the local read is current.
  auto flush = co_await set_data("!sync", Value("1"));
  if (!flush.ok()) co_return Result<Value>::Err(flush.status());
  co_return co_await get_data(std::move(path));
}

sim::Task<Status> ZabServer::remove(Key path) {
  co_return co_await write(std::move(path), Value(), true);
}

sim::Task<Result<Key>> ZabServer::create_sequential(Key prefix, Value data) {
  sim::OpSpan span(sim(), "zab.create_sequential", site_, node_, prefix);
  // The sequence number must be leader-assigned and unique; reuse the zxid
  // by writing a reservation znode first, then renaming is overkill — we
  // instead route a write whose final path embeds the commit zxid.  The
  // simple, faithful construction: one ordinary write to a reservation
  // path, then read our own zxid back via the applied tree.  To keep it a
  // single round (as the real recipe is), the leader stamps the path at
  // proposal time; followers apply the stamped path.
  if (down()) co_return Result<Key>::Err(OpStatus::Timeout);
  // Forward-to-leader with a special marker: the leader rewrites the path
  // to prefix + zero-padded zxid before broadcasting.
  sim::Promise<Result<Key>> done(sim());
  size_t bytes = prefix.size() + data.size() + sim::kFramingBytes;
  ensemble_.post(node_, leader_id_, bytes,
                 [prefix, data, done, back = id_](ZabServer& l) {
                   if (!l.is_leader()) return;  // client retries on timeout
                   char buf[16];
                   std::snprintf(buf, sizeof(buf), "%010lld",
                                 static_cast<long long>(l.next_zxid_));
                   Key path = prefix + buf;
                   int64_t zxid = 0;
                   auto fut = l.broadcast(Txn(0, path, data, false), &zxid);
                   fut.on_value([&l, done, back, path, zxid](const bool&) {
                     l.ensemble_.post(l.node_, back, sim::kFramingBytes,
                                      [done, path, zxid](ZabServer& f) {
                                        sim::Promise<bool> applied(f.sim());
                                        f.reply_when_applied(zxid, applied);
                                        applied.future().on_value(
                                            [done, path](const bool&) {
                                              done.set_value(
                                                  Result<Key>::Ok(path));
                                            });
                                      });
                   });
                 });
  auto got = co_await sim::await_with_timeout<Result<Key>>(
      sim(), done.future(), kOpTimeout);
  if (!got) co_return Result<Key>::Err(OpStatus::Timeout);
  co_return *got;
}

sim::Task<Result<std::vector<Key>>> ZabServer::sync_list(Key prefix) {
  if (down()) co_return Result<std::vector<Key>>::Err(OpStatus::Timeout);
  // sync(): flush the leader pipeline to this server so the listing is
  // current, then scan the local tree.
  auto flush = co_await set_data("!sync", Value("1"));
  if (!flush.ok()) co_return Result<std::vector<Key>>::Err(flush.status());
  sim::Promise<std::vector<Key>> p(sim());
  service_.submit(prefix.size() + 128, [this, prefix, p] {
    std::vector<Key> out;
    for (const auto& [k, v] : tree_) {
      (void)v;
      if (k.rfind(prefix, 0) == 0) out.push_back(k);
    }
    std::sort(out.begin(), out.end());
    p.set_value(std::move(out));
  });
  co_return Result<std::vector<Key>>::Ok(co_await p.future());
}

void ZabServer::set_down(bool down) {
  service_.set_down(down);
  disk_.set_down(down);
  ensemble_.network().set_node_down(node_, down);
  if (down) {
    pending_.clear();
    commit_buffer_.clear();
  } else {
    last_heartbeat_seen_ = sim().now();
  }
}

// ---- ZabEnsemble ------------------------------------------------------------

ZabEnsemble::ZabEnsemble(sim::Simulation& sim, sim::Network& net,
                         const std::vector<int>& server_sites)
    : sim_(sim), net_(net) {
  int id = 0;
  for (int site : server_sites) {
    sim::NodeId node = net_.add_node(site);
    servers_.push_back(std::make_unique<ZabServer>(*this, node, site, id));
    ++id;
  }
  // The initial leader is the highest-id server (as after a fresh election).
  // Set only after every server exists so all views agree.
  for (auto& s : servers_) s->leader_id_ = num_servers() - 1;
}

ZabServer& ZabEnsemble::server_at_site(int site) {
  for (auto& s : servers_) {
    if (s->site() == site && !s->down()) return *s;
  }
  return *servers_.front();
}

ZabServer* ZabEnsemble::leader() {
  for (auto& s : servers_) {
    if (s->is_leader()) return s.get();
  }
  return nullptr;
}

void ZabEnsemble::start() {
  for (auto& s : servers_) {
    ZabServer* srv = s.get();
    srv->last_heartbeat_seen_ = sim_.now();
    if (srv->election_loop_running_) continue;
    srv->election_loop_running_ = true;
    schedule_tick(srv);
  }
}

void ZabEnsemble::schedule_tick(ZabServer* srv) {
  // Self-rescheduling timer event (not a coroutine: the simulation frees
  // queued events on destruction, so nothing outlives the run).
  sim_.schedule(kHeartbeat, [this, srv] {
    srv->election_tick();
    schedule_tick(srv);
  });
}

// ---- ZkClient ---------------------------------------------------------------

namespace {

/// Server-side write wrapper: runs setData and ships the status back.
sim::Task<void> serve_set(ZabServer& s, Key path, Value data,
                          sim::NodeId client, sim::Promise<Status> reply) {
  Status st = co_await s.set_data(std::move(path), std::move(data));
  s.ensemble().network().send(
      s.node(), client, 64, [reply, st] { reply.set_value(st); },
      sim::MsgKind::ClientReply);
}

/// Server-side read wrapper.
sim::Task<void> serve_get(ZabServer& s, Key path, sim::NodeId client,
                          sim::Promise<Result<Value>> reply) {
  auto r = co_await s.get_data(std::move(path));
  size_t bytes = 64 + (r.ok() ? r.value().size() : 0);
  s.ensemble().network().send(
      s.node(), client, bytes, [reply, r] { reply.set_value(r); },
      sim::MsgKind::ClientReply);
}

}  // namespace

ZkClient::ZkClient(ZabEnsemble& ensemble, int site)
    : ensemble_(ensemble),
      site_(site),
      node_(ensemble.network().add_node(site)) {}

sim::Task<Status> ZkClient::set_data(Key path, Value data) {
  sim::OpSpan span(ensemble_.simulation(), "zk.set_data", site_, node_, path);
  // Ship the request to the nearest live server, which runs the write and
  // replies; retry a few times on timeouts (e.g. across a failover).
  for (int attempt = 0; attempt < 8; ++attempt) {
    ZabServer& server = ensemble_.server_at_site(site_);
    ZabServer* srv = &server;
    sim::Promise<Status> reply(ensemble_.simulation());
    size_t bytes = path.size() + data.size() + sim::kFramingBytes;
    ensemble_.network().send(
        node_, server.node(), bytes,
        [srv, path, data, reply, me = node_, bytes] {
          srv->service().submit(bytes, [srv, path, data, reply, me] {
            sim::spawn(srv->ensemble().simulation(),
                       serve_set(*srv, path, data, me, reply));
          });
        },
        sim::MsgKind::ClientRequest);
    auto got = co_await sim::await_with_timeout<Status>(
        ensemble_.simulation(), reply.future(), kOpTimeout);
    if (got.has_value() && got->ok()) co_return *got;
    co_await sim::sleep_for(ensemble_.simulation(), sim::ms(50));
  }
  co_return OpStatus::Timeout;
}

sim::Task<Result<Value>> ZkClient::get_data(Key path) {
  sim::OpSpan span(ensemble_.simulation(), "zk.get_data", site_, node_, path);
  ZabServer& server = ensemble_.server_at_site(site_);
  ZabServer* srv = &server;
  sim::Promise<Result<Value>> reply(ensemble_.simulation());
  size_t bytes = path.size() + sim::kFramingBytes;
  ensemble_.network().send(
      node_, server.node(), bytes,
      [srv, path, reply, me = node_, bytes] {
        srv->service().submit(bytes, [srv, path, reply, me] {
          sim::spawn(srv->ensemble().simulation(),
                     serve_get(*srv, path, me, reply));
        });
      },
      sim::MsgKind::ClientRequest);
  auto got = co_await sim::await_with_timeout<Result<Value>>(
      ensemble_.simulation(), reply.future(), kOpTimeout);
  if (!got) co_return Result<Value>::Err(OpStatus::Timeout);
  co_return *got;
}

}  // namespace music::zab
