#include "raftkv/txkv.h"

#include <utility>

#include "sim/span.h"

namespace music::raftkv {

TxClient::TxClient(RaftCluster& cluster, int site, std::string name)
    : cluster_(cluster),
      site_(site),
      name_(std::move(name)),
      node_(cluster.network().add_node(site)),
      leader_hint_(cluster.num_nodes() - 1) {}

sim::Task<ProposeOutcome> TxClient::propose_at_leader(Command cmd) {
  sim::OpSpan span(cluster_.simulation(), "cdb.txn", site_, node_);
  for (int attempt = 0; attempt < 64; ++attempt) {
    int target_id = leader_hint_;
    if (target_id < 0) target_id = 0;
    RaftNode& target = cluster_.node(target_id);
    if (target.down()) {
      leader_hint_ = (target_id + 1) % cluster_.num_nodes();
      co_await sim::sleep_for(cluster_.simulation(), sim::ms(100));
      continue;
    }
    // Ship the proposal to the target over the network; it replies with the
    // outcome (or we time out).
    sim::Promise<ProposeOutcome> reply(cluster_.simulation());
    size_t bytes = cmd.bytes() + sim::kFramingBytes;
    RaftNode* tp = &target;
    sim::NodeId me = node_;
    cluster_.network().send(
        node_, target.node(), bytes,
        [tp, cmd, me, reply, bytes] {
          tp->service().submit(bytes, [tp, cmd, me, reply] {
            sim::spawn(
                tp->cluster_ref().simulation(),
                [](RaftNode& n, Command c, sim::NodeId client,
                   sim::Promise<ProposeOutcome> rep) -> sim::Task<void> {
                  ProposeOutcome out = co_await n.propose(std::move(c));
                  n.cluster_ref().network().send(
                      n.node(), client, 64,
                      [rep, out] { rep.set_value(out); },
                      sim::MsgKind::ClientReply);
                }(*tp, cmd, me, reply));
          });
        },
        sim::MsgKind::ClientRequest);
    auto got = co_await sim::await_with_timeout<ProposeOutcome>(
        cluster_.simulation(), reply.future(), kOpTimeout);
    if (!got) {
      // Timed out: maybe a dead/partitioned leader; rotate the hint.
      leader_hint_ = (target_id + 1) % cluster_.num_nodes();
      continue;
    }
    if (got->status == OpStatus::Conflict) {
      // Not the leader: adopt its hint (cheap: hints travel on heartbeats).
      int hint = target.leader_hint();
      leader_hint_ = hint >= 0 ? hint : (target_id + 1) % cluster_.num_nodes();
      co_await sim::sleep_for(cluster_.simulation(), sim::ms(20));
      continue;
    }
    if (got->status == OpStatus::Timeout) {
      // The target lost leadership mid-proposal; re-propose elsewhere.  The
      // command may commit anyway — acceptable for the recipe's idempotent
      // upserts and CAS entries (a duplicate CAS simply fails to apply).
      leader_hint_ = (target_id + 1) % cluster_.num_nodes();
      co_await sim::sleep_for(cluster_.simulation(), sim::ms(50));
      continue;
    }
    co_return *got;
  }
  co_return ProposeOutcome(OpStatus::Timeout, false);
}

sim::Task<ProposeOutcome> TxClient::txn_cas(
    std::vector<std::pair<Key, Value>> writes, Key expect_key,
    Value expect_val) {
  co_return co_await propose_at_leader(
      Command(std::move(writes), std::move(expect_key), std::move(expect_val)));
}

sim::Task<ProposeOutcome> TxClient::txn_write(
    std::vector<std::pair<Key, Value>> writes) {
  co_return co_await propose_at_leader(Command(std::move(writes)));
}

sim::Task<Result<Value>> TxClient::select(Key key) {
  sim::OpSpan span(cluster_.simulation(), "cdb.select", site_, node_, key);
  for (int attempt = 0; attempt < 64; ++attempt) {
    int target_id = leader_hint_ < 0 ? 0 : leader_hint_;
    RaftNode& target = cluster_.node(target_id);
    if (target.down()) {
      leader_hint_ = (target_id + 1) % cluster_.num_nodes();
      co_await sim::sleep_for(cluster_.simulation(), sim::ms(100));
      continue;
    }
    sim::Promise<Result<Value>> reply(cluster_.simulation());
    size_t bytes = key.size() + sim::kFramingBytes;
    RaftNode* tp = &target;
    sim::NodeId me = node_;
    cluster_.network().send(
        node_, target.node(), bytes, [tp, key, me, reply, bytes] {
          tp->service().submit(bytes, [tp, key, me, reply] {
            sim::spawn(tp->cluster_ref().simulation(),
                       [](RaftNode& n, Key k, sim::NodeId client,
                          sim::Promise<Result<Value>> rep) -> sim::Task<void> {
                         auto r = co_await n.read(std::move(k));
                         n.cluster_ref().network().send(
                             n.node(), client,
                             64 + (r.ok() ? r.value().size() : 0),
                             [rep, r] { rep.set_value(r); },
                             sim::MsgKind::ClientReply);
                       }(*tp, key, me, reply));
          });
        },
        sim::MsgKind::ClientRequest);
    auto got = co_await sim::await_with_timeout<Result<Value>>(
        cluster_.simulation(), reply.future(), kOpTimeout);
    if (!got) {
      leader_hint_ = (target_id + 1) % cluster_.num_nodes();
      continue;
    }
    if (!got->ok() && got->status() == OpStatus::Conflict) {
      int hint = target.leader_hint();
      leader_hint_ = hint >= 0 ? hint : (target_id + 1) % cluster_.num_nodes();
      co_await sim::sleep_for(cluster_.simulation(), sim::ms(20));
      continue;
    }
    co_return *got;
  }
  co_return Result<Value>::Err(OpStatus::Timeout);
}

sim::Task<Status> TxClient::cs_enter(Key lock_key) {
  // BEGIN; SELECT lock (must be NONE/absent); UPSERT lock=ME; COMMIT.
  // The CAS command is the transactional equivalent: apply iff lock empty.
  for (int attempt = 0; attempt < 4096; ++attempt) {
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back(lock_key, Value(name_));
    auto out = co_await txn_cas(std::move(writes), lock_key, Value(""));
    if (out.status != OpStatus::Ok) co_return Status(out.status);
    if (out.applied) co_return Status::Ok();
    co_await sim::sleep_for(cluster_.simulation(), sim::ms(5));
  }
  co_return OpStatus::Timeout;
}

sim::Task<Status> TxClient::cs_update(Key key, Value value) {
  std::vector<std::pair<Key, Value>> writes;
  writes.emplace_back(std::move(key), std::move(value));
  auto out = co_await txn_write(std::move(writes));
  co_return Status(out.status);
}

sim::Task<Status> TxClient::cs_exit(Key lock_key) {
  // UPSERT lock=NONE; COMMIT — conditioned on still holding it.
  std::vector<std::pair<Key, Value>> writes;
  writes.emplace_back(lock_key, Value(""));
  auto out = co_await txn_cas(std::move(writes), lock_key, Value(name_));
  if (out.status != OpStatus::Ok) co_return Status(out.status);
  co_return out.applied ? Status::Ok() : Status::Err(OpStatus::NotLockHolder);
}

sim::Task<Status> TxClient::critical_section(Key lock_key, Key key,
                                             Value value, int batch) {
  sim::OpSpan span(cluster_.simulation(), "cdb.critical_section", site_, node_,
                   lock_key);
  // §X-B3: each loop iteration is (entry txn, update+exit txn); the lock is
  // re-acquired per iteration exactly as the paper's pseudo-code does.
  for (int i = 0; i < batch; ++i) {
    auto enter = co_await cs_enter(lock_key);
    if (!enter.ok()) co_return enter;
    // UPSERT data + UPSERT lock=NONE in one committing transaction,
    // conditioned on lock ownership (the recipe's in-transaction SELECT).
    std::vector<std::pair<Key, Value>> writes;
    writes.emplace_back(key, value);
    writes.emplace_back(lock_key, Value(""));
    auto out = co_await txn_cas(std::move(writes), lock_key, Value(name_));
    if (out.status != OpStatus::Ok) co_return Status(out.status);
    if (!out.applied) co_return Status::Err(OpStatus::NotLockHolder);
  }
  co_return Status::Ok();
}

}  // namespace music::raftkv
