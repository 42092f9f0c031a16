// Zookeeper substitute: a Zab-style atomic broadcast ensemble (Fig. 6's
// baseline).
//
// Models the properties the paper's Zookeeper comparison depends on:
//   * a stable leader through which every write is serialized ("we observed
//     a stable consensus leader in Zookeeper ... these performance
//     differences are perhaps due to the queuing effects of consensus
//     writes", §VIII-c);
//   * the Zab two-phase broadcast [19]: leader assigns a zxid, proposes to
//     followers, commits after a quorum of acks — one WAN round trip per
//     write, like a MUSIC quorum put;
//   * Zookeeper's synchronous transaction-log fsync on leader and followers
//     before acknowledging a proposal (the durability cost Cassandra's
//     periodic commit-log sync does not pay per write);
//   * strictly ordered commit delivery (zxid order), giving sequentially
//     consistent writes with local reads.
//
// Leader failover is included (epoch bump, highest-id live server wins) so
// the failure tests can exercise it, with the simplification that follower
// logs are assumed caught-up at election (no log-sync phase).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/future.h"
#include "sim/network.h"
#include "sim/service.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace music::zab {

class ZabEnsemble;

/// One Zookeeper server.
class ZabServer {
 public:
  ZabServer(ZabEnsemble& ensemble, sim::NodeId node, int site, int id);

  ZabServer(const ZabServer&) = delete;
  ZabServer& operator=(const ZabServer&) = delete;

  sim::NodeId node() const { return node_; }
  int site() const { return site_; }
  int id() const { return id_; }
  bool is_leader() const;
  sim::ServiceNode& service() { return service_; }
  ZabEnsemble& ensemble() { return ensemble_; }

  // ---- Client operations (issued at any server; writes forward to the
  // ---- leader).  setData/create/remove are sequentially consistent;
  // ---- getData is a local read, as in Zookeeper.

  sim::Task<Status> set_data(Key path, Value data);
  sim::Task<Result<Value>> get_data(Key path);
  /// A sync+read: local read after a quorum round, for read-your-writes
  /// across servers (Zookeeper's sync() recipe).
  sim::Task<Result<Value>> sync_get_data(Key path);
  sim::Task<Status> remove(Key path);

  /// CreateMode.PERSISTENT_SEQUENTIAL: creates `prefix` + a zero-padded,
  /// monotonically increasing sequence number assigned by the leader, and
  /// returns the created path.  The building block of the Zookeeper lock
  /// recipe [27-29].
  sim::Task<Result<Key>> create_sequential(Key prefix, Value data);

  /// Children of `prefix` (paths starting with it), sorted, from this
  /// server's local tree after a sync flush (so the view is current as of
  /// the call).
  sim::Task<Result<std::vector<Key>>> sync_list(Key prefix);

  /// Crash / restart.
  void set_down(bool down);
  bool down() const { return service_.down(); }

  /// Committed writes applied to this server's tree (diagnostics).
  uint64_t applied() const { return applied_count_; }

  /// Opt-in recording of the applied zxid sequence (consistency tests;
  /// off by default to keep long benchmark runs lean).
  void record_applied(bool on) { record_applied_ = on; }
  const std::vector<int64_t>& applied_zxids() const { return applied_zxids_; }

 private:
  friend class ZabEnsemble;

  struct Txn {
    int64_t zxid = 0;
    Key path;
    Value data;
    bool deleted = false;

    Txn() = default;
    Txn(int64_t z, Key p, Value d, bool del)
        : zxid(z), path(std::move(p)), data(std::move(d)), deleted(del) {}
    size_t bytes() const { return path.size() + data.size() + 24; }
  };

  struct Pending {
    Txn txn;
    int acks = 0;
    bool committed = false;
    sim::Promise<bool> done;

    Pending(Txn t, sim::Promise<bool> d) : txn(std::move(t)), done(std::move(d)) {}
  };

  sim::Simulation& sim();

  /// Shared write path behind set_data/remove (forwards to the leader).
  sim::Task<Status> write(Key path, Value data, bool deleted);

  /// Leader-side: broadcast a txn, resolve when quorum-committed.  The
  /// assigned zxid is written to *zxid_out immediately (before the future
  /// resolves) so forwarding followers can wait for their local commit.
  sim::Future<bool> broadcast(Txn txn, int64_t* zxid_out = nullptr);

  /// Resolves `reply` once this server has applied `zxid` (Zookeeper
  /// responds to a client only after the connected server commits locally,
  /// which is what gives clients read-your-writes at their server).
  void reply_when_applied(int64_t zxid, sim::Promise<bool> reply);
  /// Leader-side: commit everything quorum-acked in zxid order.
  void try_commit();
  void apply(const Txn& txn);

  // Message handlers (run on this server after network + service queue).
  void on_propose(int64_t epoch, Txn txn, sim::NodeId from);
  void on_ack(int64_t epoch, int64_t zxid);
  void on_commit(int64_t epoch, Txn txn);
  void on_heartbeat(int64_t epoch, int leader_id);

  /// Election: adopt the highest live id as leader of a new epoch.
  void maybe_elect();
  void election_tick();

  ZabEnsemble& ensemble_;
  sim::NodeId node_;
  int site_;
  int id_;
  sim::ServiceNode service_;
  sim::Disk disk_;

  int64_t epoch_ = 0;
  int leader_id_ = 0;
  int64_t next_zxid_ = 1;
  int64_t last_committed_ = 0;
  std::map<int64_t, Pending> pending_;           // leader: in-flight txns
  std::map<int64_t, Txn> commit_buffer_;         // follower: out-of-order commits
  int64_t last_applied_ = 0;
  std::unordered_map<Key, Value> tree_;
  uint64_t applied_count_ = 0;
  bool record_applied_ = false;
  std::vector<int64_t> applied_zxids_;
  std::multimap<int64_t, sim::Promise<bool>> apply_waiters_;
  sim::Time last_heartbeat_seen_ = 0;
  bool election_loop_running_ = false;
};

/// The ensemble: registry, quorum math, message fabric.
class ZabEnsemble {
 public:
  ZabEnsemble(sim::Simulation& sim, sim::Network& net,
              const std::vector<int>& server_sites);

  sim::Simulation& simulation() { return sim_; }
  sim::Network& network() { return net_; }

  int num_servers() const { return static_cast<int>(servers_.size()); }
  int quorum() const { return num_servers() / 2 + 1; }
  ZabServer& server(int id) { return *servers_.at(static_cast<size_t>(id)); }
  ZabServer& server_at_site(int site);
  ZabServer* leader();

  /// Starts heartbeats and failure detection on every server.
  void start();

  /// Sends a handler to run on server `id` (network + service queue).
  /// Out-of-range ids (e.g. an unknown leader) drop the message, exactly
  /// like a message to a dead node.  `Fn` is deduced (any callable
  /// void(ZabServer&)) so the handler rides the network's pooled InlineFn
  /// frames without a std::function allocation per hop.
  template <typename Fn>
  void post(sim::NodeId from, int to_id, size_t bytes, Fn fn,
            sim::MsgKind kind = sim::MsgKind::Generic) {
    if (to_id < 0 || to_id >= num_servers()) return;  // unknown target: drop
    ZabServer& target = server(to_id);
    if (from == target.node()) {
      // Loopback still pays the service cost.
      target.service().submit(
          bytes, [&target, fn = std::move(fn)]() mutable { fn(target); });
      return;
    }
    net_.send(
        from, target.node(), bytes,
        [&target, bytes, fn = std::move(fn)]() mutable {
          target.service().submit(
              bytes, [&target, fn = std::move(fn)]() mutable { fn(target); });
        },
        kind);
  }

 private:
  void schedule_tick(ZabServer* srv);

  sim::Simulation& sim_;
  sim::Network& net_;
  std::vector<std::unique_ptr<ZabServer>> servers_;
};

/// Client handle: lives at a site, talks to the nearest server, retries on
/// failures (used by benches and the failover test).
class ZkClient {
 public:
  ZkClient(ZabEnsemble& ensemble, int site);

  sim::Task<Status> set_data(Key path, Value data);
  sim::Task<Result<Value>> get_data(Key path);

 private:
  sim::Task<Status> request(Key path, Value data);

  ZabEnsemble& ensemble_;
  int site_;
  sim::NodeId node_;
};

}  // namespace music::zab
