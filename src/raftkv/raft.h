// Raft consensus (CockroachDB substitute, Fig. 7's baseline).
//
// CockroachDB replicates each range through Raft; every transaction commit
// is one consensus round at the leaseholder.  This module implements the
// Raft core — randomized-timeout leader election, heartbeats, log
// replication with the prevIndex/prevTerm consistency check, majority
// commit, in-order apply — over the simulated network, with log fsyncs at
// leader and followers (Raft's durability requirement).  The state machine
// is a KV map with optional compare-and-set commands, which is what the
// transactional layer in txkv.h needs to run the paper's §X-B3 critical
// section recipe.
//
// Simplifications (documented; irrelevant to the paper's cost model): no
// snapshots/log compaction, leader reads use the leader-lease shortcut
// instead of a read-index round (CockroachDB does the same with leases).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/future.h"
#include "sim/network.h"
#include "sim/service.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace music::raftkv {

/// Client-visible request timeout, at a node and at a TxClient.
inline constexpr sim::Duration kOpTimeout = sim::sec(5);

/// A state-machine command: a write batch, optionally guarded by a
/// compare-and-set condition evaluated at apply time (atomic with the
/// writes).  This is what gives the txkv layer atomic lock acquisition.
struct Command {
  std::vector<std::pair<Key, Value>> writes;
  /// If set, the command applies only when state[expect_key] == expect_val
  /// (empty expect_val means "key absent or empty").
  std::optional<Key> expect_key;
  Value expect_val;

  Command() = default;
  explicit Command(std::vector<std::pair<Key, Value>> w)
      : writes(std::move(w)) {}
  Command(std::vector<std::pair<Key, Value>> w, Key ek, Value ev)
      : writes(std::move(w)), expect_key(std::move(ek)), expect_val(std::move(ev)) {}

  size_t bytes() const {
    size_t n = 32;
    for (const auto& [k, v] : writes) n += k.size() + v.size();
    return n;
  }
};

struct LogEntry {
  int64_t term = 0;
  Command cmd;

  LogEntry() = default;
  LogEntry(int64_t t, Command c) : term(t), cmd(std::move(c)) {}
};

enum class Role { Follower, Candidate, Leader };

/// Result of proposing a command.
struct ProposeOutcome {
  OpStatus status = OpStatus::Timeout;
  /// When status == Ok: whether the CAS condition held and writes applied.
  bool applied = false;

  ProposeOutcome() = default;
  ProposeOutcome(OpStatus s, bool a) : status(s), applied(a) {}
};

class RaftCluster;

/// One Raft peer.
class RaftNode {
 public:
  RaftNode(RaftCluster& cluster, sim::NodeId node, int site, int id);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  sim::NodeId node() const { return node_; }
  int site() const { return site_; }
  int id() const { return id_; }
  Role role() const { return role_; }
  int64_t term() const { return term_; }
  /// Who this node believes is leader (-1 unknown).
  int leader_hint() const { return leader_hint_; }
  sim::ServiceNode& service() { return service_; }
  RaftCluster& cluster_ref() { return cluster_; }

  /// Proposes a command.  Resolves Ok(applied?) once the entry commits and
  /// applies; Conflict if this node is not the leader (redirect using
  /// leader_hint); Timeout if the entry cannot commit in time (e.g. lost
  /// leadership).
  sim::Task<ProposeOutcome> propose(Command cmd);

  /// Leader-lease read of the applied state.  Conflict if not leader.
  sim::Task<Result<Value>> read(Key key);

  /// Applied KV state (tests/oracle).
  const std::unordered_map<Key, Value>& state() const { return kv_; }
  int64_t commit_index() const { return commit_index_; }
  int64_t last_log_index() const { return static_cast<int64_t>(log_.size()); }

  void set_down(bool down);
  bool down() const { return service_.down(); }

  // ---- Message handlers (invoked via RaftCluster::post). --------------------

  void on_request_vote(int64_t term, int candidate, int64_t last_log_index,
                       int64_t last_log_term);
  void on_vote_reply(int64_t term, bool granted, int from);
  void on_append_entries(int64_t term, int leader, int64_t prev_index,
                         int64_t prev_term, std::vector<LogEntry> entries,
                         int64_t leader_commit);
  void on_append_reply(int64_t term, bool success, int64_t match_index,
                       int from);

 private:
  friend class RaftCluster;

  sim::Simulation& sim();

  void become_follower(int64_t term);
  void become_candidate();
  void become_leader();
  void send_heartbeats();
  void replicate_to(int peer);
  void advance_commit();
  void apply_committed();
  sim::Duration random_election_timeout();
  void election_tick();

  int64_t term_of(int64_t index) const {
    return index == 0 ? 0 : log_.at(static_cast<size_t>(index - 1)).term;
  }

  RaftCluster& cluster_;
  sim::NodeId node_;
  int site_;
  int id_;
  sim::ServiceNode service_;
  sim::Disk disk_;

  Role role_ = Role::Follower;
  int64_t term_ = 0;
  int voted_for_ = -1;
  int leader_hint_ = -1;
  std::vector<LogEntry> log_;  // 1-based indexing via helpers
  int64_t commit_index_ = 0;
  int64_t last_applied_ = 0;
  int64_t durable_index_ = 0;  // highest log index fsynced locally
  std::unordered_map<Key, Value> kv_;

  // Leader state.
  std::vector<int64_t> next_index_;
  std::vector<int64_t> match_index_;
  // index -> (promise, applied-flag slot) for client proposals.
  std::map<int64_t, sim::Promise<ProposeOutcome>> waiting_;
  std::map<int64_t, bool> applied_flags_;

  // Candidate state.
  int votes_ = 0;

  sim::Time last_heartbeat_seen_ = 0;
  sim::Duration election_timeout_ = 0;
  bool tick_loop_running_ = false;
  sim::Rng rng_;
};

/// The cluster: registry + message fabric + timers.
class RaftCluster {
 public:
  RaftCluster(sim::Simulation& sim, sim::Network& net,
              const std::vector<int>& node_sites);

  sim::Simulation& simulation() { return sim_; }
  sim::Network& network() { return net_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int quorum() const { return num_nodes() / 2 + 1; }
  RaftNode& node(int id) { return *nodes_.at(static_cast<size_t>(id)); }
  RaftNode& node_at_site(int site);
  /// The current leader, if any node is one (tests).
  RaftNode* leader();

  /// Starts election/heartbeat timers everywhere.
  void start();

  /// Runs the simulation until a leader exists (test convenience).  Returns
  /// the leader or nullptr after `limit`.
  RaftNode* wait_for_leader(sim::Duration limit = sim::sec(30));

  /// Sends a handler to run on node `to_id` (network + service queue).
  /// `Fn` is deduced (any callable void(RaftNode&)) so the handler rides
  /// the network's pooled InlineFn frames without a std::function
  /// allocation per hop.
  template <typename Fn>
  void post(sim::NodeId from, int to_id, size_t bytes, Fn fn,
            sim::MsgKind kind = sim::MsgKind::Generic) {
    RaftNode& target = node(to_id);
    if (from == target.node()) {
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
  void schedule_tick(RaftNode* node);

  sim::Simulation& sim_;
  sim::Network& net_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
};

}  // namespace music::raftkv
