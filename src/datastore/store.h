// The eventually-consistent, replicated data store (Cassandra substitute).
//
// MUSIC uses Cassandra through four primitives (§III-B, §VI):
//   * eventual reads/writes at one replica   -> Consistency::One
//   * quorum reads/writes                    -> Consistency::Quorum
//   * last-write-wins ordering by a client-supplied scalar timestamp
//     ("USING TIMESTAMP"), into which MUSIC encodes its vector timestamps
//   * light-weight transactions: a Paxos-based compare-and-set costing four
//     round trips (prepare / read / propose / commit)
//
// This module implements exactly those primitives over the simulator: every
// replica is a node on the simulated network with a service-time model;
// coordinators (any replica) fan writes out to all RF replicas of a key,
// wait for the consistency level, leave hints for unreachable replicas, and
// read-repair stale replicas after quorum reads.  Keys are placed on the
// ring so that, as in the paper's deployments, each key has one replica per
// site (3 replicas) regardless of cluster size (3, 6, 9 nodes for Fig 4(b)).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/v2s.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "paxos/paxos.h"
#include "sim/future.h"
#include "sim/network.h"
#include "sim/service.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace music::ds {

/// Cassandra-style consistency levels used by MUSIC.
enum class Consistency { One, Quorum, All };

/// A key with its hash precomputed at construction.  Replica tables are keyed
/// by HashedKey so the hot path (apply_write/local_read on every replicated
/// write and read) hashes each key string once instead of on every probe,
/// and lookups by plain Key go through the transparent overloads below
/// without constructing a HashedKey (no string copy, no rehash churn).
class HashedKey {
 public:
  explicit HashedKey(Key k) : hash_(hash_of(k)), key_(std::move(k)) {}

  const Key& key() const { return key_; }
  uint64_t hash() const { return hash_; }

  /// FNV-1a, stable across platforms (same rationale as ring placement).
  static uint64_t hash_of(std::string_view s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return h;
  }

  friend bool operator==(const HashedKey& a, const HashedKey& b) {
    return a.hash_ == b.hash_ && a.key_ == b.key_;
  }

 private:
  uint64_t hash_;
  Key key_;
};

/// Transparent hasher: HashedKey returns its stored hash; plain strings are
/// hashed on the fly (lookup-by-Key without constructing a HashedKey).
struct HashedKeyHash {
  using is_transparent = void;
  size_t operator()(const HashedKey& k) const {
    return static_cast<size_t>(k.hash());
  }
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(HashedKey::hash_of(s));
  }
};

struct HashedKeyEq {
  using is_transparent = void;
  bool operator()(const HashedKey& a, const HashedKey& b) const {
    return a == b;
  }
  bool operator()(const HashedKey& a, std::string_view b) const {
    return a.key() == b;
  }
  bool operator()(std::string_view a, const HashedKey& b) const {
    return a == b.key();
  }
};

/// A versioned value as stored at a replica: payload plus the scalar
/// timestamp that orders it (MUSIC writes v2s-encoded vector timestamps).
///
/// NOTE: user-declared constructors are required, not stylistic.  GCC 12
/// miscompiles by-value *aggregate* coroutine parameters whose members are
/// non-trivial (the frame parameter copy is made bitwise, so the original's
/// string buffer gets double-freed).  Any struct with non-trivial members
/// that crosses a Task<> coroutine boundary by value must be a
/// non-aggregate; keep constructors on such types.
struct Cell {
  Value value;
  ScalarTs ts = -1;

  Cell() = default;
  Cell(Value v, ScalarTs t) : value(std::move(v)), ts(t) {}
};

/// Outcome of a light-weight transaction.  (User ctors: see Cell note.)
struct LwtOutcome {
  /// True if the update's condition held and the new value was committed.
  bool applied = false;
  /// The committed value the condition was evaluated against (nullopt if
  /// the key did not exist).
  std::optional<Cell> prior;

  LwtOutcome() = default;
  LwtOutcome(bool a, std::optional<Cell> p) : applied(a), prior(std::move(p)) {}
};

/// Decision returned by an LwtUpdate: whether to apply, and with what.
struct LwtDecision {
  bool apply = false;
  Value new_value;
  /// Commit timestamp; if unset the coordinator stamps with the ballot
  /// (fine for keys written exclusively through LWTs, e.g. lock tables).
  std::optional<ScalarTs> ts;

  LwtDecision() = default;
  LwtDecision(bool a, Value v, std::optional<ScalarTs> t)
      : apply(a), new_value(std::move(v)), ts(t) {}
};

/// A compare-and-set step: computes the decision from the current committed
/// cell.  Runs on the coordinator between the LWT's read and propose phases.
using LwtUpdate = std::function<LwtDecision(const std::optional<Cell>&)>;

/// One entry of a multi-cell write.  (User ctors: see Cell note.)
struct WriteCell {
  Key key;
  Cell cell;

  WriteCell() = default;
  WriteCell(Key k, Cell c) : key(std::move(k)), cell(std::move(c)) {}
};

/// Replicas per key.  The paper keeps one copy per site.
inline constexpr int kReplicationFactor = 3;

/// Tunables for the store.
struct StoreConfig {
  /// Repair stale replicas after quorum reads.
  bool read_repair = true;
  /// Periodic anti-entropy repair (Cassandra's `nodetool repair` made
  /// continuous): replicas exchange per-key timestamp digests with a peer
  /// and push newer cells.  Off by default; enable via
  /// StoreCluster::start_anti_entropy().
  sim::Duration anti_entropy_interval = sim::sec(5);
  /// Store and replay writes for unreachable replicas.
  bool hinted_handoff = true;
  /// Workload hint: expected distinct keys per replica.  When nonzero each
  /// replica reserves its value table and Paxos acceptor table up front so
  /// steady-state writes never rehash (benches and soak tests know their key
  /// population; 0 keeps the default growth policy).
  size_t expected_keys = 0;
  /// Compute model for each replica (the testbed server by default).
  sim::ServiceConfig service = sim::kServerModel;
};

class StoreCluster;

/// One storage node: a replica (table + per-key Paxos acceptors) that can
/// also act as a coordinator for any operation.
class StoreReplica {
 public:
  StoreReplica(StoreCluster& cluster, sim::NodeId node, int site);

  StoreReplica(const StoreReplica&) = delete;
  StoreReplica& operator=(const StoreReplica&) = delete;

  sim::NodeId node() const { return node_; }
  int site() const { return site_; }
  sim::ServiceNode& service() { return service_; }

  // ---- Replica-side handlers (run on this node, after network + queueing).

  /// Last-write-wins apply; returns true if the write was newer and taken.
  bool apply_write(const Key& key, const Cell& cell);

  /// The replica's local view of a key (may be stale).
  std::optional<Cell> local_read(const Key& key) const;

  paxos::PrepareReply<Cell> handle_prepare(const Key& key, paxos::Ballot b);
  paxos::AcceptReply handle_accept(const Key& key,
                                   paxos::Proposal<Cell> proposal);
  /// Commit: applies the cell to the table and clears the Paxos slot.
  void handle_commit(const Key& key, paxos::Ballot b, const Cell& cell);

  /// The replica-side wire dispatcher: every inter-replica message lands
  /// here (via the cluster's Transport) and is mapped onto the typed
  /// handlers above.  Synchronous — store handlers are plain state
  /// transitions.
  wire::StoreReply serve_store(const wire::StoreRequest& msg);

  // ---- Coordinator-side operations (this node is the Cassandra
  // ---- coordinator the MUSIC replica or client connected to).

  /// Writes key=cell at the given consistency level.  Fans out to all RF
  /// replicas; succeeds when `level` many acknowledge.
  sim::Task<Status> put(Key key, Cell cell, Consistency level);

  /// Reads the key at the given consistency level: returns the
  /// highest-timestamp cell among the replicas that answered.  NotFound if
  /// the key exists nowhere (among respondents); Timeout if too few answer.
  sim::Task<Result<Cell>> get(Key key, Consistency level);

  /// Batched write: fans every cell out to its replicas at once, then waits
  /// for each key's consistency level.  The fan-out for all keys shares one
  /// network round, so N independent keys cost one WAN round trip rather
  /// than N (the win MUSIC batching is after); only the per-key quorum
  /// waits overlap.  Returns one Status per entry, aligned with `writes`.
  sim::Task<std::vector<Status>> put_cells(std::vector<WriteCell> writes,
                                           Consistency level);

  /// Batched read: issues every key's replica reads at once, then resolves
  /// each key's quorum (same single-round property as put_cells).  Returns
  /// one Result per entry, aligned with `keys`.
  sim::Task<std::vector<Result<Cell>>> get_cells(std::vector<Key> keys,
                                                 Consistency level);

  /// Light-weight transaction (4 round trips).  Runs `update` against the
  /// committed value; commits its decision under Paxos.  Retries internally
  /// on ballot contention up to kLwtMaxAttempts times.
  ///
  /// `update` MUST be a named lvalue in the calling coroutine's frame, not
  /// a lambda temporary at the call site (GCC 12 miscompiles callable
  /// temporaries crossing coroutine boundaries; see the Cell comment).  It
  /// must stay alive until this task completes — immediate co_await of the
  /// call satisfies both.
  sim::Task<Result<LwtOutcome>> lwt(Key key, const LwtUpdate& update);

  /// Keys starting with `prefix` in this coordinator's local table, sorted
  /// (an eventual scan — may be stale; backs MUSIC's getAllKeys helper).
  sim::Task<Result<std::vector<Key>>> scan_local_keys(Key prefix);

  /// Synchronous local-table key enumeration (no service cost, no network):
  /// keys starting with `prefix`, unsorted.  For control-plane inspection —
  /// the cluster layer's shard-move row census — not the data path.
  std::vector<Key> local_keys_with_prefix(std::string_view prefix) const;

  /// Crash / restart this replica (table survives; Paxos state survives —
  /// i.e. crash-recovery with persistent storage, as Cassandra provides).
  void set_down(bool down);
  bool down() const;

  /// Advances this coordinator's LWT ballot round strictly past `ts`.  LWT
  /// commits stamp cells with their ballot, and apply_write is LWW — so a
  /// row imported from another replica set (cluster shard move) with a high
  /// foreign-ballot timestamp would shadow every locally-committed update
  /// until local ballots catch up.  The importing layer calls this on every
  /// replica after a copy so future LWT commits always stamp above imports.
  void advance_ballot_past(ScalarTs ts);

  /// Amnesia crash: discards the table, Paxos acceptor state and queued
  /// hints, as if the node restarted from an empty disk.  NOTE: losing
  /// acceptor/table state can genuinely break quorum durability (data with
  /// fewer than a quorum of surviving copies is gone) — that is the point
  /// of the fault, not a bug in it.  Pair with set_down via the nemesis.
  void wipe_state();

  /// Process restart from a table snapshot: keeps the table, discards what
  /// a real restart discards — Paxos acceptor promises, queued hints and
  /// the ballot counter (musicd's --state-file persists only table rows).
  /// Models the restart-onto-new-binary fault against the in-process
  /// world; lwt() must stay correct with ballots reset under a reloaded
  /// ballot-stamped table.
  void reset_volatile();

  /// Raw table size (diagnostics).
  size_t table_size() const { return table_.size(); }

 private:
  friend class StoreCluster;

  sim::Simulation& sim();
  const StoreConfig& cfg() const;

  /// Ships `msg` to replica `to` through the cluster's Transport and
  /// returns the reply future.  Never fulfilled if the message or reply is
  /// lost.  `bytes`/`reply_bytes` are the payload costs (framing overhead
  /// is added by the transport); `kind`/`reply_kind` tag the hops for
  /// per-type network counters.
  sim::Future<wire::StoreReply> call_store(
      sim::NodeId to, wire::StoreRequest msg, size_t bytes, size_t reply_bytes,
      sim::MsgKind kind = sim::MsgKind::Generic,
      sim::MsgKind reply_kind = sim::MsgKind::StoreAck);

  /// Internal quorum/CL read used by both get() and the LWT read phase.
  sim::Task<Result<Cell>> read_internal(const Key& key, int need,
                                        const std::vector<sim::NodeId>& targets);

  /// Fans a read for `key` out to `targets`; returns the reply futures
  /// without awaiting.  Batched reads issue all keys' fan-outs first so
  /// their network rounds overlap.
  std::vector<sim::Future<wire::StoreReply>> issue_reads(
      const Key& key, const std::vector<sim::NodeId>& targets);

  /// Awaits `need` of the issued replies and picks the winner (read-repair
  /// as in read_internal).  The key is taken by value: the caller's frame
  /// may hold it in a container that mutates while this task is suspended.
  sim::Task<Result<Cell>> resolve_read(
      Key key, int need, std::vector<sim::Future<wire::StoreReply>> reps);

  void leave_hint(sim::NodeId target, const Key& key, const Cell& cell);
  void replay_hints();

  /// The Paxos acceptor for `key`, created on first use (heterogeneous
  /// lookup first, so the common repeat-LWT path never copies the key).
  paxos::Acceptor<Cell>& acceptor(const Key& key);

  StoreCluster& cluster_;
  sim::NodeId node_;
  int site_;
  sim::ServiceNode service_;
  std::unordered_map<HashedKey, Cell, HashedKeyHash, HashedKeyEq> table_;
  std::unordered_map<HashedKey, paxos::Acceptor<Cell>, HashedKeyHash,
                     HashedKeyEq>
      acceptors_;
  int64_t ballot_round_ = 0;
  struct Hint {
    sim::NodeId target;
    Key key;
    Cell cell;
  };
  std::deque<Hint> hints_;
  bool hint_loop_running_ = false;
};

/// The cluster: node registry, key placement, and the RPC fabric replicas
/// use to reach each other.
class StoreCluster {
 public:
  /// Creates one replica per entry of `node_sites` (value = site index).
  /// For multi-node-per-site clusters, list nodes interleaved by site
  /// (s0,s1,s2,s0,s1,s2,...) so ring placement puts each key's RF replicas
  /// on distinct sites, as the paper's deployments do.
  ///
  /// `transport` overrides the inter-replica fabric (the musicd deployment
  /// injects a TcpTransport here); null builds the default SimTransport
  /// over `net`, which is bit-identical to the pre-seam RPC path.
  StoreCluster(sim::Simulation& sim, sim::Network& net, StoreConfig cfg,
               const std::vector<int>& node_sites,
               net::Transport* transport = nullptr);

  sim::Simulation& simulation() { return sim_; }
  sim::Network& network() { return net_; }
  /// The fabric replicas reach each other through.
  net::Transport& transport() { return *transport_; }
  const StoreConfig& config() const { return cfg_; }

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  StoreReplica& replica(int i) { return *replicas_.at(static_cast<size_t>(i)); }

  /// A replica located at `site` (the one clients at that site talk to).
  StoreReplica& replica_at_site(int site);

  /// The coordinator for an op at `site`: the next live replica there in
  /// round-robin order from `rr` (advanced; each caller keeps its own).
  /// Never another site's replica, which would be a call with no WAN hop:
  /// with every replica at `site` down it returns one of them (null if
  /// `site` hosts none), and callers fail fast on a null or down() result.
  StoreReplica* coordinator_at(int site, size_t& rr);

  /// The RF replicas storing `key`, in ring order.
  std::vector<sim::NodeId> placement(const Key& key) const;

  /// Majority of the replication factor.
  int quorum() const { return kReplicationFactor / 2 + 1; }

  /// Finds the replica object for a node id.
  StoreReplica& by_node(sim::NodeId n) { return *by_node_.at(n); }

  /// Starts periodic anti-entropy: every interval, each replica exchanges a
  /// digest with its ring successor and they repair each other (both
  /// directions).  Heals divergence that hints/read-repair missed (e.g.
  /// writes fully lost to a partitioned replica).
  void start_anti_entropy();

 private:
  void anti_entropy_round(int idx);
  sim::Simulation& sim_;
  sim::Network& net_;
  StoreConfig cfg_;
  std::vector<std::unique_ptr<StoreReplica>> replicas_;
  std::unordered_map<sim::NodeId, StoreReplica*> by_node_;
  /// Owned default fabric (null when an external transport was injected).
  std::unique_ptr<net::SimTransport> own_transport_;
  net::Transport* transport_;
};

}  // namespace music::ds
