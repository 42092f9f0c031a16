// Multi-group MUSIC: N independent lock/data groups behind one keyspace.
//
// A Cluster instantiates, over one simulated network, a configurable number
// of MUSIC *groups* — each its own data-store replica set, lock store and
// per-site MUSIC replicas, built by core::MusicGroup (core/group.h) like
// every single-group world — and a consistent-hash ring (cluster/ring.h)
// partitioning the keyspace into shards served by those groups.  This is
// Spinnaker's shard-per-consensus-group design (PAPERS.md) applied to
// MUSIC's lock domains: keys in different shards coordinate through
// different lock queues and never contend.
//
// Routing is epoch-guarded.  The authoritative ShardMap lives here behind a
// shared_ptr snapshot; cluster::Client (cluster/client.h) caches a snapshot
// and every dispatch passes through admit(shard, cached_epoch), which
// rejects with WrongShard when the shard is frozen mid-move or the caller's
// snapshot predates the shard's last move.  Epochs are tracked per shard:
// moving shard 7 does not invalidate cached routes to shard 3, so a move
// only disturbs traffic that actually touches the moving shard.
//
// Shard move protocol (move_shard):
//   1. freeze   — new ops on the shard are rejected with WrongShard
//   2. drain    — wait for admitted in-flight ops to complete
//   3. copy     — enumerate the shard's data-store rows (!d/!sf/!st/!lq) at
//                 the source group and quorum-copy them, timestamps
//                 preserved, to the destination group.  Copying the !lq
//                 lock-queue row carries the guard counter AND the live
//                 queue, so current holders keep holding and future
//                 lockRefs keep increasing — no forced release is needed
//                 and the ECF oracle's monotone-grant invariant holds
//                 across the move.
//   4. flip     — reassign the shard, bump the map epoch, republish the
//                 snapshot, unfreeze.
// Source rows are not deleted (the old group's copies go stale and
// harmless; its failure detector only ever touches its own store).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cluster/shardmap.h"
#include "core/client.h"
#include "core/group.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace music::cluster {

struct ClusterConfig {
  /// Shards on the ring (>= 1).
  int shards = 1;
  /// MUSIC groups; 0 = one group per shard.  Shard s starts at group
  /// s % groups.
  int groups = 0;
  /// Sites the cluster spreads over (clamped to >= 3).  At the default 3
  /// every group lives on sites {0,1,2} exactly as before the knob existed.
  /// More sites stagger each group's three home sites round-robin
  /// (home_site(g, k) = (g + k) % sites) so group traffic spreads across
  /// every site — under PDES (--par-sites) that is what puts work on more
  /// than three site lanes.  The network profile must have >= `sites` sites.
  int sites = 3;
  /// Store replicas per group, interleaved across the group's 3 home sites.
  int store_nodes_per_group = 3;
  /// Index (into the group's 3 home sites) of the replica every shared
  /// client prefers first; -1 = site-local.
  int holder_site = -1;
  /// Start each group's failure detector (as production MUSIC runs).
  bool failure_detector = true;
  core::MusicConfig music;
  ds::StoreConfig store;
  core::ClientConfig client;
};

/// Cluster-level counters (tests and the bench read these).  Atomic because
/// the admission gate runs on concurrent site lanes under PDES; relaxed
/// increments of commutative sums keep totals thread-count invariant, and
/// the implicit load lets readers keep writing `stats().moves`.
struct ClusterStats {
  std::atomic<uint64_t> moves{0};               // completed shard moves
  std::atomic<uint64_t> moved_rows{0};          // rows copied by those moves
  std::atomic<uint64_t> admitted{0};            // ops through the epoch gate
  std::atomic<uint64_t> wrong_shard_rejects{0}; // bounced (frozen or stale)
};

/// One MUSIC group (core/group.h), with one shared core client per home
/// site (routing fans many logical clients into these).
using Group = core::MusicGroup;

class Cluster {
 public:
  Cluster(sim::Simulation& sim, sim::Network& net, ClusterConfig cfg);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& simulation() { return sim_; }
  const ClusterConfig& config() const { return cfg_; }
  int num_shards() const { return cfg_.shards; }
  int num_groups() const { return static_cast<int>(groups_.size()); }
  int num_sites() const { return cfg_.sites; }

  /// Global site of group `g`'s k-th replica (k in [0, 3)): k itself in the
  /// classic 3-site layout, round-robin staggered otherwise.
  int home_site(int g, int k) const {
    return cfg_.sites <= 3 ? k : (g + k) % cfg_.sites;
  }

  /// The current routing snapshot.  Clients cache the shared_ptr and
  /// refresh on WrongShard; the Ring inside never changes, only the
  /// shard -> group assignment and epoch do.
  std::shared_ptr<const ShardMap> snapshot() const { return snapshot_; }

  /// Admission gate: Ok admits the op against `shard` (callers MUST pair
  /// with complete()); WrongShard when the shard is frozen mid-move or
  /// `cached_epoch` predates the shard's last move.
  Status admit(int shard, uint64_t cached_epoch);
  /// Marks an admitted op finished (drain accounting).
  void complete(int shard);

  Group& group(int g) { return groups_.at(static_cast<size_t>(g)); }
  /// The shared core client of group `g` serving global `site`: the group's
  /// own client there when `site` is one of its home sites, otherwise a
  /// deterministic fallback home (site % 3).  Identity mapping in the
  /// classic 3-site layout.
  core::MusicClient& client_at(int g, int site) {
    Group& grp = group(g);
    return *grp.clients.at(static_cast<size_t>(grp.local_index(site)));
  }

  /// Moves `shard` to `to_group` (freeze / drain / copy / flip; see the
  /// file comment).  One move per shard at a time; a concurrent second
  /// move of the same shard fails with Conflict.  Copy rounds retry on
  /// transient store failures, so a move launched under faults completes
  /// once the fault heals.
  sim::Task<Status> move_shard(int shard, int to_group);

  // ---- Nemesis targeting (per-group fault hooks). ---------------------------
  // `replica`/`site` index the group's own replica array (the k of
  // home_site(g, k)), not global sites.

  void set_down_store(int g, int replica, bool down, bool amnesia);
  void set_down_music(int g, int site, bool down, bool amnesia);
  /// Takes global `site` down (or back up) in every group: each store and
  /// MUSIC replica whose site() is `site` — the way a zone outage or a
  /// site restart lands on a sharded deployment.
  void set_site_down(int site, bool down, bool amnesia);

  // ---- Introspection. --------------------------------------------------------

  const ClusterStats& stats() const { return stats_; }
  /// Sum of MusicStats::critical_puts across every replica of every group
  /// (the bench_cluster headline numerator).
  uint64_t total_critical_puts() const;
  /// Publishes cluster.* gauges/counters plus per-group critical-put
  /// counters ("cluster.g<N>.critical_puts") into `reg`.
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  void rebuild_snapshot();
  /// All data-store row keys belonging to `shard` at group `g`, across the
  /// MUSIC row prefixes, unioned over that group's replicas and sorted.
  std::vector<Key> shard_rows(int g, int shard) const;
  /// Quorum-copies `rows` (full data-store keys) from group `from` to
  /// group `to`, preserving cell timestamps.  Retries transient failures.
  sim::Task<Status> copy_rows(int from, int to, std::vector<Key> rows);

  sim::Simulation& sim_;
  sim::Network& net_;
  ClusterConfig cfg_;
  std::vector<Group> groups_;
  Ring ring_;
  uint64_t epoch_ = 0;
  std::vector<int> group_of_shard_;
  // Routing state (group_of_shard_, shard_epoch_, frozen_, the snapshot) is
  // only ever WRITTEN by move_shard, which under PDES runs as main-lane
  // events — alone, between windows — so site lanes read it race-free
  // through the barrier.  inflight_ is the one cell mutated BY site lanes
  // (admit/complete) and read by the main-lane drain loop, hence atomic
  // (array: atomics are not movable).
  std::vector<uint64_t> shard_epoch_;  // map epoch at the shard's last move
  std::vector<uint8_t> frozen_;
  std::unique_ptr<std::atomic<int64_t>[]> inflight_;
  std::shared_ptr<const ShardMap> snapshot_;
  ClusterStats stats_;
};

}  // namespace music::cluster
