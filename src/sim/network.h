// WAN network model.
//
// Reproduces what the paper emulates with NetEm (§VIII-a): a set of sites
// (data centers) with a symmetric RTT matrix between them (Table II), plus a
// small intra-site RTT.  Messages experience one-way delay = RTT/2 + a
// bandwidth term + jitter, may be dropped with a configured probability, and
// are blocked entirely by partitions or node crashes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace music::obs {
class MetricsRegistry;
}  // namespace music::obs

namespace music::sim {

/// Identifies a simulated node (process).  Dense indices from Network.
using NodeId = int;

/// Identifies one active partition (stacked; see Network::partition_sites).
using PartitionId = uint64_t;

/// Identifies one active link fault (see Network::add_link_fault).
using LinkFaultId = uint64_t;

/// A directed per-site-pair link degradation.  All fields compose: a link
/// can be gray (elevated loss + delay) and duplicate at the same time; a
/// blackhole dominates everything else.  Applied to messages whose source
/// site -> destination site matches the fault's direction.
struct LinkFault {
  /// Drop every message on the link (asymmetric partition primitive).
  bool blackhole = false;
  /// Additional per-message drop probability (gray link).
  double extra_drop = 0.0;
  /// Additional one-way delay, milliseconds (gray link / latency spike).
  double extra_delay_ms = 0.0;
  /// Probability a delivered message is sent as two copies with
  /// independently sampled delays.  The receiver endpoint dedups (the
  /// delivery continuations are single-shot RPC promises), so the payload
  /// takes effect at the earlier arrival — duplication is observable as
  /// early/reordered delivery plus wire accounting.
  double dup_prob = 0.0;
};

/// What a message is, for per-type accounting.  Callers that don't care pass
/// nothing and land in Generic; protocol layers tag their sends so the
/// metrics dump breaks traffic down by protocol phase.
enum class MsgKind : uint8_t {
  Generic = 0,
  ClientRequest,
  ClientReply,
  StoreWrite,
  StoreRead,
  StoreRepair,
  StoreAck,
  PaxosPrepare,
  PaxosAccept,
  PaxosCommit,
  Hint,
  AntiEntropy,
  ZabProposal,
  ZabAck,
  ZabCommit,
  ZabHeartbeat,
  ZabElection,
  RaftAppend,
  RaftAppendAck,
  RaftVote,
  RaftForward,
  kCount,
};

/// Stable lowercase name for a MsgKind ("store_write", "zab_proposal", ...).
const char* to_string(MsgKind k);

/// A named set of sites and the RTTs between them, as in Table II of the
/// paper.  rtt_ms[i][j] is the round-trip time between sites i and j in
/// milliseconds; the matrix is symmetric with rtt_ms[i][i] = intra-site RTT.
struct LatencyProfile {
  std::string name;
  std::vector<std::vector<double>> rtt_ms;

  int num_sites() const { return static_cast<int>(rtt_ms.size()); }

  /// Builds a profile from the upper-triangle RTT list (S1-S2, S1-S3, S2-S3,
  /// ...) the paper uses, with `local_ms` on the diagonal.
  static LatencyProfile from_pairs(std::string name, int sites,
                                   const std::vector<double>& pair_rtts_ms,
                                   double local_ms = 0.2);

  /// Table II "11": Ohio, Ohio, N. Virginia — RTTs 0.2, 15.14, 15.14 ms.
  static LatencyProfile profile_11();
  /// Table II "lUs": Ohio, N. Calif., Oregon — RTTs 53.79, 72.14, 24.2 ms.
  static LatencyProfile profile_lus();
  /// Table II "lUsEu": Ohio, N. Calif., Frankfurt — 53.79, 100.56, 150.74.
  static LatencyProfile profile_luseu();
  /// All three Table II profiles, in paper order.
  static std::vector<LatencyProfile> table2();
  /// A single-site profile (for unit tests): `sites` co-located sites with
  /// the given intra/inter RTT.
  static LatencyProfile uniform(int sites, double rtt_ms_val,
                                double local_ms = 0.2);
};

/// Tunables for the network beyond the latency profile.
struct NetworkConfig {
  LatencyProfile profile = LatencyProfile::profile_lus();
  /// Fraction of one-way delay added/subtracted uniformly as jitter.
  double jitter_frac = 0.02;
  /// Probability an individual message is silently dropped.
  double drop_prob = 0.0;
  /// Inter-site bandwidth (per message serialization), bits per second.
  double wan_bandwidth_bps = 1e9;
  /// Intra-site bandwidth, bits per second.
  double lan_bandwidth_bps = 10e9;
};

/// The network: node registry, delay computation, delivery, partitions.
///
/// PDES: when the owning Simulation has enable_pdes() active at
/// construction time, every delivery is scheduled onto the DESTINATION
/// node's site lane (sim.schedule_site_at), jitter/drop randomness is
/// drawn from a per-source-site fork (so lanes never share a stream), and
/// all counters below are relaxed atomics (commutative sums — thread-count
/// invariant).  Fault state (partitions, link faults, node crashes) is
/// only ever mutated by main-lane events, which the PDES scheduler runs
/// alone between windows, so site lanes read it race-free.
class Network {
 public:
  Network(Simulation& sim, NetworkConfig cfg);

  /// Registers a node living at `site`; returns its id.
  NodeId add_node(int site);

  /// The site a node lives at.
  int site_of(NodeId n) const { return node_site_.at(static_cast<size_t>(n)); }

  /// Number of registered nodes.
  int num_nodes() const { return static_cast<int>(node_site_.size()); }

  /// Number of sites in the active profile.
  int num_sites() const { return cfg_.profile.num_sites(); }

  /// One-way delay for a `bytes`-sized message (includes jitter draw).
  Duration sample_delay(NodeId from, NodeId to, size_t bytes);

  /// RTT between two nodes' sites, without jitter or bandwidth (µs).
  Duration base_rtt(NodeId from, NodeId to) const;

  /// A strict lower bound (µs, >= 1) on every cross-site delivery delay
  /// under `cfg` — the conservative PDES lookahead: min site-pair one-way
  /// delay, shrunk by the worst-case negative jitter and a 1 µs rounding
  /// guard.  Bandwidth terms and link-fault delays only ever add.  A
  /// single-site profile has no cross-site messages; one simulated second
  /// is returned (the window end is bounded by main-lane events anyway).
  static Duration conservative_lookahead(const NetworkConfig& cfg);
  Duration conservative_lookahead() const {
    return conservative_lookahead(cfg_);
  }

  /// Sends a message: if deliverable, schedules `deliver` at the destination
  /// after the sampled delay.  Otherwise the message vanishes (the caller's
  /// future, if any, is simply never fulfilled).  `kind` tags the message
  /// for per-type counters; if a tracer is attached to the simulation, the
  /// message is also attributed to the current trace context.
  void send(NodeId from, NodeId to, size_t bytes, InlineFn deliver,
            MsgKind kind = MsgKind::Generic);

  /// Marks a node crashed (true) or alive (false).  Messages to/from crashed
  /// nodes are dropped.
  void set_node_down(NodeId n, bool down);
  bool node_down(NodeId n) const { return down_.at(static_cast<size_t>(n)); }

  /// Cuts all links between site sets A and B (nodes within a side still
  /// communicate).  Partitions STACK: a second call adds another cut on top
  /// of the first instead of replacing it (a message is deliverable only if
  /// no active partition separates the two sites).  Returns an id for
  /// heal_partition(id).
  PartitionId partition_sites(std::set<int> a, std::set<int> b);

  /// Heals one partition by id (unknown ids are ignored).
  void heal_partition(PartitionId id);

  /// Heals every active partition.
  void heal_all_partitions();

  /// Number of currently active partitions.
  size_t active_partitions() const { return partitions_.size(); }

  /// Installs a directed link fault from `from_site` to `to_site`.  Faults
  /// stack; the effective behaviour of a site pair composes every matching
  /// fault (any blackhole wins; loss probabilities compound; delays add;
  /// the max duplication probability applies).  Returns an id for
  /// remove_link_fault(id).
  LinkFaultId add_link_fault(int from_site, int to_site, LinkFault fault);

  /// Removes one link fault by id (unknown ids are ignored).
  void remove_link_fault(LinkFaultId id);

  /// Removes every active link fault.
  void clear_link_faults();

  /// Number of currently active link faults.
  size_t active_link_faults() const { return link_faults_.size(); }

  /// True if a message from -> to would currently be deliverable (ignoring
  /// random drops).
  bool deliverable(NodeId from, NodeId to) const;

  /// Messages sent / dropped so far, all kinds and site pairs combined.
  uint64_t messages_sent() const { return ld(sent_); }
  uint64_t messages_dropped() const { return ld(dropped_); }

  /// Messages dropped specifically by a link fault's blackhole or extra_drop
  /// (also counted in messages_dropped()).
  uint64_t link_fault_drops() const { return ld(link_fault_drops_); }

  /// Duplicate copies created by link-fault duplication (not counted in
  /// messages_sent(): the duplicate is a network artifact, not a send).
  uint64_t duplicates_delivered() const { return ld(duplicates_delivered_); }
  /// Total payload bytes handed to send() (diagnostics).
  uint64_t bytes_sent() const { return ld(bytes_sent_); }

  /// Per-message-type counts (sends of that kind; drops counted within).
  uint64_t messages_sent(MsgKind k) const {
    return ld(sent_by_kind_[static_cast<size_t>(k)]);
  }
  uint64_t messages_dropped(MsgKind k) const {
    return ld(dropped_by_kind_[static_cast<size_t>(k)]);
  }

  /// Per-site-pair counts: messages whose source lives at `from_site` and
  /// destination at `to_site` (directed).
  uint64_t pair_messages(int from_site, int to_site) const {
    return ld(pair_sent_[pair_index(from_site, to_site)]);
  }
  uint64_t pair_bytes(int from_site, int to_site) const {
    return ld(pair_bytes_[pair_index(from_site, to_site)]);
  }

  /// Messages that crossed sites (WAN traffic), all pairs combined.
  uint64_t wan_messages_sent() const { return ld(wan_sent_); }

  /// Publishes all counters into `reg` under "net.*": totals, one counter
  /// per message kind with traffic, and per-site-pair message/byte counts.
  void export_metrics(obs::MetricsRegistry& reg) const;

  Simulation& simulation() { return sim_; }
  const NetworkConfig& config() const { return cfg_; }

 private:
  /// Counter cell: relaxed atomic increments from concurrent site lanes
  /// sum commutatively, so totals stay deterministic at any worker count.
  using Counter = std::atomic<uint64_t>;
  static uint64_t ld(const Counter& c) {
    return c.load(std::memory_order_relaxed);
  }
  static void add(Counter& c, uint64_t v) {
    c.fetch_add(v, std::memory_order_relaxed);
  }

  size_t pair_index(int from_site, int to_site) const {
    return static_cast<size_t>(from_site) *
               static_cast<size_t>(num_sites()) +
           static_cast<size_t>(to_site);
  }

  /// The random stream for messages ORIGINATING at `from_site`: the shared
  /// root stream in classic mode, a per-site fork under PDES (sends from
  /// different sites execute concurrently).
  Rng& delay_rng(int from_site) {
    return site_rngs_.empty() ? rng_
                              : site_rngs_[static_cast<size_t>(from_site)];
  }

  Duration sample_delay_with(Rng& rng, NodeId from, NodeId to, size_t bytes);

  /// Schedules a delivery closure `delay` µs from now at `dest_site` (onto
  /// its lane under PDES, onto the current lane in classic mode).
  void deliver_at(int dest_site, Duration delay, InlineFn fn);

  struct ActivePartition {
    PartitionId id;
    std::set<int> side_a, side_b;
  };
  struct ActiveLinkFault {
    LinkFaultId id;
    int from_site, to_site;
    LinkFault fault;
  };

  /// The composition of every link fault matching from_site -> to_site.
  /// delivered == false means a blackhole applies.
  struct EffectiveFault {
    bool blackhole = false;
    double keep_prob = 1.0;  // product of (1 - extra_drop)
    double extra_delay_ms = 0.0;
    double dup_prob = 0.0;
  };
  EffectiveFault effective_fault(int from_site, int to_site) const;

  Simulation& sim_;
  NetworkConfig cfg_;
  Rng rng_;
  /// Per-source-site rng forks, non-empty iff the sim was in PDES mode at
  /// construction (enable_pdes must precede Network construction).
  std::vector<Rng> site_rngs_;
  bool pdes_ = false;
  std::vector<int> node_site_;
  std::vector<bool> down_;
  std::vector<ActivePartition> partitions_;
  std::vector<ActiveLinkFault> link_faults_;
  uint64_t next_fault_id_ = 1;
  Counter sent_{0};
  Counter dropped_{0};
  Counter link_fault_drops_{0};
  Counter duplicates_delivered_{0};
  Counter bytes_sent_{0};
  Counter wan_sent_{0};
  Counter sent_by_kind_[static_cast<size_t>(MsgKind::kCount)] = {};
  Counter dropped_by_kind_[static_cast<size_t>(MsgKind::kCount)] = {};
  // num_sites^2 cells, row-major [from][to] (atomics are not movable, so
  // these are arrays rather than vectors).
  std::unique_ptr<Counter[]> pair_sent_;
  std::unique_ptr<Counter[]> pair_bytes_;
};

}  // namespace music::sim
