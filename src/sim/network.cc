#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace music::sim {

namespace {

/// Per-message serialization bandwidth, bits per second: inter-site links
/// and the intra-site LAN.
constexpr double kWanBandwidthBps = 1e9;
constexpr double kLanBandwidthBps = 10e9;

}  // namespace

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::Generic: return "generic";
    case MsgKind::ClientRequest: return "client_request";
    case MsgKind::ClientReply: return "client_reply";
    case MsgKind::StoreWrite: return "store_write";
    case MsgKind::StoreRead: return "store_read";
    case MsgKind::StoreRepair: return "store_repair";
    case MsgKind::StoreAck: return "store_ack";
    case MsgKind::PaxosPrepare: return "paxos_prepare";
    case MsgKind::PaxosAccept: return "paxos_accept";
    case MsgKind::PaxosCommit: return "paxos_commit";
    case MsgKind::Hint: return "hint";
    case MsgKind::AntiEntropy: return "anti_entropy";
    case MsgKind::ZabProposal: return "zab_proposal";
    case MsgKind::ZabAck: return "zab_ack";
    case MsgKind::ZabCommit: return "zab_commit";
    case MsgKind::ZabHeartbeat: return "zab_heartbeat";
    case MsgKind::ZabElection: return "zab_election";
    case MsgKind::RaftAppend: return "raft_append";
    case MsgKind::RaftAppendAck: return "raft_append_ack";
    case MsgKind::RaftVote: return "raft_vote";
    case MsgKind::RaftForward: return "raft_forward";
    case MsgKind::kCount: break;
  }
  return "unknown";
}

LatencyProfile LatencyProfile::from_pairs(std::string name, int sites,
                                          const std::vector<double>& pair_rtts_ms,
                                          double local_ms) {
  assert(static_cast<int>(pair_rtts_ms.size()) == sites * (sites - 1) / 2);
  LatencyProfile p;
  p.name = std::move(name);
  p.rtt_ms.assign(static_cast<size_t>(sites),
                  std::vector<double>(static_cast<size_t>(sites), local_ms));
  size_t k = 0;
  for (int i = 0; i < sites; ++i) {
    for (int j = i + 1; j < sites; ++j) {
      p.rtt_ms[static_cast<size_t>(i)][static_cast<size_t>(j)] = pair_rtts_ms[k];
      p.rtt_ms[static_cast<size_t>(j)][static_cast<size_t>(i)] = pair_rtts_ms[k];
      ++k;
    }
  }
  return p;
}

// Table II of the paper.  RTT order is S1-S2, S1-S3, S2-S3.
LatencyProfile LatencyProfile::profile_11() {
  return from_pairs("11", 3, {0.2, 15.14, 15.14});
}

LatencyProfile LatencyProfile::profile_lus() {
  return from_pairs("lUs", 3, {53.79, 72.14, 24.2});
}

LatencyProfile LatencyProfile::profile_luseu() {
  return from_pairs("lUsEu", 3, {53.79, 100.56, 150.74});
}

std::vector<LatencyProfile> LatencyProfile::table2() {
  return {profile_11(), profile_lus(), profile_luseu()};
}

LatencyProfile LatencyProfile::uniform(int sites, double rtt_ms_val,
                                       double local_ms) {
  std::vector<double> pairs(static_cast<size_t>(sites * (sites - 1) / 2),
                            rtt_ms_val);
  return from_pairs("uniform", sites, pairs, local_ms);
}

Network::Network(Simulation& sim, NetworkConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), rng_(sim.rng().fork(0x6e657477ull)) {
  auto n = static_cast<size_t>(num_sites());
  pair_sent_ = std::make_unique<Counter[]>(n * n);
  pair_bytes_ = std::make_unique<Counter[]>(n * n);
  if (sim.pdes()) {
    assert(sim.pdes_sites() >= num_sites() &&
           "enable_pdes needs one lane per profile site");
    pdes_ = true;
    site_rngs_.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      site_rngs_.push_back(rng_.fork(0x6c616e65ull + s));
    }
  }
}

NodeId Network::add_node(int site) {
  assert(site >= 0 && site < num_sites());
  node_site_.push_back(site);
  down_.push_back(false);
  return static_cast<NodeId>(node_site_.size() - 1);
}

Duration Network::base_rtt(NodeId from, NodeId to) const {
  int sa = site_of(from);
  int sb = site_of(to);
  return ms_f(cfg_.profile.rtt_ms[static_cast<size_t>(sa)][static_cast<size_t>(sb)]);
}

Duration Network::sample_delay(NodeId from, NodeId to, size_t bytes) {
  return sample_delay_with(delay_rng(site_of(from)), from, to, bytes);
}

Duration Network::sample_delay_with(Rng& rng, NodeId from, NodeId to,
                                    size_t bytes) {
  Duration one_way = base_rtt(from, to) / 2;
  bool same_site = site_of(from) == site_of(to);
  double bps = same_site ? kLanBandwidthBps : kWanBandwidthBps;
  auto xfer = static_cast<Duration>(static_cast<double>(bytes) * 8.0 / bps * 1e6);
  Duration base = one_way + xfer;
  if (cfg_.jitter_frac > 0.0) {
    double j = rng.uniform_real(-cfg_.jitter_frac, cfg_.jitter_frac);
    base += static_cast<Duration>(static_cast<double>(base) * j);
  }
  return std::max<Duration>(base, 1);
}

Duration Network::conservative_lookahead(const NetworkConfig& cfg) {
  const auto& p = cfg.profile;
  int n = p.num_sites();
  double min_rtt = -1.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double r = p.rtt_ms[static_cast<size_t>(i)][static_cast<size_t>(j)];
      if (min_rtt < 0.0 || r < min_rtt) min_rtt = r;
    }
  }
  if (min_rtt < 0.0) return sec(1);  // single site: no cross-site messages
  // sample_delay computes one_way = ms_f(rtt)/2 in integer µs, then scales
  // by at worst (1 - jitter_frac) with truncation toward zero; the -1 here
  // absorbs that truncation, making the bound strict.
  Duration one_way = ms_f(min_rtt) / 2;
  auto l = static_cast<Duration>(static_cast<double>(one_way) *
                                 (1.0 - cfg.jitter_frac)) -
           1;
  return std::max<Duration>(l, 1);
}

void Network::send(NodeId from, NodeId to, size_t bytes, InlineFn deliver,
                   MsgKind kind) {
  int sa = site_of(from);
  int sb = site_of(to);
  bool cross_site = sa != sb;
  add(sent_, 1);
  add(bytes_sent_, bytes);
  add(sent_by_kind_[static_cast<size_t>(kind)], 1);
  size_t pi = pair_index(sa, sb);
  add(pair_sent_[pi], 1);
  add(pair_bytes_[pi], bytes);
  if (cross_site) add(wan_sent_, 1);
  if (obs::Tracer* t = sim_.tracer()) {
    t->add_message(sim_.trace_ctx(), cross_site);
  }
  // All randomness for a message is drawn from its SOURCE site's stream:
  // sends from one site execute in deterministic lane order under PDES,
  // so the stream consumption is worker-count invariant.
  Rng& rng = delay_rng(sa);
  if (!deliverable(from, to) || rng.chance(cfg_.drop_prob)) {
    add(dropped_, 1);
    add(dropped_by_kind_[static_cast<size_t>(kind)], 1);
    return;
  }
  // Link faults degrade (but don't block — blackholes are handled inside
  // deliverable()) the surviving messages.  The rng draws below only happen
  // while a matching fault is active, so fault-free runs consume exactly the
  // same random stream as before the fault table existed.
  Duration extra = 0;
  bool duplicate = false;
  if (!link_faults_.empty()) {
    EffectiveFault f = effective_fault(sa, sb);
    if (f.keep_prob < 1.0 && !rng.chance(f.keep_prob)) {
      add(dropped_, 1);
      add(dropped_by_kind_[static_cast<size_t>(kind)], 1);
      add(link_fault_drops_, 1);
      return;
    }
    if (f.extra_delay_ms > 0.0) extra = ms_f(f.extra_delay_ms);
    if (f.dup_prob > 0.0 && rng.chance(f.dup_prob)) duplicate = true;
  }
  Duration d = sample_delay_with(rng, from, to, bytes) + extra;
  NodeId dest = to;
  if (duplicate) {
    // Both copies traverse the wire, but the endpoint continuations here are
    // single-shot (they fulfil RPC promises), i.e. the receiver dedups — so
    // the payload takes effect at whichever copy arrives first.  The
    // observable effect of duplication is early/reordered delivery plus the
    // wire-level accounting.
    add(duplicates_delivered_, 1);
    Duration d2 = sample_delay_with(rng, from, to, bytes) + extra;
    auto shared = std::make_shared<InlineFn>(std::move(deliver));
    auto once = [this, dest, kind, shared] {
      if (!*shared) return;                  // the other copy fired first
      InlineFn fn = std::move(*shared);      // consume: single-shot
      // The destination may have crashed while the message was in flight;
      // re-check on delivery.
      if (down_.at(static_cast<size_t>(dest))) {
        add(dropped_, 1);
        add(dropped_by_kind_[static_cast<size_t>(kind)], 1);
        return;
      }
      fn();
    };
    deliver_at(sb, d, InlineFn(once));
    deliver_at(sb, d2, InlineFn(std::move(once)));
    return;
  }
  deliver_at(
      sb, d,
      InlineFn([this, dest, kind, deliver = std::move(deliver)]() mutable {
        // The destination may have crashed (or been partitioned away) while
        // the message was in flight; re-check on delivery.
        if (down_.at(static_cast<size_t>(dest))) {
          add(dropped_, 1);
          add(dropped_by_kind_[static_cast<size_t>(kind)], 1);
          return;
        }
        deliver();
      }));
}

void Network::deliver_at(int dest_site, Duration delay, InlineFn fn) {
  // Delivery runs on the destination's site lane under PDES, so the RPC
  // handler (and the promise fulfilment it eventually triggers at the
  // requester) executes with that site's clock and random stream.  The
  // conservative lookahead guarantees cross-site `delay`s clear the
  // current window; same-site deliveries stay on the executing lane.
  if (pdes_) {
    sim_.schedule_site_at(dest_site, sim_.now() + delay, std::move(fn));
  } else {
    sim_.schedule(delay, std::move(fn));
  }
}

void Network::set_node_down(NodeId n, bool down) {
  down_.at(static_cast<size_t>(n)) = down;
}

PartitionId Network::partition_sites(std::set<int> a, std::set<int> b) {
  PartitionId id = next_fault_id_++;
  partitions_.push_back({id, std::move(a), std::move(b)});
  return id;
}

void Network::heal_partition(PartitionId id) {
  std::erase_if(partitions_,
                [id](const ActivePartition& p) { return p.id == id; });
}

void Network::heal_all_partitions() { partitions_.clear(); }

LinkFaultId Network::add_link_fault(int from_site, int to_site,
                                    LinkFault fault) {
  assert(from_site >= 0 && from_site < num_sites());
  assert(to_site >= 0 && to_site < num_sites());
  LinkFaultId id = next_fault_id_++;
  link_faults_.push_back({id, from_site, to_site, fault});
  return id;
}

void Network::remove_link_fault(LinkFaultId id) {
  std::erase_if(link_faults_,
                [id](const ActiveLinkFault& f) { return f.id == id; });
}

void Network::clear_link_faults() { link_faults_.clear(); }

Network::EffectiveFault Network::effective_fault(int from_site,
                                                 int to_site) const {
  EffectiveFault e;
  for (const ActiveLinkFault& f : link_faults_) {
    if (f.from_site != from_site || f.to_site != to_site) continue;
    if (f.fault.blackhole) e.blackhole = true;
    e.keep_prob *= 1.0 - f.fault.extra_drop;
    e.extra_delay_ms += f.fault.extra_delay_ms;
    e.dup_prob = std::max(e.dup_prob, f.fault.dup_prob);
  }
  return e;
}

void Network::export_metrics(obs::MetricsRegistry& reg) const {
  reg.set("net.msgs.sent", ld(sent_));
  reg.set("net.msgs.dropped", ld(dropped_));
  reg.set("net.msgs.wan", ld(wan_sent_));
  reg.set("net.bytes.sent", ld(bytes_sent_));
  if (ld(link_fault_drops_) != 0) {
    reg.set("net.msgs.link_fault_drops", ld(link_fault_drops_));
  }
  if (ld(duplicates_delivered_) != 0) {
    reg.set("net.msgs.duplicates", ld(duplicates_delivered_));
  }
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kCount); ++k) {
    if (ld(sent_by_kind_[k]) == 0 && ld(dropped_by_kind_[k]) == 0) continue;
    std::string base = "net.msgs.";
    base += to_string(static_cast<MsgKind>(k));
    reg.set(base, ld(sent_by_kind_[k]));
    if (ld(dropped_by_kind_[k]) != 0) {
      reg.set(base + ".dropped", ld(dropped_by_kind_[k]));
    }
  }
  int n = num_sites();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      size_t pi = pair_index(i, j);
      if (ld(pair_sent_[pi]) == 0) continue;
      std::string base = "net.pair.s" + std::to_string(i) + ".s" +
                         std::to_string(j);
      reg.set(base + ".msgs", ld(pair_sent_[pi]));
      reg.set(base + ".bytes", ld(pair_bytes_[pi]));
    }
  }
}

bool Network::deliverable(NodeId from, NodeId to) const {
  if (down_.at(static_cast<size_t>(from)) || down_.at(static_cast<size_t>(to))) {
    return false;
  }
  if (partitions_.empty() && link_faults_.empty()) return true;
  int sa = site_of(from);
  int sb = site_of(to);
  for (const ActivePartition& p : partitions_) {
    bool cross = (p.side_a.count(sa) && p.side_b.count(sb)) ||
                 (p.side_a.count(sb) && p.side_b.count(sa));
    if (cross) return false;
  }
  for (const ActiveLinkFault& f : link_faults_) {
    if (f.fault.blackhole && f.from_site == sa && f.to_site == sb) return false;
  }
  return true;
}

}  // namespace music::sim
