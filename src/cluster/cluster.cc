#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "sim/future.h"
#include "sim/span.h"

namespace music::cluster {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Virtual nodes per shard on the ring.
constexpr int kVnodes = 64;

/// The MUSIC key behind a data-store row key ("!d:k7" -> "k7").  Every
/// MUSIC row prefix ends with ':'.
std::string_view music_key_of(std::string_view row) {
  size_t colon = row.find(':');
  return colon == std::string_view::npos ? row : row.substr(colon + 1);
}

}  // namespace

Cluster::Cluster(sim::Simulation& sim, sim::Network& net, ClusterConfig cfg)
    : sim_(sim), net_(net), cfg_(std::move(cfg)) {
  if (cfg_.shards < 1) cfg_.shards = 1;
  if (cfg_.sites < 3) cfg_.sites = 3;
  assert(net_.num_sites() >= cfg_.sites &&
         "network profile must cover every cluster site");
  int ngroups = cfg_.groups > 0 ? cfg_.groups : cfg_.shards;
  if (ngroups > cfg_.shards) ngroups = cfg_.shards;
  ring_ = Ring(cfg_.shards, kVnodes);
  group_of_shard_.resize(static_cast<size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    group_of_shard_[static_cast<size_t>(s)] = s % ngroups;
  }
  shard_epoch_.assign(static_cast<size_t>(cfg_.shards), 0);
  frozen_.assign(static_cast<size_t>(cfg_.shards), 0);
  inflight_ =
      std::make_unique<std::atomic<int64_t>[]>(static_cast<size_t>(cfg_.shards));

  groups_.reserve(static_cast<size_t>(ngroups));
  for (int g = 0; g < ngroups; ++g) {
    core::GroupConfig gc;
    gc.sites = {home_site(g, 0), home_site(g, 1), home_site(g, 2)};
    gc.store_nodes = cfg_.store_nodes_per_group;
    gc.holder = cfg_.holder_site;
    gc.failure_detector = cfg_.failure_detector;
    gc.music = cfg_.music;
    gc.store = cfg_.store;
    gc.client = cfg_.client;
    Group& grp = groups_.emplace_back(sim_, net_, std::move(gc));
    // One shared core client per home site, eagerly (routing fans all
    // logical clients into these; eager construction keeps node ids — and
    // thus seeded client rng streams — independent of traffic order).
    for (int site : grp.cfg.sites) grp.add_client(site);
  }
  rebuild_snapshot();
}

void Cluster::rebuild_snapshot() {
  snapshot_ = std::make_shared<const ShardMap>(epoch_, ring_, group_of_shard_);
}

Status Cluster::admit(int shard, uint64_t cached_epoch) {
  if (shard < 0 || shard >= cfg_.shards) {
    return Status::Err(OpStatus::WrongShard);
  }
  auto s = static_cast<size_t>(shard);
  if (frozen_[s] != 0 || cached_epoch < shard_epoch_[s]) {
    stats_.wrong_shard_rejects.fetch_add(1, kRelaxed);
    return Status::Err(OpStatus::WrongShard);
  }
  inflight_[s].fetch_add(1, kRelaxed);
  stats_.admitted.fetch_add(1, kRelaxed);
  return Status::Ok();
}

void Cluster::complete(int shard) {
  inflight_[static_cast<size_t>(shard)].fetch_sub(1, kRelaxed);
}

std::vector<Key> Cluster::shard_rows(int g, int shard) const {
  static constexpr std::string_view kPrefixes[] = {"!d:", "!sf:", "!st:",
                                                   "!lq:"};
  std::vector<Key> rows;
  const Group& grp = groups_.at(static_cast<size_t>(g));
  for (int i = 0; i < grp.store->num_replicas(); ++i) {
    // Local census across every replica (no network): survivors of an
    // amnesia crash contribute the rows the wiped replica lost.
    const ds::StoreReplica& rep = grp.store->replica(i);
    for (std::string_view prefix : kPrefixes) {
      for (Key& k : rep.local_keys_with_prefix(prefix)) {
        if (ring_.shard_of(music_key_of(k)) == shard) {
          rows.push_back(std::move(k));
        }
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

sim::Task<Status> Cluster::copy_rows(int from, int to, std::vector<Key> rows) {
  constexpr size_t kChunk = 64;
  constexpr int kMaxAttempts = 4096;
  Group& src = groups_.at(static_cast<size_t>(from));
  Group& dst = groups_.at(static_cast<size_t>(to));
  ScalarTs max_ts = -1;
  for (size_t base = 0; base < rows.size(); base += kChunk) {
    size_t end = std::min(base + kChunk, rows.size());
    std::vector<Key> chunk(rows.begin() + static_cast<ptrdiff_t>(base),
                           rows.begin() + static_cast<ptrdiff_t>(end));
    int attempt = 0;
    while (true) {
      // Rotate coordinators so a crashed node cannot wedge the move; the
      // chunk retries as a unit (idempotent: same cells, same timestamps).
      ds::StoreReplica& sc = src.store->replica(attempt % src.store->num_replicas());
      auto reads = co_await sc.get_cells(chunk, ds::Consistency::Quorum);
      bool transient = false;
      std::vector<ds::WriteCell> writes;
      writes.reserve(chunk.size());
      for (size_t i = 0; i < chunk.size(); ++i) {
        if (reads[i].ok()) {
          writes.emplace_back(chunk[i], reads[i].value());
        } else if (reads[i].status() != OpStatus::NotFound) {
          // Sub-quorum row visibility is transient; retry the chunk.
          // NotFound rows (seen only at a stale census replica) are skipped.
          transient = true;
          break;
        }
      }
      if (!transient) {
        bool all_ok = true;
        if (!writes.empty()) {
          ds::StoreReplica& dc =
              dst.store->replica(attempt % dst.store->num_replicas());
          auto acks =
              co_await dc.put_cells(writes, ds::Consistency::Quorum);
          for (const Status& st : acks) {
            if (!st.ok()) all_ok = false;
          }
        }
        if (all_ok) {
          for (const ds::WriteCell& w : writes) {
            max_ts = std::max(max_ts, w.cell.ts);
          }
          stats_.moved_rows.fetch_add(writes.size(), kRelaxed);
          break;
        }
      }
      if (++attempt >= kMaxAttempts) co_return Status::Err(OpStatus::Timeout);
      co_await sim::sleep_for(sim_, sim::ms(5));
    }
  }
  // Future LWT commits at the destination must stamp above every imported
  // ballot-stamped row (see StoreReplica::advance_ballot_past).
  for (int i = 0; i < dst.store->num_replicas(); ++i) {
    dst.store->replica(i).advance_ballot_past(max_ts);
  }
  co_return Status::Ok();
}

sim::Task<Status> Cluster::move_shard(int shard, int to_group) {
  if (shard < 0 || shard >= cfg_.shards || to_group < 0 ||
      to_group >= num_groups()) {
    co_return Status::Err(OpStatus::Nack);
  }
  // Routing state (frozen_, group_of_shard_, the snapshot) is only ever
  // touched from the main lane, which under PDES runs alone between
  // windows — so site lanes admit() against it race-free.  Hop before the
  // first read; classic mode makes this a no-op.
  co_await sim::on_main_lane(sim_);
  auto s = static_cast<size_t>(shard);
  if (frozen_[s] != 0) co_return Status::Err(OpStatus::Conflict);
  int from = group_of_shard_[s];
  if (from == to_group) co_return Status::Ok();

  // Built stepwise (GCC 12 -Werror=restrict, see ds::Cell note).
  std::string detail = "s";
  detail += std::to_string(shard);
  detail += ":g";
  detail += std::to_string(from);
  detail += ">g";
  detail += std::to_string(to_group);
  sim::OpSpan span(sim_, "cluster.move_shard", -1, -1, detail);

  // 1. Freeze: new ops on the shard bounce with WrongShard.
  frozen_[s] = 1;
  // 2. Drain: admitted ops run to completion against the source group.
  while (inflight_[s].load(kRelaxed) > 0) {
    co_await sim::sleep_for(sim_, sim::ms(1));
  }
  // 3. Copy: quorum-read at the source, quorum-write at the destination,
  //    timestamps preserved.  The !lq row carries the guard counter and the
  //    live queue, so holders keep holding across the flip.
  std::vector<Key> rows = shard_rows(from, shard);
  Status copied = co_await copy_rows(from, to_group, std::move(rows));
  // copy_rows' awaits migrate the coroutine onto site lanes; hop back
  // before touching routing state again.
  co_await sim::on_main_lane(sim_);
  if (!copied.ok()) {
    frozen_[s] = 0;  // abort: the shard stays at the source group
    co_return copied;
  }
  // 4. Flip: reassign, bump the epoch, republish, unfreeze.
  group_of_shard_[s] = to_group;
  epoch_ += 1;
  shard_epoch_[s] = epoch_;
  rebuild_snapshot();
  frozen_[s] = 0;
  stats_.moves.fetch_add(1, kRelaxed);
  co_return Status::Ok();
}

void Cluster::set_down_store(int g, int replica, bool down, bool amnesia) {
  ds::StoreCluster& store = *group(g).store;
  if (replica < 0 || replica >= store.num_replicas()) return;
  if (down && amnesia) store.replica(replica).wipe_state();
  store.replica(replica).set_down(down);
}

void Cluster::set_down_music(int g, int site, bool down, bool amnesia) {
  Group& grp = group(g);
  if (site < 0 || site >= static_cast<int>(grp.replicas.size())) return;
  grp.replicas[static_cast<size_t>(site)]->set_down(down, amnesia);
}

void Cluster::set_site_down(int site, bool down, bool amnesia) {
  for (Group& grp : groups_) grp.set_site_down(site, down, amnesia);
}

uint64_t Cluster::total_critical_puts() const {
  uint64_t total = 0;
  for (const Group& grp : groups_) {
    for (const auto& rep : grp.replicas) {
      total += rep->stats().critical_puts;
    }
  }
  return total;
}

void Cluster::export_metrics(obs::MetricsRegistry& reg) const {
  reg.set("cluster.shards", static_cast<uint64_t>(cfg_.shards));
  reg.set("cluster.groups", static_cast<uint64_t>(groups_.size()));
  reg.set("cluster.map_epoch", epoch_);
  reg.set("cluster.moves", stats_.moves);
  reg.set("cluster.moved_rows", stats_.moved_rows);
  reg.set("cluster.admitted", stats_.admitted);
  reg.set("cluster.wrong_shard", stats_.wrong_shard_rejects);
  reg.set("cluster.critical_puts", total_critical_puts());
  for (size_t g = 0; g < groups_.size(); ++g) {
    uint64_t puts = 0;
    for (const auto& rep : groups_[g].replicas) {
      puts += rep->stats().critical_puts;
    }
    // Built stepwise (GCC 12 -Werror=restrict, see ds::Cell note).
    std::string name = "cluster.g";
    name += std::to_string(g);
    name += ".critical_puts";
    reg.set(name, puts);
  }
}

}  // namespace music::cluster
