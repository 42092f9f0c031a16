#include "scenario/run.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <utility>

#include "api/client_api.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "core/music.h"
#include "fault/fault.h"
#include "fault/nemesis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "raftkv/txkv.h"
#include "sim/simulation.h"
#include "verify/oracle.h"
#include "wire/codec.h"
#include "workload/driver.h"
#include "workload/zipfian.h"
#include "zab/zab.h"

namespace music::scn {
namespace {

// ---- Shared cell plumbing --------------------------------------------------

/// Key chooser shared by all protocol workloads: same keying, same key
/// names, so cross-protocol cells of one sweep contend identically.
struct KeyPick {
  Keying keying;
  uint64_t keys;
  wl::Zipfian zipf;

  KeyPick(Keying k, uint64_t n, double theta)
      : keying(k), keys(n), zipf(n, theta) {}

  Key next(sim::Rng& rng) {
    uint64_t idx = 0;
    switch (keying) {
      case Keying::Uniform: idx = rng.next_u64() % keys; break;
      case Keying::Zipfian: idx = zipf.next(rng); break;
      case Keying::Single: idx = 0; break;
    }
    // Built stepwise (GCC 12 -Werror=restrict, see ds::Cell note).
    std::string k = "k";
    k += std::to_string(idx);
    return k;
  }
};

/// Unique-ish write payload padded to the spec's value size.  Values are
/// distinct per (client, sequence) so the ECF oracle's Latest-State checks
/// compare real candidates, not accidental duplicates.
Value make_value(int cid, uint64_t seq, size_t value_size) {
  std::string v = "v";
  v += std::to_string(cid);
  v += ".";
  v += std::to_string(seq);
  if (v.size() < value_size) v.resize(value_size, 'x');
  return Value(v);
}

/// The arrival think-time hook for wl::DriverConfig (empty for Closed).
std::function<sim::Duration(sim::Rng&, sim::Time)> think_fn(Arrival a) {
  switch (a.kind) {
    case ArrivalKind::Closed:
      return {};
    case ArrivalKind::Poisson: {
      double mean_us = 1e6 / a.rate;
      return [mean_us](sim::Rng& rng, sim::Time) {
        return static_cast<sim::Duration>(rng.exponential(mean_us));
      };
    }
    case ArrivalKind::Diurnal: {
      double rate = a.rate;
      double low = a.low;
      double period = static_cast<double>(a.period);
      return [rate, low, period](sim::Rng& rng, sim::Time now) {
        // Peak at mid-period, trough (low x peak) at the period boundary.
        double phase = 2.0 * 3.14159265358979323846 *
                       (static_cast<double>(now) / period);
        double frac = low + (1.0 - low) * 0.5 * (1.0 - std::cos(phase));
        double r = rate * frac;
        // At a zero trough the mean gap is unbounded; clamp to one period
        // so clients re-check the (time-varying) rate at least once a cycle.
        double mean_us = r > 1e-12 ? 1e6 / r : period;
        if (mean_us > period) mean_us = period;
        auto gap = static_cast<sim::Duration>(rng.exponential(mean_us));
        if (gap > static_cast<sim::Duration>(period)) {
          gap = static_cast<sim::Duration>(period);
        }
        return gap;
      };
    }
  }
  return {};
}

/// Per-site client counts for a cell.
std::vector<int> cell_placement(const Cell& cell) {
  return place_clients(cell.clients(), cell.point.workload.placement);
}

/// Per-site max wire versions for a cell ("" = the current binary's full
/// range everywhere).  The versions axis is already grammar-validated
/// (V:V:V, each 1..9).
std::array<uint8_t, 3> cell_versions(const Cell& cell) {
  std::array<uint8_t, 3> v{wire::kWireVersionMax, wire::kWireVersionMax,
                           wire::kWireVersionMax};
  const std::string& s = cell.versions();
  if (s.size() == 5) {
    v = {static_cast<uint8_t>(s[0] - '0'), static_cast<uint8_t>(s[2] - '0'),
         static_cast<uint8_t>(s[4] - '0')};
  }
  return v;
}

/// Per-logical-client rng + value sequence.  A client's draws then never
/// depend on how the clients interleave — under PDES run_once executes on
/// concurrent site lanes, where a shared stream would race and even a
/// locked one would draw in a worker-count-dependent order — so the cell
/// checksum is invariant at any worker count.
struct ClientStream {
  sim::Rng rng;
  uint64_t seq = 0;
};

std::vector<ClientStream> make_streams(int n, uint64_t seed) {
  std::vector<ClientStream> v;
  v.reserve(static_cast<size_t>(n));
  sim::Rng base(seed);
  for (int i = 0; i < n; ++i) {
    v.push_back(ClientStream{base.fork(static_cast<uint64_t>(i)), 0});
  }
  return v;
}

// ---- Protocol workloads ----------------------------------------------------

/// MUSIC/MSCP cell op: one critical section around a single criticalGet
/// (read) or criticalPut (write) on a picked key.  Cells bind
/// cluster::Client, so shard routing, the WrongShard retry discipline and
/// the oracle instrumentation all live in the client.
class SectionMixWorkload : public wl::Workload {
 public:
  SectionMixWorkload(std::vector<std::unique_ptr<api::ClientApi>> clients,
                     double read_frac, KeyPick pick, size_t value_size,
                     uint64_t seed)
      : clients_(std::move(clients)),
        read_frac_(read_frac),
        pick_(std::move(pick)),
        value_size_(value_size),
        streams_(make_streams(static_cast<int>(clients_.size()), seed)) {}

  sim::Task<bool> run_once(int cid) override {
    auto i = static_cast<size_t>(cid) % clients_.size();
    api::ClientApi& c = *clients_[i];
    ClientStream& stream = streams_[i];
    Key key = pick_.next(stream.rng);
    bool read = stream.rng.chance(read_frac_);
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) co_return false;
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    if (!acq.ok()) {
      co_await c.remove_lock_ref(key, ref.value());
      co_return false;
    }
    bool ok;
    if (read) {
      auto g = co_await c.critical_get(key, ref.value());
      // NotFound is a legitimate read of a never-written key.
      ok = g.ok() || g.status() == OpStatus::NotFound;
    } else {
      ok = (co_await c.critical_put(key, ref.value(),
                                    make_value(cid, stream.seq++, value_size_)))
               .ok();
    }
    co_await c.release_lock(key, ref.value());
    co_return ok;
  }

 private:
  std::vector<std::unique_ptr<api::ClientApi>> clients_;
  double read_frac_;
  KeyPick pick_;
  size_t value_size_;
  std::vector<ClientStream> streams_;
};

/// Zookeeper cell op: one sequentially-consistent getData / setData.
class ZabMixWorkload : public wl::Workload {
 public:
  ZabMixWorkload(std::vector<zab::ZkClient*> clients, double read_frac,
                 KeyPick pick, size_t value_size, uint64_t seed)
      : clients_(std::move(clients)),
        read_frac_(read_frac),
        pick_(std::move(pick)),
        value_size_(value_size),
        rng_(seed) {}

  sim::Task<bool> run_once(int cid) override {
    auto* c = clients_[static_cast<size_t>(cid) % clients_.size()];
    Key key = pick_.next(rng_);
    if (rng_.chance(read_frac_)) {
      auto g = co_await c->get_data(key);
      co_return g.ok() || g.status() == OpStatus::NotFound;
    }
    co_return(co_await c->set_data(key,
                                   make_value(cid, seq_++, value_size_)))
        .ok();
  }

 private:
  std::vector<zab::ZkClient*> clients_;
  double read_frac_;
  KeyPick pick_;
  size_t value_size_;
  sim::Rng rng_;
  uint64_t seq_ = 0;
};

/// CockroachDB-substitute cell op: a leader read, or one single-update
/// §X-B3 critical section (lock txn + update/unlock txn).
class CdbMixWorkload : public wl::Workload {
 public:
  CdbMixWorkload(std::vector<raftkv::TxClient*> clients, double read_frac,
                 KeyPick pick, size_t value_size, uint64_t seed)
      : clients_(std::move(clients)),
        read_frac_(read_frac),
        pick_(std::move(pick)),
        value_size_(value_size),
        rng_(seed) {}

  sim::Task<bool> run_once(int cid) override {
    auto* c = clients_[static_cast<size_t>(cid) % clients_.size()];
    Key key = pick_.next(rng_);
    if (rng_.chance(read_frac_)) {
      auto g = co_await c->select(key);
      co_return g.ok() || g.status() == OpStatus::NotFound;
    }
    std::string lock_key = "l";
    lock_key += key;
    co_return(co_await c->critical_section(
                  lock_key, key, make_value(cid, seq_++, value_size_), 1))
        .ok();
  }

 private:
  std::vector<raftkv::TxClient*> clients_;
  double read_frac_;
  KeyPick pick_;
  size_t value_size_;
  sim::Rng rng_;
  uint64_t seq_ = 0;
};

// ---- Cell execution --------------------------------------------------------

KeyPick cell_keypick(const Cell& cell) {
  const WorkloadBlock& w = cell.point.workload;
  return KeyPick(w.keying, w.keys, w.zipf_theta);
}

wl::DriverConfig cell_driver(const Cell& cell) {
  wl::DriverConfig cfg;
  cfg.clients = cell.clients();
  cfg.warmup = cell.point.workload.warmup;
  cfg.measure = cell.point.workload.measure;
  cfg.drain = sim::sec(10);
  cfg.think = think_fn(cell.point.workload.arrival);
  return cfg;
}

void collect_net(sim::Simulation& sim, sim::Network& net, CellOutcome* out) {
  obs::MetricsRegistry reg;
  net.export_metrics(reg);
  out->msgs = reg.counter("net.msgs.sent").value;
  out->wan_msgs = reg.counter("net.msgs.wan").value;
  out->bytes = reg.counter("net.bytes.sent").value;
  out->events = sim.events_run();
}

/// Every replica's MusicStats per site and every shared client's
/// ClientStats, summed over the cluster's groups.  The one place these
/// counters reach a registry.
void export_replicas(cluster::Cluster& cluster, obs::MetricsRegistry& reg) {
  for (int g = 0; g < cluster.num_groups(); ++g) {
    core::MusicGroup& grp = cluster.group(g);
    for (const auto& rep : grp.replicas) {
      const core::MusicStats& st = rep->stats();
      // Built stepwise (GCC 12 -Werror=restrict, see ds::Cell note).
      std::string p = "music.s";
      p += std::to_string(rep->site());
      p += ".";
      reg.add(p + "create_lock_ref", st.create_lock_ref);
      reg.add(p + "acquire_attempts", st.acquire_attempts);
      reg.add(p + "acquire_granted", st.acquire_granted);
      reg.add(p + "synchronizations", st.synchronizations);
      reg.add(p + "critical_puts", st.critical_puts);
      reg.add(p + "critical_gets", st.critical_gets);
      reg.add(p + "releases", st.releases);
      reg.add(p + "forced_releases", st.forced_releases);
      reg.add(p + "rejected_not_holder", st.rejected_not_holder);
      reg.add(p + "rejected_expired", st.rejected_expired);
      reg.add(p + "batches", st.batches);
      reg.add(p + "batched_ops", st.batched_ops);
    }
    for (const auto& c : grp.clients) {
      const core::ClientStats& st = c->stats();
      reg.add("client.attempts", st.attempts);
      reg.add("client.retries", st.retries);
      reg.add("client.retry_exhausted", st.retry_exhausted);
      reg.add("client.deadline_exceeded", st.deadline_exceeded);
      reg.add("client.demotions", st.demotions);
    }
  }
}

/// When the run is traced, folds its totals into the tracer's registry
/// (if one is set) and detaches the tracer, so the world's teardown adds
/// nothing to the trace.  `cluster` is null for zab/raftkv cells.
void finish_trace(sim::Simulation& sim, sim::Network& net,
                  const fault::Nemesis& nemesis, cluster::Cluster* cluster,
                  const CellOutcome& out) {
  obs::Tracer* tracer = sim.tracer();
  if (tracer == nullptr) return;
  sim.set_tracer(nullptr);
  obs::MetricsRegistry* reg = tracer->registry();
  if (reg == nullptr) return;
  net.export_metrics(*reg);
  nemesis.export_metrics(*reg);
  if (cluster != nullptr) {
    cluster->export_metrics(*reg);
    export_replicas(*cluster, *reg);
  }
  reg->set("sim.events_run", sim.events_run());
  reg->set("sim.now_us", static_cast<uint64_t>(sim.now()));
  reg->set("run.completed", out.run.completed);
  reg->set("run.failed", out.run.failed);
  reg->set("trace.spans", tracer->spans().size());
  reg->set("trace.dropped_spans", tracer->dropped_spans());
}

/// The fleet's negotiated wire-version floor given per-site max versions:
/// the lowest version any site pair pins, or 0 if some pair shares none.
int fleet_floor(const std::array<uint8_t, 3>& site_versions) {
  int floor = 255;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      auto v = wire::negotiate(wire::kWireVersionMin, site_versions[i],
                               wire::kWireVersionMin, site_versions[j]);
      if (!v.has_value()) return 0;
      floor = std::min(floor, static_cast<int>(*v));
    }
  }
  return floor;
}

/// Arms the nemesis with the cell's fault schedule (already validated at
/// spec level; a parse failure here is an internal error).
bool arm_faults(const Cell& cell, fault::Nemesis& nemesis, CellOutcome* out) {
  if (cell.point.faults.empty()) return true;
  std::string err;
  auto sched = fault::Schedule::parse(cell.point.faults, &err);
  if (!sched.has_value()) {
    out->error = "internal: fault schedule re-parse failed: " + err;
    return false;
  }
  nemesis.arm(*sched);
  return true;
}

/// Arms the conservative PDES engine on `sim` (before any Network or node
/// exists) when the caller opted in with par_sites > 0.
void maybe_enable_pdes(sim::Simulation& sim, const sim::NetworkConfig& nc,
                       size_t par_sites) {
  if (par_sites == 0) return;
  sim::Simulation::PdesOptions po;
  po.sites = nc.profile.num_sites();
  po.workers = par_sites;
  po.lookahead = sim::Network::conservative_lookahead(nc);
  sim.enable_pdes(po);
}

/// A MUSIC or MSCP cell: a cluster::Cluster of `shards` groups (`shards 1`
/// is one group) driven by one cluster::Client per logical client.
CellOutcome run_cluster_cell(const Cell& cell, core::PutMode mode,
                             size_t par_sites, obs::Tracer* tracer) {
  CellOutcome out;
  out.label = cell.label();

  sim::Simulation sim(cell.seed);
  sim.set_tracer(tracer);
  sim::NetworkConfig nc;
  nc.profile = profile_by_name(cell.profile());
  maybe_enable_pdes(sim, nc, par_sites);
  sim::Network net(sim, nc);

  cluster::ClusterConfig cc;
  cc.shards = cell.shards();
  cc.store_nodes_per_group = cell.point.topology.store_nodes;
  cc.holder_site = cell.point.topology.holder_site;
  cc.store.expected_keys = 4096;
  cc.music.put_mode = mode;
  cc.music.holder_timeout = sim::sec(8);
  cc.music.fd_interval = sim::sec(2);
  cluster::Cluster cluster(sim, net, cc);

  verify::EcfChecker checker(sim);
  // Forced releases under faults can grant from a stale local view; ECF
  // makes no promises to such holders (keep strict when fault-free).
  if (!cell.point.faults.empty()) checker.set_lenient_stale_grants(true);

  fault::NemesisHooks hooks;
  // Crash clauses take replica index r down in EVERY group (with the
  // default three store replicas per group, index r sits at site r).
  hooks.crash_store = [&cluster](int replica, bool down, bool amnesia) {
    for (int g = 0; g < cluster.num_groups(); ++g) {
      cluster.set_down_store(g, replica, down, amnesia);
    }
  };
  hooks.crash_music = [&cluster](int replica, bool down, bool amnesia) {
    for (int g = 0; g < cluster.num_groups(); ++g) {
      cluster.set_down_music(g, replica, down, amnesia);
    }
  };
  // Site bounce = every store and MUSIC replica the site hosts, in every
  // group, plus the upgrade bookkeeping.
  std::array<uint8_t, 3> site_versions = cell_versions(cell);
  hooks.restart_site = [&cluster, &site_versions](int site, bool down,
                                                  bool amnesia, int version) {
    cluster.set_site_down(site, down, amnesia);
    if (!down && version > 0) {
      site_versions[static_cast<size_t>(site)] =
          static_cast<uint8_t>(version);
    }
  };
  fault::Nemesis nemesis(sim, net, hooks);
  if (!arm_faults(cell, nemesis, &out)) return out;

  // One shard-aware client per logical client (cheap: they fan into the
  // cluster's shared per-site core clients).
  std::vector<std::unique_ptr<api::ClientApi>> clients;
  std::vector<int> per_site = cell_placement(cell);
  for (int site = 0; site < 3; ++site) {
    for (int i = 0; i < per_site[static_cast<size_t>(site)]; ++i) {
      clients.push_back(
          std::make_unique<cluster::Client>(cluster, site, &checker));
    }
  }

  KeyPick pick = cell_keypick(cell);
  auto w = std::make_shared<SectionMixWorkload>(
      std::move(clients), cell.mix(), std::move(pick),
      cell.point.workload.value_size, cell.seed ^ 0x5CE7A810ull);
  out.run = wl::run_closed_loop(sim, w, cell_driver(cell));
  nemesis.heal_all();  // close any open-ended faults before inspection

  collect_net(sim, net, &out);
  out.fleet_version = fleet_floor(site_versions);
  out.violations = checker.violations().size();
  out.ok = checker.ok();
  if (!out.ok) out.error = checker.report();
  finish_trace(sim, net, nemesis, &cluster, out);
  return out;
}

CellOutcome run_zab_cell(const Cell& cell, obs::Tracer* tracer) {
  CellOutcome out;
  out.label = cell.label();

  sim::Simulation sim(cell.seed);
  sim.set_tracer(tracer);
  sim::NetworkConfig nc;
  nc.profile = profile_by_name(cell.profile());
  sim::Network net(sim, nc);
  zab::ZabEnsemble ens(sim, net, {0, 1, 2});
  ens.start();

  fault::Nemesis nemesis(sim, net, {});
  if (!arm_faults(cell, nemesis, &out)) return out;

  std::vector<std::unique_ptr<zab::ZkClient>> clients;
  std::vector<zab::ZkClient*> ptrs;
  std::vector<int> per_site = cell_placement(cell);
  for (int site = 0; site < 3; ++site) {
    for (int i = 0; i < per_site[static_cast<size_t>(site)]; ++i) {
      clients.push_back(std::make_unique<zab::ZkClient>(ens, site));
      ptrs.push_back(clients.back().get());
    }
  }

  auto w = std::make_shared<ZabMixWorkload>(
      std::move(ptrs), cell.mix(), cell_keypick(cell),
      cell.point.workload.value_size, cell.seed ^ 0x5CE7A810ull);
  out.run = wl::run_closed_loop(sim, w, cell_driver(cell));
  nemesis.heal_all();  // close any open-ended faults before inspection

  collect_net(sim, net, &out);
  out.ok = true;  // no MUSIC ops: the ECF oracle is vacuous for this cell
  finish_trace(sim, net, nemesis, nullptr, out);
  return out;
}

CellOutcome run_cdb_cell(const Cell& cell, obs::Tracer* tracer) {
  CellOutcome out;
  out.label = cell.label();

  sim::Simulation sim(cell.seed);
  sim.set_tracer(tracer);
  sim::NetworkConfig nc;
  nc.profile = profile_by_name(cell.profile());
  sim::Network net(sim, nc);
  raftkv::RaftCluster cluster(sim, net, {0, 1, 2});
  cluster.start();
  cluster.wait_for_leader();

  fault::Nemesis nemesis(sim, net, {});
  if (!arm_faults(cell, nemesis, &out)) return out;

  std::vector<std::unique_ptr<raftkv::TxClient>> clients;
  std::vector<raftkv::TxClient*> ptrs;
  std::vector<int> per_site = cell_placement(cell);
  int id = 0;
  for (int site = 0; site < 3; ++site) {
    for (int i = 0; i < per_site[static_cast<size_t>(site)]; ++i) {
      // Built stepwise (GCC 12 -Werror=restrict, see ds::Cell note).
      std::string name = "c";
      name += std::to_string(id++);
      clients.push_back(
          std::make_unique<raftkv::TxClient>(cluster, site, name));
      ptrs.push_back(clients.back().get());
    }
  }

  auto w = std::make_shared<CdbMixWorkload>(
      std::move(ptrs), cell.mix(), cell_keypick(cell),
      cell.point.workload.value_size, cell.seed ^ 0x5CE7A810ull);
  out.run = wl::run_closed_loop(sim, w, cell_driver(cell));
  nemesis.heal_all();  // close any open-ended faults before inspection

  collect_net(sim, net, &out);
  out.ok = true;  // no MUSIC ops: the ECF oracle is vacuous for this cell
  finish_trace(sim, net, nemesis, nullptr, out);
  return out;
}

}  // namespace

uint64_t CellOutcome::checksum() const {
  uint64_t h = 14695981039346656037ull;
  auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<uint8_t>(v >> (i * 8)));
  };
  for (char c : label) mix_byte(static_cast<uint8_t>(c));
  mix(run.completed);
  mix(run.failed);
  mix(static_cast<uint64_t>(run.measured));
  mix(run.latency.count());
  // Mean is sum/count of integer microsecond samples: deterministic.
  mix(static_cast<uint64_t>(std::llround(run.latency.mean_ms() * 1000.0)));
  mix(events);
  mix(msgs);
  mix(wan_msgs);
  mix(bytes);
  mix(violations);
  mix(ok ? 1 : 0);
  return h;
}

std::string validate(const ScenarioSpec& spec) {
  bool music_only = true;
  for (Protocol p : spec.protocols) {
    if (p != Protocol::Music && p != Protocol::Mscp) music_only = false;
  }
  for (int s : spec.topology.shards) {
    if (s != 1 && !music_only) {
      return "shards > 1 needs a music/mscp-only protocol list (the "
             "cluster layer shards MUSIC groups; zab/raftkv cells have no "
             "shard ring)";
    }
  }
  for (const std::string& v : spec.topology.versions) {
    if (v.empty()) continue;
    if (!music_only) {
      return "a versions axis needs a music/mscp-only protocol list "
             "(zab/raftkv cells have no MUSIC wire protocol)";
    }
    // Every site pair must share a wire version or the fleet can never
    // form quorums (with today's min of 1 this only fires if the floor is
    // ever raised — exactly when we want the spec rejected loudly).
    std::array<uint8_t, 3> sv{static_cast<uint8_t>(v[0] - '0'),
                              static_cast<uint8_t>(v[2] - '0'),
                              static_cast<uint8_t>(v[4] - '0')};
    for (uint8_t site_max : sv) {
      if (site_max < wire::kWireVersionMin) {
        return "fleet versions " + v + ": a site's max wire version is " +
               "below the supported minimum " +
               std::to_string(wire::kWireVersionMin);
      }
    }
  }
  if (spec.faults.empty()) return "";
  std::string err;
  auto sched = fault::Schedule::parse(spec.faults, &err);
  if (!sched.has_value()) return "fault schedule: " + err;
  for (const fault::FaultSpec& f : sched->specs()) {
    if (f.kind == fault::FaultKind::CrashStore) {
      if (!music_only) {
        return "crash store faults need a music/mscp-only protocol list "
               "(no store replicas exist in zab/raftkv cells)";
      }
      if (f.replica < 0 || f.replica >= spec.topology.store_nodes) {
        return "crash store " + std::to_string(f.replica) +
               ": no such replica (store_nodes " +
               std::to_string(spec.topology.store_nodes) + ")";
      }
    }
    if (f.kind == fault::FaultKind::CrashMusic) {
      if (!music_only) {
        return "crash music faults need a music/mscp-only protocol list";
      }
      if (f.replica < 0 || f.replica >= 3) {
        return "crash music " + std::to_string(f.replica) +
               ": no such replica";
      }
    }
    if (f.kind == fault::FaultKind::Restart) {
      if (!music_only) {
        return "restart faults need a music/mscp-only protocol list (the "
               "nemesis bounces a site's store + MUSIC replicas)";
      }
      if (f.site < 0 || f.site >= 3) {
        return "restart site " + std::to_string(f.site) +
               ": no such site (sites are 0..2)";
      }
      if (f.version > static_cast<int>(wire::kWireVersionMax)) {
        return "restart version " + std::to_string(f.version) +
               ": this binary speaks at most wire version " +
               std::to_string(wire::kWireVersionMax);
      }
    }
    for (int site : f.side_a) {
      if (site < 0 || site >= 3) {
        return "partition names site " + std::to_string(site) +
               " (sites are 0..2)";
      }
    }
    for (int site : f.side_b) {
      if (site < 0 || site >= 3) {
        return "partition names site " + std::to_string(site) +
               " (sites are 0..2)";
      }
    }
    if (f.from_site >= 3 || f.to_site >= 3) {
      return "link fault names a site past 2 (sites are 0..2)";
    }
  }
  return "";
}

sim::LatencyProfile profile_by_name(const std::string& name) {
  if (name == "11") return sim::LatencyProfile::profile_11();
  if (name == "lUsEu") return sim::LatencyProfile::profile_luseu();
  if (name == "local") {
    // Fast co-located profile for unit tests: 1ms RTT everywhere.
    return sim::LatencyProfile::uniform(3, 1.0, 0.2);
  }
  return sim::LatencyProfile::profile_lus();
}

CellOutcome run_cell(const Cell& cell, size_t par_sites, obs::Tracer* tracer) {
  auto t0 = std::chrono::steady_clock::now();
  CellOutcome out;
  try {
    std::string err = validate(cell.point);
    if (err.empty() && tracer != nullptr && par_sites > 0) {
      err = "tracing is unsupported under PDES (par_sites > 0)";
    }
    if (!err.empty()) {
      out.label = cell.label();
      out.error = err;
    } else {
      switch (cell.protocol()) {
        case Protocol::Music:
          out = run_cluster_cell(cell, core::PutMode::Quorum, par_sites,
                                 tracer);
          break;
        case Protocol::Mscp:
          out = run_cluster_cell(cell, core::PutMode::Lwt, par_sites, tracer);
          break;
        case Protocol::Zab:
          // The zab/raftkv substitutes are not lane-safe; they always run
          // on the classic kernel regardless of par_sites.
          out = run_zab_cell(cell, tracer);
          break;
        case Protocol::RaftKv:
          out = run_cdb_cell(cell, tracer);
          break;
      }
    }
  } catch (const std::exception& e) {
    out = CellOutcome{};
    out.label = cell.label();
    out.error = std::string("exception: ") + e.what();
  }
  out.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

ScenarioSpec reduced(ScenarioSpec spec, const RunOptions& opt) {
  if (opt.max_seeds > 0 && spec.seeds > opt.max_seeds) {
    spec.seeds = opt.max_seeds;
  }
  if (opt.max_warmup > 0 && spec.workload.warmup > opt.max_warmup) {
    spec.workload.warmup = opt.max_warmup;
  }
  if (opt.max_measure > 0 && spec.workload.measure > opt.max_measure) {
    spec.workload.measure = opt.max_measure;
  }
  return spec;
}

std::vector<CellOutcome> run_sweep(const ScenarioSpec& spec,
                                   const RunOptions& opt) {
  std::vector<Cell> cells = expand(reduced(spec, opt));
  if (opt.max_cells > 0 && cells.size() > opt.max_cells) {
    cells.resize(opt.max_cells);
  }
  size_t par_sites = opt.par_sites;
  return par::run_worlds(
      cells, [par_sites](const Cell& c) { return run_cell(c, par_sites); },
      opt.threads);
}

}  // namespace music::scn
