// The three simulated workloads.  Each run builds one world through
// cluster::Cluster / cluster::Client (one shard for the WAN worlds) and
// drives it closed-loop; every layer is read back only through its public
// stats.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "e2e.h"
#include "sim/future.h"
#include "sim/network.h"
#include "verify/oracle.h"
#include "workload/zipfian.h"

namespace music::e2e {
namespace {

/// The world's own randomness (network jitter) is fixed, so the seed picks
/// keys and arrivals only.
constexpr uint64_t kWorldSeed = 1;
constexpr uint64_t kKeysPerRange = 100;

struct Shape {
  std::string name;
  sim::LatencyProfile profile;
  int shards = 1;
  /// Closed-loop clients issuing sections, spread round-robin over the
  /// three sites.
  int section_clients = 0;
  /// Read-only clients, each thinking an exponential read_think before
  /// every read.
  int read_clients = 0;
  sim::Duration read_think = 0;
  /// A workload without readers measures eventual reads in a read phase of
  /// its own, after the section window has drained: every section client
  /// reads back to back for this many simulated seconds per --seconds, the
  /// first fifth of them unmeasured.  Sections never share the world with
  /// these reads.
  double read_phase_s_per_s = 0.0;
  /// Each client on its own 100-key range ("u<cid>/k<rank>", the §VIII-a
  /// method), or every client on the same 100 keys ("k<rank>").
  bool disjoint_keys = false;
  /// Zipfian skew over the 100 keys.
  double theta = 0.99;
  size_t expected_keys = 4096;
  sim::Duration warmup = 0;
  /// Simulated seconds measured per --seconds, over all replays together:
  /// sized so they take about --seconds of host time on the reference host.
  double sim_s_per_s = 1.0;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = [] {
    std::vector<Shape> v;
    // 500 clients keep the busiest group's store replica at about 0.8
    // utilization.  From about 750 clients on it saturates, throughput stops
    // growing, and its closed-loop queue wanders: p99 then moves 10-15%
    // from seed to seed instead of under 1%.
    Shape c;
    c.name = "cluster-16";
    c.profile = sim::LatencyProfile::uniform(3, 1.0, 0.2);  // "local"
    c.shards = 16;
    c.section_clients = 500;
    c.disjoint_keys = true;
    c.expected_keys = 1 << 15;
    c.warmup = sim::ms(150);
    c.sim_s_per_s = 0.14;
    c.read_phase_s_per_s = 0.003;
    v.push_back(c);

    // Two section clients per site on 100 shared keys at Zipfian(0.5): lock
    // waits set the tail and no op fails.  At 4 clients per site and
    // Zipfian(0.99) sections fail: waiters run out of their acquireLock poll
    // budget behind convoys on the hot keys, and concurrent createLockRef
    // LWTs duel until RetryExhausted.
    Shape w;
    w.name = "wan-contended";
    w.profile = sim::LatencyProfile::profile_luseu();
    w.shards = 1;
    w.section_clients = 6;
    w.theta = 0.5;
    w.warmup = sim::sec(20);
    w.sim_s_per_s = 900.0;
    w.read_phase_s_per_s = 0.1;
    v.push_back(w);

    // 48 readers thinking 200 ms: about 240 reads per simulated second
    // beside about 7.5 sections, so 97% of ops are reads.
    Shape r = w;
    r.name = "wan-readmostly";
    r.read_phase_s_per_s = 0.0;
    r.read_clients = 48;
    r.read_think = sim::ms(200);
    r.sim_s_per_s = 440.0;
    v.push_back(r);
    return v;
  }();
  return all;
}

/// One simulated deployment: the network, the cluster, one cluster::Client
/// per logical client, and (traced runs) the ECF oracle they report to.
struct World {
  sim::Simulation sim{kWorldSeed};
  sim::Network net;
  cluster::Cluster cluster;
  std::unique_ptr<verify::EcfChecker> checker;
  std::vector<std::unique_ptr<cluster::Client>> clients;

  World(const Shape& s, bool oracle)
      : net(sim, network_config(s)), cluster(sim, net, cluster_config(s)) {
    if (oracle) checker = std::make_unique<verify::EcfChecker>(sim);
    // The default acquireLock budget (4096 polls, 2 ms apart) gives up
    // after about 9 s; behind a rare WAN convoy of five 0.6 s sections plus
    // their LWT hand-offs that is too short, so waiters get 16x the polls.
    cluster::ClientOptions copt;
    copt.max_poll_attempts = 1 << 16;
    int n = s.section_clients + s.read_clients;
    clients.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<cluster::Client>(
          cluster, i % 3, checker.get(), copt));
    }
  }

  static sim::NetworkConfig network_config(const Shape& s) {
    sim::NetworkConfig nc;
    nc.profile = s.profile;
    return nc;
  }
  static cluster::ClusterConfig cluster_config(const Shape& s) {
    cluster::ClusterConfig cc;
    cc.shards = s.shards;
    cc.store.expected_keys = s.expected_keys;
    cc.music.holder_timeout = sim::sec(8);
    cc.music.fd_interval = sim::sec(2);
    return cc;
  }
};

/// Cumulative counters read through the layers' public stats; the metrics
/// are deltas of two snapshots around the measured window.
struct Counters {
  uint64_t events = 0, allocs = 0;
  double cpu_s = 0.0;
  uint64_t msgs = 0, wan_msgs = 0, bytes = 0, client_msgs = 0, paxos_msgs = 0;
  uint64_t routed = 0, wrong_shard = 0;
  uint64_t attempts = 0, retries = 0;
  uint64_t polls = 0, grants = 0, syncs = 0;
  std::vector<sim::Duration> store_busy, core_busy;

  /// Adds the change from `a` to `b` of every scalar counter.
  void add_delta(const Counters& a, const Counters& b) {
    events += b.events - a.events;
    allocs += b.allocs - a.allocs;
    cpu_s += b.cpu_s - a.cpu_s;
    msgs += b.msgs - a.msgs;
    wan_msgs += b.wan_msgs - a.wan_msgs;
    bytes += b.bytes - a.bytes;
    client_msgs += b.client_msgs - a.client_msgs;
    paxos_msgs += b.paxos_msgs - a.paxos_msgs;
    routed += b.routed - a.routed;
    wrong_shard += b.wrong_shard - a.wrong_shard;
    attempts += b.attempts - a.attempts;
    retries += b.retries - a.retries;
    polls += b.polls - a.polls;
    grants += b.grants - a.grants;
    syncs += b.syncs - a.syncs;
  }
};

Counters snapshot(World& w) {
  Counters c;
  c.events = w.sim.events_run();
  c.allocs = allocs_now();
  c.cpu_s = self_cpu_s();
  c.msgs = w.net.messages_sent();
  c.wan_msgs = w.net.wan_messages_sent();
  c.bytes = w.net.bytes_sent();
  c.client_msgs = w.net.messages_sent(sim::MsgKind::ClientRequest) +
                  w.net.messages_sent(sim::MsgKind::ClientReply);
  c.paxos_msgs = w.net.messages_sent(sim::MsgKind::PaxosPrepare) +
                 w.net.messages_sent(sim::MsgKind::PaxosAccept) +
                 w.net.messages_sent(sim::MsgKind::PaxosCommit);
  for (const auto& cl : w.clients) {
    c.routed += cl->stats().routed_ops;
    c.wrong_shard += cl->stats().wrong_shard_retries;
  }
  for (int g = 0; g < w.cluster.num_groups(); ++g) {
    cluster::Group& grp = w.cluster.group(g);
    for (auto& mc : grp.clients) {
      c.attempts += mc->stats().attempts;
      c.retries += mc->stats().retries;
    }
    for (auto& rep : grp.replicas) {
      c.polls += rep->stats().acquire_attempts;
      c.grants += rep->stats().acquire_granted;
      c.syncs += rep->stats().synchronizations;
      c.core_busy.push_back(rep->service().busy_time());
    }
    for (int i = 0; i < grp.store->num_replicas(); ++i) {
      c.store_busy.push_back(grp.store->replica(i).service().busy_time());
    }
  }
  return c;
}

/// Highest busy / (elapsed x workers) across nodes over the window.
double util_max(const std::vector<sim::Duration>& a,
                const std::vector<sim::Duration>& b, sim::Duration window,
                int workers) {
  double best = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    best = std::max(best, static_cast<double>(b[i] - a[i]) /
                              (static_cast<double>(window) * workers));
  }
  return best;
}

/// One run of the closed loop over a built world.
struct Run {
  const Shape* shape = nullptr;
  World* world = nullptr;
  OpContext ctx;
  std::vector<sim::Rng> rngs;
  std::unique_ptr<wl::Zipfian> zipf;
  sim::Time warmup_end = 0;
  sim::Time end = 0;
  Tally tally;
  uint64_t completions = 0;
  // The read phase, when the workload has one.
  sim::Time read_warmup_end = 0;
  sim::Time read_end = 0;
  Tally read_tally;
};

Key key_for(Run* run, int cid, uint64_t rank) {
  // Built stepwise: GCC 12 -Wrestrict misfires on literal + to_string
  // rvalue concatenations inside coroutine frames.
  Key key;
  if (run->shape->disjoint_keys) {
    key = "u";
    key += std::to_string(cid);
    key += "/k";
  } else {
    key = "k";
  }
  key += std::to_string(rank);
  return key;
}

sim::Task<void> client_loop(Run* run, int cid) {
  sim::Simulation& sim = run->world->sim;
  sim::Rng& rng = run->rngs[static_cast<size_t>(cid)];
  const Shape& s = *run->shape;
  bool reader = cid >= s.section_clients;
  co_await sim::sleep_for(sim, rng.uniform_int(0, sim::ms(5)));
  while (sim.now() < run->end) {
    if (reader) {
      auto think = static_cast<sim::Duration>(
          rng.exponential(static_cast<double>(s.read_think)));
      co_await sim::sleep_for(sim, think);
      if (sim.now() >= run->end) break;
    }
    Key key = key_for(run, cid, run->zipf->next(rng));
    sim::Time t0 = sim.now();
    bool measured = t0 >= run->warmup_end;
    co_await run_op(&run->ctx, run->world->clients[static_cast<size_t>(cid)].get(),
                    std::move(key), reader, t0,
                    measured ? &run->tally : nullptr);
    ++run->completions;
  }
}

/// The read phase: client `cid` issues eventual reads back to back on its
/// keys until read_end.
sim::Task<void> read_phase_loop(Run* run, int cid) {
  sim::Simulation& sim = run->world->sim;
  sim::Rng& rng = run->rngs[static_cast<size_t>(cid)];
  while (sim.now() < run->read_end) {
    Key key = key_for(run, cid, run->zipf->next(rng));
    sim::Time t0 = sim.now();
    bool measured = t0 >= run->read_warmup_end;
    co_await run_op(&run->ctx, run->world->clients[static_cast<size_t>(cid)].get(),
                    std::move(key), true, t0,
                    measured ? &run->read_tally : nullptr);
  }
}

struct Pass {
  Tally tally;
  Tally read_tally;  // the read phase (empty without one)
  Counters before, after;
  sim::Duration window = 0;
  double window_s = 0.0;
  uint64_t violations = 0;  // latest-state check
  uint64_t completed = 0;   // ops completed inside the window
  std::vector<int64_t> chunk_wall_ns;  // host time of each tenth of it
  std::vector<uint64_t> chunk_events;  // events run in each tenth
  uint64_t unfinished = 0;
  /// Every measured op, the read phase's too.
  uint64_t ops() const { return tally.ops() + read_tally.ops(); }
  uint64_t failed() const { return tally.failed() + read_tally.failed(); }
};

/// Lets every op in flight finish.  Failure detectors keep the event queue
/// busy forever, so this waits on the op count; ops still running after
/// 300 simulated seconds are counted and abandoned.
uint64_t drain(sim::Simulation& sim, const OpContext& ctx) {
  sim::Time cap = sim.now() + sim::sec(300);
  while (ctx.inflight > 0 && sim.now() < cap) sim.run_for(sim::ms(100));
  return static_cast<uint64_t>(ctx.inflight);
}

/// Runs warm-up, the measured window (in chunks, each timed on the host
/// clock) and a drain that lets every measured op finish; then, when
/// `read_phase` is positive, the read phase and its drain.
Pass run_pass(const Shape& shape, World& world, uint64_t seed,
              sim::Duration warmup, sim::Duration window,
              sim::Duration read_phase, BenchSpans* spans) {
  Run run;
  run.shape = &shape;
  run.world = &world;
  run.ctx.sim = &world.sim;
  run.ctx.spans = spans;
  run.zipf = std::make_unique<wl::Zipfian>(kKeysPerRange, shape.theta);
  int n = static_cast<int>(world.clients.size());
  for (int i = 0; i < n; ++i) {
    run.rngs.emplace_back(seed * 0x9E3779B97F4A7C15ull +
                          static_cast<uint64_t>(i) * 0xD1B54A32D192ED03ull);
  }
  sim::Simulation& sim = world.sim;
  run.warmup_end = sim.now() + warmup;
  run.end = run.warmup_end + window;
  constexpr int kChunks = 10;
  for (int i = 0; i < n; ++i) sim::spawn(sim, client_loop(&run, i));

  sim.run_until(run.warmup_end);
  if (spans != nullptr) sim.set_tracer(&spans->tracer);
  Pass p;
  p.before = snapshot(world);
  uint64_t completed0 = run.completions;
  for (int k = 1; k <= kChunks; ++k) {
    int64_t t0 = wall_ns();
    uint64_t e0 = sim.events_run();
    sim.run_until(run.warmup_end + window * k / kChunks);
    p.chunk_wall_ns.push_back(wall_ns() - t0);
    p.chunk_events.push_back(sim.events_run() - e0);
  }
  p.completed = run.completions - completed0;
  p.after = snapshot(world);
  p.unfinished = drain(sim, run.ctx);
  sim.set_tracer(nullptr);
  p.tally = std::move(run.tally);
  p.tally.sections_failed += p.unfinished;
  if (read_phase > 0 && p.unfinished == 0) {
    run.read_warmup_end = sim.now() + read_phase / 5;
    run.read_end = sim.now() + read_phase;
    for (int i = 0; i < shape.section_clients; ++i) {
      sim::spawn(sim, read_phase_loop(&run, i));
    }
    sim.run_until(run.read_end);
    uint64_t unfinished = drain(sim, run.ctx);
    p.read_tally = std::move(run.read_tally);
    p.read_tally.reads_failed += unfinished;
    p.unfinished += unfinished;
  }
  p.window = window;
  p.window_s = sim::to_sec(window);
  p.violations = run.ctx.check.violations();
  return p;
}

/// The metrics the seed fixes, over every replay's window together:
/// everything measured on the sim clock or counted by the program.
void report_passes(const Shape& shape, const std::vector<Pass>& passes,
                   MetricSet& out) {
  // Reads come from the readers, or from the read phase when there are none.
  Tally t, reads;
  Counters d;  // summed changes over the windows
  double window_s = 0.0, store_util = 0.0, core_util = 0.0;
  // Ops completed in the windows, and the busy seconds (per worker) of
  // each window's busiest modelled server.
  double completed = 0.0, busiest_s = 0.0;
  uint64_t all_ops = 0, all_failed = 0;
  cluster::ClusterConfig cc = World::cluster_config(shape);
  for (const Pass& p : passes) {
    t.merge(p.tally);
    reads.merge(shape.read_clients > 0 ? p.tally : p.read_tally);
    d.add_delta(p.before, p.after);
    window_s += p.window_s;
    all_ops += p.ops();
    all_failed += p.failed();
    double su = util_max(p.before.store_busy, p.after.store_busy, p.window,
                         cc.store.service.workers);
    double cu = util_max(p.before.core_busy, p.after.core_busy, p.window,
                         cc.music.service.workers);
    store_util = std::max(store_util, su);
    core_util = std::max(core_util, cu);
    completed += static_cast<double>(p.completed);
    busiest_s += std::max(su, cu) * p.window_s;
  }
  // Ops of the section windows (the per-op costs are counted over them).
  double ops = static_cast<double>(t.ops());
  double sections = static_cast<double>(t.sections_ok + t.sections_failed);
  auto per_op = [ops](uint64_t n) { return per(static_cast<double>(n), ops); };
  auto per_section = [sections](uint64_t n) {
    return per(static_cast<double>(n), sections);
  };
  // Over the whole window: the sim clock has no host stalls to window out.
  out.set("section_p50_ms", t.section.percentile_ms(50), "ms");
  out.set("section_p99_ms", t.section.percentile_ms(99), "ms");
  out.set("read_p50_ms", reads.read.percentile_ms(50), "ms");
  out.set("read_p99_ms", reads.read.percentile_ms(99), "ms");
  double sections_per_s = static_cast<double>(t.sections_ok) / window_s;
  out.set("sections_per_s", sections_per_s, "1/s");
  // Capacity by the utilization law: the op rate, at this mix of ops, at
  // which the busiest modelled server (a store or MUSIC replica's service
  // queue) would never be idle.  Lock waits and WAN round trips are not
  // served by any of them, so on the WAN worlds it sits far above
  // sections_per_s.
  out.set("max_rate_per_s", per(completed, busiest_s), "1/s");
  double failed_frac = per(static_cast<double>(all_failed),
                           static_cast<double>(all_ops));
  out.set("failed_frac", failed_frac, "ratio");
  out.set("ok_frac", 1.0 - failed_frac, "ratio");

  out.set("sim.events_per_op", per_op(d.events), "count");
  out.set("cluster.routed_per_op", per_op(d.routed), "count");
  out.set("cluster.wrong_shard_per_op", per_op(d.wrong_shard), "count");
  out.set("store.service_util_max", store_util, "ratio");
  out.set("core.service_util_max", core_util, "ratio");
  out.set("net.msgs_per_op", per_op(d.msgs), "count");
  out.set("net.wan_msgs_per_op", per_op(d.wan_msgs), "count");
  out.set("net.bytes_per_op", per_op(d.bytes), "B");
  out.set("net.store_msgs_per_op", per_op(d.msgs - d.client_msgs), "count");
  out.set("net.paxos_msgs_per_section", per_section(d.paxos_msgs), "count");
  out.set("core.polls_per_section", per_section(d.polls), "count");
  out.set("core.grant_ratio",
          per(static_cast<double>(d.grants), static_cast<double>(d.polls)),
          "ratio");
  out.set("core.syncs_per_section", per_section(d.syncs), "count");
  out.set("client.create_p50_ms", t.create.percentile_ms(50), "ms");
  out.set("client.acquire_p50_ms", t.acquire.percentile_ms(50), "ms");
  out.set("client.get_p50_ms", t.get.percentile_ms(50), "ms");
  out.set("client.put_p50_ms", t.put.percentile_ms(50), "ms");
  out.set("client.release_p50_ms", t.release.percentile_ms(50), "ms");
  out.set("client.acquire_p99_ms", t.acquire.percentile_ms(99), "ms");
  out.set("client.read_p50_ms", reads.read_call.percentile_ms(50), "ms");
  out.set("client.attempts_per_op", per_op(d.attempts), "count");
  out.set("client.retries_per_op", per_op(d.retries), "count");
  out.set("ops.attempted", static_cast<double>(all_ops), "count");
  out.set("ops.failed", static_cast<double>(all_failed), "count");
}

/// Host-clock metrics.  Every replay's window is cut into the same ten
/// tenths, and a tenth costs about the same host time per simulated event
/// in every replay, so each tenth is priced at its cheapest replay's time
/// per event: other load on the host only ever slows a stretch down, and
/// the sum is the windows' time with the least of it.
void report_host(const std::vector<Pass>& passes, MetricSet& out) {
  double best_s = 0.0;
  uint64_t completed = 0, events = 0;
  for (size_t k = 0; k < passes[0].chunk_wall_ns.size(); ++k) {
    double best_ns_per_event = 0.0;
    uint64_t chunk_events = 0;
    for (const Pass& p : passes) {
      double ns_per_event =
          static_cast<double>(p.chunk_wall_ns[k]) /
          static_cast<double>(std::max<uint64_t>(p.chunk_events[k], 1));
      if (chunk_events == 0 || ns_per_event < best_ns_per_event) {
        best_ns_per_event = ns_per_event;
      }
      chunk_events += std::max<uint64_t>(p.chunk_events[k], 1);
    }
    best_s += best_ns_per_event * static_cast<double>(chunk_events) / 1e9;
  }
  std::vector<double> cpu_us_per_op;
  for (const Pass& p : passes) {
    completed += p.completed;
    events += p.after.events - p.before.events;
    cpu_us_per_op.push_back(per((p.after.cpu_s - p.before.cpu_s) * 1e6,
                                static_cast<double>(p.tally.ops())));
  }
  out.set("ops_per_wall_s", per(static_cast<double>(completed), best_s),
          "1/s");
  out.set("sim.events_per_wall_s", per(static_cast<double>(events), best_s),
          "1/s");
  // The last replay: the first also pays for lazily built statics.
  const Pass& last = passes.back();
  out.set("mem.allocs_per_op",
          per(static_cast<double>(last.after.allocs - last.before.allocs),
              static_cast<double>(last.tally.ops())),
          "count");
  out.set("cpu.us_per_op",
          *std::min_element(cpu_us_per_op.begin(), cpu_us_per_op.end()), "us");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace

bool run_sim_workload(const Options& opt, MetricSet& out) {
  const Shape* shape = nullptr;
  for (const Shape& s : shapes()) {
    if (s.name == opt.workload) shape = &s;
  }
  if (shape == nullptr) return false;
  // The measured window is split over kReplays replays, each on a fresh
  // world with a seed of its own drawn from the run's: eight independent
  // samples of the workload, reported together (see report_host for the
  // host clock).
  constexpr int kReplays = 8;
  double scale = opt.smoke ? 0.5 : opt.seconds;
  auto window = static_cast<sim::Duration>(scale * shape->sim_s_per_s * 1e6 /
                                           kReplays);
  auto read_phase = static_cast<sim::Duration>(
      scale * shape->read_phase_s_per_s * 1e6 / kReplays);
  sim::Duration warmup = opt.smoke ? shape->warmup / 5 : shape->warmup;
  bool traced = !opt.trace_path.empty();

  // Set-up: the median of kSetups world builds, each into memory the
  // process has not used before, as a program's first build is.  All of
  // them stay alive until the last is built: a build into memory a freed
  // world left behind skips the page faults and took a fifth (cluster-16)
  // to an eighth (WAN) of the time, so a median over builds that reused
  // memory came out in either regime depending on how many there were.
  // The peak memory reported is that of the replays, counted from after
  // the builds.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  {
    std::vector<std::unique_ptr<World>> kept;
    for (int i = 0; i < kSetups; ++i) {
      int64_t t0 = wall_ns();
      kept.push_back(std::make_unique<World>(*shape, false));
      setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    }
  }
  reset_peak_rss();
  out.set("setup_s", median(setup_s), "s");

  // The traced run measures one untraced replay, for the per-layer
  // metrics and the tracing overhead, before its traced pass.  Replay r
  // runs on the r-th CPU this process may use, in turn: other tenants of a
  // shared host slow one CPU at a time, so the cheapest replay of each
  // tenth (report_host) then comes from the quietest CPU.
  std::vector<int> cpus = allowed_cpus();
  std::vector<Pass> replays;
  uint64_t violations = 0;
  for (int r = 0; r < (traced ? 1 : kReplays); ++r) {
    if (!cpus.empty()) pin_to({cpus[static_cast<size_t>(r) % cpus.size()]});
    World world(*shape, false);
    uint64_t seed = opt.seed * kReplays + static_cast<uint64_t>(r);
    replays.push_back(
        run_pass(*shape, world, seed, warmup, window, read_phase, nullptr));
    violations += replays.back().violations;
  }
  pin_to(cpus);
  report_passes(*shape, replays, out);
  report_host(replays, out);
  const Pass& p = replays.back();

  if (traced) {
    // A second world with the oracle armed and the tracer attached for a
    // sixteenth of the window: a few thousand sections, and a trace of tens
    // of MB rather than hundreds.
    BenchSpans spans;
    World traced_world(*shape, true);
    Pass tp = run_pass(*shape, traced_world, opt.seed * kReplays, warmup,
                       window / 16, 0, &spans);
    std::map<std::string, double> self = self_ms_per_section(spans, false);
    for (const char* layer : {"client", "core", "lockstore", "datastore"}) {
      out.set(std::string("trace.") + layer + ".self_ms_per_section",
              self[layer], "ms");
    }
    double cpu_per_op = per(p.after.cpu_s - p.before.cpu_s,
                            static_cast<double>(p.tally.ops()));
    double traced_cpu_per_op = per(tp.after.cpu_s - tp.before.cpu_s,
                                   static_cast<double>(tp.tally.ops()));
    out.set("trace.overhead_frac", per(traced_cpu_per_op, cpu_per_op) - 1.0,
            "ratio");
    out.set("trace.spans", static_cast<double>(spans.tracer.spans().size()),
            "count");
    violations += tp.violations + traced_world.checker->violations().size();
    if (!traced_world.checker->ok()) {
      std::fprintf(stderr, "%s", traced_world.checker->report().c_str());
    }
    if (!write_trace_events(spans, opt.index, opt.trace_path)) return false;
  }
  out.set("check.violations", static_cast<double>(violations), "count");
  return true;
}

}  // namespace music::e2e
