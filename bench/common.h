// Shared plumbing for the benchmark harness: deployment builders matching
// the paper's methodology (§VIII-a) and table/CSV output helpers.
//
// Methodology mapping:
//   * 3 logical sites, WAN latencies from Table II       -> sim::Network
//   * Cassandra 3.11, 1 node/site (3-9 for Fig 4b), RF=3 -> ds::StoreCluster
//   * peak throughput: saturate with many client threads -> run_closed_loop
//   * mean latency: a single thread                      -> run_sequential
//   * non-overlapping key ranges per thread, 10B values  -> workloads
// Absolute numbers come from a simulator, not the authors' testbed; the
// SHAPE (who wins, by what factor) is the reproduction target.  Each bench
// prints the paper's reported values alongside for comparison.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/group.h"
#include "core/music.h"
#include "datastore/store.h"
#include "lockstore/lockstore.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "raftkv/txkv.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "workload/driver.h"
#include "workload/runners.h"
#include "workload/ycsb.h"
#include "zab/zab.h"

namespace music::bench {

/// Host wall-clock stopwatch (NOT simulated time) for kernel-speed
/// reporting: how long a world took to execute, and how many simulated
/// events per host second the kernel sustained.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_sec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One simulated world's bench outcome: the workload result plus how hard
/// the kernel worked for it (events executed, host wall-clock consumed).
struct CellResult {
  wl::RunResult run;
  uint64_t events = 0;
  double wall_sec = 0.0;

  double events_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0;
  }
};

/// Worker threads for bench sweeps: MUSIC_BENCH_THREADS if set (1 forces
/// sequential), else 0 = par::default_threads().
inline size_t bench_threads() {
  if (const char* env = std::getenv("MUSIC_BENCH_THREADS")) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 0;
}

/// Fans independent world thunks across the thread pool (see
/// par::run_worlds); results are in job order regardless of completion
/// order, so printed tables and CSVs are identical at any thread count.
inline std::vector<CellResult> run_cells(
    std::vector<std::function<CellResult()>> jobs) {
  return par::run_worlds(
      jobs, [](const std::function<CellResult()>& j) { return j(); },
      bench_threads());
}

/// Per-bench machine-readable report, written as BENCH_<name>.json next to
/// the binary output: a flat string -> number map plus the bench's total
/// wall-clock and aggregate kernel events/sec.  CI's perf-smoke job diffs
/// these against committed baselines.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  ~BenchReport() { write(); }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void set(const std::string& key, double v) { entries_.emplace_back(key, v); }

  /// Records one world's kernel cost under `label`.*.
  void add_cell(const std::string& label, const CellResult& c) {
    set(label + ".wall_sec", c.wall_sec);
    set(label + ".events", static_cast<double>(c.events));
    set(label + ".events_per_sec", c.events_per_sec());
    total_events_ += c.events;
    total_world_wall_ += c.wall_sec;
  }

  bool write() {
    if (written_) return true;
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"wall_sec_total\": %.6g,\n", timer_.elapsed_sec());
    std::fprintf(f, "  \"world_wall_sec_sum\": %.6g,\n", total_world_wall_);
    std::fprintf(f, "  \"events_total\": %.17g,\n",
                 static_cast<double>(total_events_));
    std::fprintf(f, "  \"events_per_sec_aggregate\": %.6g,\n",
                 total_world_wall_ > 0.0
                     ? static_cast<double>(total_events_) / total_world_wall_
                     : 0.0);
    std::fprintf(f, "  \"metrics\": {");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                   entries_[i].first.c_str(), entries_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("[bench] wrote %s (wall %.2fs, %.2fM events/s aggregate)\n",
                path.c_str(), timer_.elapsed_sec(),
                total_world_wall_ > 0.0
                    ? static_cast<double>(total_events_) / total_world_wall_ /
                          1e6
                    : 0.0);
    return true;
  }

 private:
  std::string name_;
  WallTimer timer_;
  std::vector<std::pair<std::string, double>> entries_;
  uint64_t total_events_ = 0;
  double total_world_wall_ = 0.0;
  bool written_ = false;
};

/// Attaches a Tracer + MetricsRegistry to a simulation for one run.
/// Tracing stays off (and costs nothing) unless a bench constructs one of
/// these.
struct ObsSession {
  explicit ObsSession(sim::Simulation& sim) : sim_(sim) {
    tracer.set_registry(&metrics);
    sim_.set_tracer(&tracer);
  }
  ~ObsSession() { sim_.set_tracer(nullptr); }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

 private:
  sim::Simulation& sim_;
};

/// A full MUSIC deployment (one core::MusicGroup) with per-site clients.
struct MusicWorld {
  sim::Simulation sim;
  sim::Network net;
  core::MusicGroup group;
  ds::StoreCluster& store = *group.store;
  ls::LockStore& locks = *group.locks;
  std::vector<std::unique_ptr<core::MusicReplica>>& replicas = group.replicas;
  std::vector<std::unique_ptr<core::MusicClient>>& clients = group.clients;

  MusicWorld(uint64_t seed, const sim::LatencyProfile& profile,
             core::PutMode mode, int store_nodes, int clients_per_site,
             sim::Duration t_max_cs = sim::sec(3600))
      : sim(seed),
        net(sim,
            [&] {
              sim::NetworkConfig c;
              c.profile = profile;
              return c;
            }()),
        group(sim, net, [&] {
          core::GroupConfig gc;
          gc.store_nodes = store_nodes;
          // Workload hint: per-client key ranges plus lock tables stay
          // comfortably under this; replicas pre-size their tables so
          // steady-state writes never rehash.
          gc.store.expected_keys = 4096;
          gc.music.put_mode = mode;
          // Large: benches run long batch sections.
          gc.music.t_max_cs = t_max_cs;
          gc.music.holder_timeout = sim::sec(8);  // orphan-lockRef collection
          gc.music.fd_interval = sim::sec(2);
          gc.failure_detector = true;
          return gc;
        }()) {
    for (int site = 0; site < 3; ++site) {
      for (int i = 0; i < clients_per_site; ++i) group.add_client(site);
    }
  }

  std::vector<core::MusicClient*> client_ptrs() {
    std::vector<core::MusicClient*> v;
    v.reserve(clients.size());
    for (auto& c : clients) v.push_back(c.get());
    return v;
  }
};

/// A Zookeeper deployment with per-site clients.
struct ZkWorld {
  sim::Simulation sim;
  sim::Network net;
  zab::ZabEnsemble ens;
  std::vector<std::unique_ptr<zab::ZkClient>> clients;

  ZkWorld(uint64_t seed, const sim::LatencyProfile& profile,
          int clients_per_site)
      : sim(seed),
        net(sim,
            [&] {
              sim::NetworkConfig c;
              c.profile = profile;
              return c;
            }()),
        ens(sim, net, {0, 1, 2}) {
    ens.start();
    for (int site = 0; site < 3; ++site) {
      for (int i = 0; i < clients_per_site; ++i) {
        clients.push_back(std::make_unique<zab::ZkClient>(ens, site));
      }
    }
  }

  std::vector<zab::ZkClient*> client_ptrs() {
    std::vector<zab::ZkClient*> v;
    for (auto& c : clients) v.push_back(c.get());
    return v;
  }
};

/// A CockroachDB-substitute deployment with per-site transaction clients.
struct CdbWorld {
  sim::Simulation sim;
  sim::Network net;
  raftkv::RaftCluster cluster;
  std::vector<std::unique_ptr<raftkv::TxClient>> clients;

  CdbWorld(uint64_t seed, const sim::LatencyProfile& profile,
           int clients_per_site)
      : sim(seed),
        net(sim,
            [&] {
              sim::NetworkConfig c;
              c.profile = profile;
              return c;
            }()),
        cluster(sim, net, {0, 1, 2}) {
    cluster.start();
    cluster.wait_for_leader();
    int id = 0;
    for (int site = 0; site < 3; ++site) {
      for (int i = 0; i < clients_per_site; ++i) {
        // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
        // to_string rvalue concats once this ctor is inlined into callers.
        std::string name = "c";
        name += std::to_string(id++);
        clients.push_back(
            std::make_unique<raftkv::TxClient>(cluster, site, name));
      }
    }
  }

  std::vector<raftkv::TxClient*> client_ptrs() {
    std::vector<raftkv::TxClient*> v;
    for (auto& c : clients) v.push_back(c.get());
    return v;
  }
};

/// CSV sink: every bench writes its series next to the binary output.
class Csv {
 public:
  explicit Csv(const std::string& path) : f_(std::fopen(path.c_str(), "w")) {}
  ~Csv() {
    if (f_ != nullptr) std::fclose(f_);
  }
  Csv(const Csv&) = delete;
  Csv& operator=(const Csv&) = delete;

  void row(const std::string& line) {
    if (f_ != nullptr) std::fprintf(f_, "%s\n", line.c_str());
  }

 private:
  std::FILE* f_;
};

inline void hr() {
  std::printf("--------------------------------------------------------------------------------\n");
}

/// Human-readable bytes label (10B, 1KB, 256KB).
inline std::string size_label(size_t bytes) {
  if (bytes >= 1024 * 1024) return std::to_string(bytes / (1024 * 1024)) + "MB";
  if (bytes >= 1024) return std::to_string(bytes / 1024) + "KB";
  return std::to_string(bytes) + "B";
}

}  // namespace music::bench
