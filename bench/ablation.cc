// Ablations of the design choices DESIGN.md calls out:
//   1. Local lsPeek vs quorum peek for acquireLock polling (§III-A's
//      separation of createLockRef and acquireLock).
//   2. forcedRelease delta sensitivity: delta=0 loses the synchFlag race
//      the paper's delta>0 requirement exists for (§IV-B); delta beyond T
//      masks the next holder's reset.
//   3. Lock-cost amortization: per-write latency of a critical section as
//      batch grows (the §X-B4 argument in one curve).
//   4. Lock-store substrate (§X-A1): Cassandra LWTs (the paper's production
//      choice, 4 RTTs per consensus write) vs a Raft-backed lock store (the
//      "1-RTT consensus" future work), with the same MUSIC core on top.
//
// Ablations 3 and 4 are sweeps of independent seeded worlds and fan out via
// par::run_worlds; 1 and 2 are single-world probes and stay sequential.
#include <cstdio>
#include <memory>

#include "common.h"
#include "lockstore/raft_lockstore.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr uint64_t kSeed = 99;

CellResult amortization_cell(const sim::LatencyProfile& lus, int batch) {
  WallTimer wall;
  MusicWorld w(kSeed, lus, core::PutMode::Quorum, 3, 1);
  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "a", batch, 10);
  CellResult out;
  out.run = wl::run_sequential(w.sim, workload, 6, sim::sec(3600));
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

CellResult lwt_cell(const sim::LatencyProfile& lus, int batch) {
  WallTimer wall;
  MusicWorld w(kSeed, lus, core::PutMode::Quorum, 3, 1);
  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "l", batch, 10);
  CellResult out;
  out.run = wl::run_sequential(w.sim, workload, 6, sim::sec(3600));
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

// Raft backend: same data store, lock queues on a Raft KV.
CellResult raft_cell(const sim::LatencyProfile& lus, int batch) {
  WallTimer wall;
  sim::Simulation s(kSeed);
  sim::NetworkConfig nc;
  nc.profile = lus;
  sim::Network net(s, nc);
  ds::StoreCluster store(s, net, ds::StoreConfig{}, {0, 1, 2});
  raftkv::RaftCluster raft(s, net, {0, 1, 2});
  raft.start();
  raft.wait_for_leader();
  ls::RaftLockStore locks(raft);
  std::vector<std::unique_ptr<core::MusicReplica>> reps;
  for (int site = 0; site < 3; ++site) {
    reps.push_back(std::make_unique<core::MusicReplica>(
        store, locks, core::MusicConfig{}, site));
  }
  std::vector<core::MusicReplica*> prefs{reps[0].get(), reps[1].get(),
                                         reps[2].get()};
  core::MusicClient client(s, net, prefs, core::ClientConfig{}, 0);
  auto workload = std::make_shared<wl::MusicCsWorkload>(
      std::vector<core::MusicClient*>{&client}, "r", batch, 10);
  CellResult out;
  out.run = wl::run_sequential(s, workload, 6, sim::sec(3600));
  out.events = s.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

}  // namespace

int main() {
  BenchReport report("ablation");
  auto lus = sim::LatencyProfile::profile_lus();

  // ---- 1. local vs quorum peek --------------------------------------------
  std::printf("Ablation 1: acquireLock polling cost — local lsPeek (the "
              "paper's design) vs a quorum peek\n");
  hr();
  {
    WallTimer wall;
    MusicWorld w(kSeed, lus, core::PutMode::Quorum, 3, 1);
    wl::Samples local_peek, quorum_peek;
    bool done = false;
    sim::spawn(w.sim, [](MusicWorld& world, wl::Samples& lp, wl::Samples& qp,
                         bool& d) -> sim::Task<void> {
      auto& c = *world.clients.front();
      auto ref = co_await c.create_lock_ref("k");
      co_await c.acquire_lock_blocking("k", ref.value());
      auto& coord = world.store.replica_at_site(0);
      for (int i = 0; i < 50; ++i) {
        sim::Time t0 = world.sim.now();
        co_await world.locks.peek(coord, "k");
        lp.add(world.sim.now() - t0);
        t0 = world.sim.now();
        co_await world.locks.peek_quorum(coord, "k");
        qp.add(world.sim.now() - t0);
      }
      d = true;
    }(w, local_peek, quorum_peek, done));
    w.sim.run_until(sim::sec(120));
    std::printf("  local peek  %8.3f ms   (paper: ~0.67 ms, 'L')\n",
                local_peek.mean_ms());
    std::printf("  quorum peek %8.3f ms   (%.0fx costlier: why the paper "
                "polls locally)\n",
                quorum_peek.mean_ms(),
                quorum_peek.mean_ms() / local_peek.mean_ms());
    CellResult cell;
    cell.events = w.sim.events_run();
    cell.wall_sec = wall.elapsed_sec();
    report.set("ablation1.local_peek_ms", local_peek.mean_ms());
    report.set("ablation1.quorum_peek_ms", quorum_peek.mean_ms());
    report.add_cell("ablation1", cell);
  }
  hr();

  // ---- 2. delta sensitivity ------------------------------------------------
  std::printf("\nAblation 2: forcedRelease delta — synchFlag race outcome at "
              "the store level\n");
  hr();
  for (sim::Duration delta : {sim::Duration{0}, sim::Duration{1}}) {
    // Build a world with the given delta and stage the §IV-B race: holder
    // r's acquireLock resets the flag "concurrently" with forcedRelease(r).
    // At the timestamp level: the forced set must beat every reset stamped
    // under r.  With delta=0 it ties r's latest possible reset and loses
    // (LWW keeps the reset): the next holder would skip synchronization.
    MusicWorld w(kSeed, lus, core::PutMode::Quorum, 3, 1, sim::sec(60));
    for (auto& r : w.replicas) {
      // Reach into config via a fresh replica set would be cleaner; the
      // MusicConfig is fixed at construction, so demonstrate with the V2S
      // stamps directly.
      (void)r;
    }
    V2S v2s(sim::sec(60));
    ScalarTs reset_latest = v2s.encode(5, sim::sec(60) - 1);
    ScalarTs forced = v2s.encode_forced_release(5, delta);
    bool forced_wins = forced > reset_latest;
    std::printf("  delta=%lldus: forcedRelease stamp %s the holder's latest "
                "possible synchFlag reset -> %s\n",
                static_cast<long long>(delta),
                forced_wins ? "beats" : "TIES/LOSES to",
                forced_wins ? "flag stays dirty; next holder synchronizes (correct)"
                            : "flag can end clean; next holder may SKIP the "
                              "synchronization (Critical-Section Invariant lost)");
  }
  {
    V2S v2s(sim::sec(60));
    ScalarTs forced = v2s.encode_forced_release(5, sim::sec(60) + 1);
    std::printf("  delta=T+1us: forced stamp %s the NEXT holder's first reset "
                "-> later sections would re-synchronize forever\n",
                forced >= v2s.encode(6, 0) ? "reaches into" : "stays below");
  }
  hr();

  // ---- 3. amortization curve ------------------------------------------------
  std::printf("\nAblation 3: per-write cost of a critical section vs batch "
              "size (the amortization the paper's use cases rely on)\n");
  hr();
  std::printf("%-8s %16s %16s\n", "batch", "section ms", "ms per write");
  Csv csv("ablation_amortization.csv");
  csv.row("batch,section_ms,per_write_ms");
  std::vector<int> batches{1, 2, 5, 10, 25, 50, 100};
  std::vector<std::function<CellResult()>> jobs;
  for (int batch : batches) {
    jobs.push_back([lus, batch] { return amortization_cell(lus, batch); });
  }
  auto cells = run_cells(std::move(jobs));
  for (size_t i = 0; i < batches.size(); ++i) {
    int batch = batches[i];
    double section_ms = cells[i].run.latency.mean_ms();
    double per_write = section_ms / batch;
    std::printf("%-8d %16.1f %16.1f\n", batch, section_ms, per_write);
    csv.row(std::to_string(batch) + "," + std::to_string(section_ms) + "," +
            std::to_string(per_write));
    std::string base = "ablation3.b";
    base += std::to_string(batch);
    report.set(base + ".per_write_ms", per_write);
    report.add_cell(base, cells[i]);
  }
  std::printf("(per-write cost approaches the bare quorum-put latency as the "
              "2 consensus lock ops amortize)\n");
  hr();

  // ---- 4. lock-store substrate: LWT vs Raft ---------------------------------
  std::printf("\nAblation 4: lock-store substrate — Cassandra LWT (paper, "
              "SX-A1) vs Raft consensus (the named future work)\n");
  hr();
  std::printf("%-8s %18s %18s\n", "batch", "LWT section ms", "Raft section ms");
  Csv csv4("ablation_lockstore.csv");
  csv4.row("batch,lwt_ms,raft_ms");
  std::vector<int> batches4{1, 10, 100};
  std::vector<std::function<CellResult()>> jobs4;
  for (int batch : batches4) {
    jobs4.push_back([lus, batch] { return lwt_cell(lus, batch); });
    jobs4.push_back([lus, batch] { return raft_cell(lus, batch); });
  }
  auto cells4 = run_cells(std::move(jobs4));
  for (size_t i = 0; i < batches4.size(); ++i) {
    int batch = batches4[i];
    double lwt_ms = cells4[i * 2].run.latency.mean_ms();
    double raft_ms = cells4[i * 2 + 1].run.latency.mean_ms();
    std::printf("%-8d %18.1f %18.1f\n", batch, lwt_ms, raft_ms);
    csv4.row(std::to_string(batch) + "," + std::to_string(lwt_ms) + "," +
             std::to_string(raft_ms));
    std::string base = "ablation4.b";
    base += std::to_string(batch);
    report.add_cell(base + ".lwt", cells4[i * 2]);
    report.add_cell(base + ".raft", cells4[i * 2 + 1]);
  }
  std::printf("(the Raft backend cuts createLockRef/releaseLock from 4 RTTs "
              "to ~1 consensus round + a leader hop; criticalPuts are "
              "identical, so the gap shrinks as the batch amortizes the lock "
              "cost — exactly the SX-A1 trade the paper describes)\n");
  hr();
  return 0;
}
