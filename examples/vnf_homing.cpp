// The VNF Homing Service of §VII-a: a multi-site job scheduler where worker
// pools at every site vie for homing jobs, process them exclusively from
// their latest state, and survive worker failures mid-job.
//
// Structure (Fig. 3): Client API replicas insert jobs into MUSIC with put();
// workers iterate jobs with getAllKeys, lock one with a MUSIC critical
// section, and step it through the execution states of Fig. 3(b):
//   PENDING -> TEMPLATE_RESOLVED -> CANDIDATES_FOUND -> SOLUTION_FOUND -> DONE
// If a worker dies mid-job, the failure detector preempts its lock and
// another worker resumes the job *from its latest state* — no work redone.
//
// Build & run:  ./build/examples/vnf_homing

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/group.h"
#include "core/session.h"
#include "sim/network.h"
#include "sim/simulation.h"

using namespace music;

namespace {

// The homing pipeline of Fig. 3(b).  Values are "state|description".
const char* next_state(const std::string& s) {
  if (s == "PENDING") return "TEMPLATE_RESOLVED";
  if (s == "TEMPLATE_RESOLVED") return "CANDIDATES_FOUND";
  if (s == "CANDIDATES_FOUND") return "SOLUTION_FOUND";
  if (s == "SOLUTION_FOUND") return "DONE";
  return "DONE";
}

std::string state_of(const Value& v) {
  return v.data.substr(0, v.data.find('|'));
}

struct HomingWorld {
  sim::Simulation s{7};
  sim::NetworkConfig net_cfg;
  sim::Network net;
  core::MusicGroup group;
  int jobs_done = 0;

  HomingWorld()
      : net_cfg([] {
          sim::NetworkConfig c;
          c.profile = sim::LatencyProfile::profile_lus();
          return c;
        }()),
        net(s, net_cfg),
        group(s, net, [] {
          core::GroupConfig gc;
          // Failure detection for dead workers.
          gc.music.holder_timeout = sim::sec(12);
          gc.music.fd_interval = sim::sec(2);
          gc.failure_detector = true;
          return gc;
        }()) {}

  core::MusicClient& make_client(int site) { return group.add_client(site); }
};

/// Client API replica (§VII-a): receives homing requests, places them in
/// MUSIC with a lock-free put, then polls for DONE jobs and deletes them.
sim::Task<void> client_api(HomingWorld& w, core::MusicClient& c, int n_jobs) {
  for (int j = 0; j < n_jobs; ++j) {
    Key job_id = "job/" + std::to_string(j);
    std::string desc = "vnf-chain-" + std::to_string(j) + ";bw=10G;lat<20ms";
    co_await c.put(job_id, Value("PENDING|" + desc));
    std::printf("[t=%7.2f s] client-api submitted %s (%s)\n",
                sim::to_sec(w.s.now()), job_id.c_str(), desc.c_str());
    co_await sim::sleep_for(w.s, sim::sec(2));
  }
  // Poll for completed jobs and garbage-collect them (with locks: deletes
  // are critical operations on job state).
  while (w.jobs_done < n_jobs) {
    co_await sim::sleep_for(w.s, sim::sec(5));
    auto keys = co_await c.get_all_keys("job/");
    if (!keys.ok()) continue;
    for (const auto& job : keys.value()) {
      auto v = co_await c.get(job);
      if (v.ok() && state_of(v.value()) == "DONE") {
        auto body = [&](LockRef ref) -> sim::Task<Status> {
          co_return co_await c.critical_delete(job, ref);
        };
        auto st = co_await c.with_lock(job, body);
        if (st.ok()) {
          ++w.jobs_done;
          std::printf("[t=%7.2f s] client-api reaped %s (DONE)\n",
                      sim::to_sec(w.s.now()), job.c_str());
        }
      }
    }
  }
}

/// Worker (§VII-a pseudo-code): iterate jobs, lock an incomplete one, and
/// execute it in a critical section, checkpointing each state transition
/// with criticalPut so a successor can resume from the latest state.
sim::Task<void> worker(HomingWorld& w, core::MusicClient& c, int id,
                       sim::Time die_at) {
  while (w.s.now() < sim::sec(200)) {
    if (die_at > 0 && w.s.now() >= die_at) {
      std::printf("[t=%7.2f s] worker-%d CRASHED\n", sim::to_sec(w.s.now()), id);
      co_return;  // crash: lock left held; FD will preempt it
    }
    // jobs = getAllKeys(); pop each in submission order.
    auto keys = co_await c.get_all_keys("job/");
    if (!keys.ok() || keys.value().empty()) {
      co_await sim::sleep_for(w.s, sim::sec(1));
      continue;
    }
    for (const auto& job : keys.value()) {
      auto peeked = co_await c.get(job);  // lock-free read; may be stale
      if (!peeked.ok() || state_of(peeked.value()) == "DONE") continue;

      // Try to acquire exclusive access to the job.
      auto ref = co_await c.create_lock_ref(job);
      if (!ref.ok()) continue;
      auto acq = co_await c.acquire_lock_blocking(job, ref.value());
      if (!acq.ok()) {
        // Lost the race: evict our reference for timely garbage collection.
        co_await c.remove_lock_ref(job, ref.value());
        continue;
      }

      // executeJobInCriticalSection (§VII-a): progress from the LATEST
      // state — possibly mid-pipeline, checkpointed by a dead predecessor.
      auto st = co_await c.critical_get(job, ref.value());
      if (!st.ok() || state_of(st.value()) == "DONE") {
        // Vanished or already completed (the lock-free peek was stale,
        // which "has no impact on the correctness of the job scheduler").
        co_await c.release_lock(job, ref.value());
        continue;
      }
      std::string state = state_of(st.value());
      std::string desc = st.value().data.substr(st.value().data.find('|'));
      std::printf("[t=%7.2f s] worker-%d homing %s from state %s\n",
                  sim::to_sec(w.s.now()), id, job.c_str(), state.c_str());
      bool lost = false;
      while (state != "DONE" && !lost) {
        if (die_at > 0 && w.s.now() >= die_at) {
          std::printf("[t=%7.2f s] worker-%d CRASHED mid-job on %s (state %s)\n",
                      sim::to_sec(w.s.now()), id, job.c_str(), state.c_str());
          co_return;  // died holding the lock, job half done
        }
        // "Homing is a complex and time-consuming process": each stage
        // costs simulated solver time.
        co_await sim::sleep_for(w.s, sim::sec(2));
        state = next_state(state);
        auto put = co_await c.critical_put(job, ref.value(),
                                           Value(state + desc));
        if (!put.ok()) lost = true;  // preempted: another worker owns it now
      }
      if (!lost) {
        std::printf("[t=%7.2f s] worker-%d finished %s\n",
                    sim::to_sec(w.s.now()), id, job.c_str());
        co_await c.release_lock(job, ref.value());
      }
    }
  }
}

}  // namespace

int main() {
  HomingWorld w;
  std::printf("VNF Homing Service (Fig. 3) on 3 sites, profile %s\n",
              w.net_cfg.profile.name.c_str());
  std::printf("3 workers; worker-0 is scheduled to crash mid-job.\n\n");

  auto& api = w.make_client(0);
  constexpr int kJobs = 4;
  sim::spawn(w.s, client_api(w, api, kJobs));

  // Worker 0 crashes 9s in (mid-pipeline); workers 1 and 2 take over.
  sim::spawn(w.s, worker(w, w.make_client(0), 0, sim::sec(9)));
  sim::spawn(w.s, worker(w, w.make_client(1), 1, 0));
  sim::spawn(w.s, worker(w, w.make_client(2), 2, 0));

  w.s.run_until(sim::sec(240));
  std::printf("\ncompleted %d/%d jobs (worker crash included)\n", w.jobs_done,
              kJobs);
  uint64_t preemptions = 0;
  for (auto& r : w.group.replicas) preemptions += r->stats().forced_releases;
  std::printf("failure-detector preemptions: %llu\n",
              static_cast<unsigned long long>(preemptions));
  return w.jobs_done == kJobs ? 0 : 1;
}
