#include "workload/driver.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "sim/future.h"

namespace music::wl {

namespace {

/// Client start jitter bound (avoids lockstep artifacts).
constexpr sim::Duration kStartJitter = sim::ms(5);

struct Accum {
  // Client loops execute on concurrent site lanes under PDES, so the exact
  // counts are relaxed atomics (commutative sums) and the sample sink takes
  // a mutex per completed op — uncontended and invisible in classic
  // single-threaded worlds, and amortized over a whole critical section
  // (many events) under PDES.
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  std::mutex latency_mu;
  Samples latency;
  sim::Time warmup_end = 0;
  sim::Time end = 0;
  // The arrival hook lives in the shared state (not a coroutine parameter)
  // so client_loop frames that outlive run_closed_loop's stack frame keep
  // it alive through their shared_ptr.
  std::function<sim::Duration(sim::Rng&, sim::Time)> think;
};

sim::Task<void> client_loop(sim::Simulation& sim, std::shared_ptr<Workload> w,
                            int cid, sim::Duration jitter,
                            std::shared_ptr<Accum> acc) {
  if (jitter > 0) co_await sim::sleep_for(sim, jitter);
  while (sim.now() < acc->end) {
    if (acc->think) {
      // Arrival gap: think time before the op, excluded from its latency.
      sim::Duration gap = acc->think(sim.rng(), sim.now());
      if (gap > 0) co_await sim::sleep_for(sim, gap);
      if (sim.now() >= acc->end) break;
    }
    sim::Time t0 = sim.now();
    bool ok = co_await w->run_once(cid);
    // Count only operations fully inside the measurement window.
    if (t0 >= acc->warmup_end && sim.now() <= acc->end) {
      if (ok) {
        acc->completed.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(acc->latency_mu);
        acc->latency.add(sim.now() - t0);
      } else {
        acc->failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

sim::Task<void> sequential_loop(sim::Simulation& sim,
                                std::shared_ptr<Workload> w, int ops,
                                sim::Time deadline,
                                std::shared_ptr<Accum> acc) {
  for (int i = 0; i < ops && sim.now() < deadline; ++i) {
    sim::Time t0 = sim.now();
    bool ok = co_await w->run_once(0);
    if (ok) {
      acc->completed.fetch_add(1, std::memory_order_relaxed);
      acc->latency.add(sim.now() - t0);
    } else {
      acc->failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  acc->end = sim.now();
}

}  // namespace

RunResult run_closed_loop(sim::Simulation& sim, std::shared_ptr<Workload> w,
                          DriverConfig cfg) {
  auto acc = std::make_shared<Accum>();
  if (cfg.max_latency_samples > 0) {
    acc->latency.enable_reservoir(cfg.max_latency_samples,
                                  cfg.latency_sample_seed);
  }
  acc->warmup_end = sim.now() + cfg.warmup;
  acc->end = acc->warmup_end + cfg.measure;
  acc->think = cfg.think;
  for (int c = 0; c < cfg.clients; ++c) {
    sim::Duration jitter = sim.rng().uniform_int(0, kStartJitter);
    sim::spawn(sim, client_loop(sim, w, c, jitter, acc));
  }
  sim.run_until(acc->end + cfg.drain);
  RunResult r;
  r.completed = acc->completed.load(std::memory_order_relaxed);
  r.failed = acc->failed.load(std::memory_order_relaxed);
  r.measured = cfg.measure;
  r.latency = std::move(acc->latency);
  return r;
}

RunResult run_sequential(sim::Simulation& sim, std::shared_ptr<Workload> w,
                         int ops, sim::Duration time_limit) {
  auto acc = std::make_shared<Accum>();
  sim::Time start = sim.now();
  sim::Time deadline = start + time_limit;
  acc->end = deadline;
  sim::spawn(sim, sequential_loop(sim, w, ops, deadline, acc));
  // Run until the loop reports completion (acc->end moves below deadline)
  // or the time limit passes.
  while (sim.now() < deadline &&
         acc->completed.load(std::memory_order_relaxed) +
                 acc->failed.load(std::memory_order_relaxed) <
             static_cast<uint64_t>(ops)) {
    sim.run_for(sim::ms(100));
    if (sim.idle()) break;
  }
  RunResult r;
  r.completed = acc->completed.load(std::memory_order_relaxed);
  r.failed = acc->failed.load(std::memory_order_relaxed);
  r.measured = sim.now() - start;
  r.latency = std::move(acc->latency);
  return r;
}

}  // namespace music::wl
