// A geo-distributed ledger on MUSIC's extension APIs: multi-key critical
// sections (§III-A's lexicographic-order extension) for atomic transfers
// between accounts, plus the atomic-structure recipes the paper's §II
// argues critical sections subsume (an AtomicCounter audit log).
//
// Three tellers at three sites transfer money concurrently; one teller
// crashes while HOLDING both account locks (before writing).  The failure
// detector collects its locks and the other tellers proceed; the invariant
// — the sum of all balances never changes — holds throughout.
//
// NOTE the deliberate design point, straight from §II: MUSIC checkpoints
// state with criticalPuts and has NO transactional rollback — a client that
// crashed between two puts would leave the first one as latest state.  A
// production ledger therefore writes an intent/journal record before
// touching balances (the homing service's job-state checkpointing is the
// same pattern); this example crashes the teller before its first put, the
// case MUSIC's locks handle by themselves.
//
// Build & run:  ./build/examples/bank_ledger

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/multikey.h"
#include "recipes/recipes.h"
#include "util_world_example.h"

using namespace music;

namespace {

constexpr int kAccounts = 4;
constexpr int kInitialBalance = 250;

Key account(int i) { return "acct-" + std::to_string(i); }

sim::Task<void> teller(ExampleWorld& w, core::MusicClient& c, int id,
                       sim::Time die_at, int transfers, int& completed) {
  recipes::AtomicCounter audit(c, "audit-log");
  sim::Rng rng(static_cast<uint64_t>(id) * 7919 + 13);
  for (int t = 0; t < transfers; ++t) {
    if (die_at > 0 && w.s.now() >= die_at) {
      std::printf("[t=%6.2f s] teller-%d CRASHED mid-shift\n",
                  sim::to_sec(w.s.now()), id);
      co_return;
    }
    int from = static_cast<int>(rng.next_u64() % kAccounts);
    int to = (from + 1 + static_cast<int>(rng.next_u64() % (kAccounts - 1))) %
             kAccounts;
    int amount = static_cast<int>(1 + rng.next_u64() % 50);

    core::MultiKeySection cs(c, {account(from), account(to)});
    auto st = co_await cs.acquire_all();
    if (!st.ok()) continue;
    if (die_at > 0 && w.s.now() >= die_at) {
      // Crash while holding both locks, before writing: the failure
      // detector preempts the orphaned section so other tellers proceed.
      std::printf("[t=%6.2f s] teller-%d CRASHED holding locks on %s,%s "
                  "(FD will preempt)\n",
                  sim::to_sec(w.s.now()), id, account(from).c_str(),
                  account(to).c_str());
      co_return;
    }
    auto gf = co_await cs.get(account(from));
    auto gt = co_await cs.get(account(to));
    if (gf.ok() && gt.ok()) {
      int bf = std::stoi(gf.value().data);
      int bt = std::stoi(gt.value().data);
      if (bf >= amount) {
        auto p1 = co_await cs.put(account(from), Value(std::to_string(bf - amount)));
        auto p2 = co_await cs.put(account(to), Value(std::to_string(bt + amount)));
        if (p1.ok() && p2.ok()) {
          co_await audit.add(1);
          ++completed;
          std::printf("[t=%6.2f s] teller-%d moved %3d: %s -> %s\n",
                      sim::to_sec(w.s.now()), id, amount, account(from).c_str(),
                      account(to).c_str());
        }
      }
    }
    co_await cs.release_all();
    co_await sim::sleep_for(w.s, rng.uniform_int(0, sim::ms(500)));
  }
}

}  // namespace

int main() {
  ExampleWorld w(/*seed=*/31, /*failure_detector=*/true);
  std::printf("Geo-distributed bank ledger: %d accounts x %d, 3 tellers, "
              "teller-0 crashes mid-transfer\n\n", kAccounts, kInitialBalance);

  // Initialize balances under one multi-key section.
  bool init_done = false;
  sim::spawn(w.s, [](ExampleWorld& world, bool& d) -> sim::Task<void> {
    std::vector<Key> keys;
    for (int i = 0; i < kAccounts; ++i) keys.push_back(account(i));
    core::MultiKeySection init(*world.group.clients[0], keys);
    co_await init.acquire_all();
    for (int i = 0; i < kAccounts; ++i) {
      co_await init.put(account(i), Value(std::to_string(kInitialBalance)));
    }
    co_await init.release_all();
    d = true;
  }(w, init_done));
  w.s.run_until(sim::sec(30));
  if (!init_done) return 1;

  int completed = 0;
  sim::spawn(w.s,
             teller(w, *w.group.clients[0], 0, sim::sec(40), 10, completed));
  sim::spawn(w.s, teller(w, *w.group.clients[1], 1, 0, 10, completed));
  sim::spawn(w.s, teller(w, *w.group.clients[2], 2, 0, 10, completed));
  w.s.run_until(sim::sec(300));

  // Audit: conservation of money, observed through a fresh section.
  int total = -1;
  bool audited = false;
  sim::spawn(w.s, [](ExampleWorld& world, int& sum, bool& d) -> sim::Task<void> {
    std::vector<Key> keys;
    for (int i = 0; i < kAccounts; ++i) keys.push_back(account(i));
    core::MultiKeySection cs(*world.group.clients[1], keys);
    auto st = co_await cs.acquire_all();
    if (!st.ok()) co_return;
    sum = 0;
    for (int i = 0; i < kAccounts; ++i) {
      auto g = co_await cs.get(account(i));
      if (g.ok()) sum += std::stoi(g.value().data);
    }
    co_await cs.release_all();
    recipes::AtomicCounter audit(*world.group.clients[1], "audit-log");
    auto n = co_await audit.get();
    std::printf("\naudit: %lld transfers logged, total balance %d "
                "(expected %d)\n",
                n.ok() ? static_cast<long long>(n.value()) : -1, sum,
                kAccounts * kInitialBalance);
    d = true;
  }(w, total, audited));
  w.s.run_until(sim::sec(400));

  bool ok = audited && total == kAccounts * kInitialBalance;
  std::printf("%s (completed transfers: %d)\n",
              ok ? "LEDGER CONSISTENT" : "LEDGER BROKEN", completed);
  return ok ? 0 : 1;
}
