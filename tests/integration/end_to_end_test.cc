// End-to-end integration: all layers in one simulated deployment — REST
// gateway, recipes, multi-key sections, the job-scheduler pattern, failure
// injection and the verification oracle, concurrently.
#include <gtest/gtest.h>

#include <memory>

#include "core/multikey.h"
#include "recipes/recipes.h"
#include "rest/rest.h"
#include "util/world.h"
#include "verify/oracle.h"

namespace music {
namespace {

using test::MusicWorld;
using test::WorldOptions;

TEST(EndToEnd, MixedWorkloadAcrossAllLayersSurvivesFailures) {
  WorldOptions opt;
  opt.seed = 2026;
  opt.clients_per_site = 3;  // 9 clients
  opt.music.holder_timeout = sim::sec(6);
  opt.music.fd_interval = sim::sec(1);
  MusicWorld w(opt);
  for (int i = 0; i < 3; ++i) w.replica(i).start_failure_detector();

  verify::EcfChecker checker(w.sim);
  checker.set_lenient_stale_grants(true);

  int completed_flows = 0;
  sim::Time end = sim::sec(90);

  // Flow 1: a REST-driven read-modify-write loop.
  sim::spawn(w.sim, [](MusicWorld& world, int& done, sim::Time until) -> sim::Task<void> {
    rest::RestGateway gw(world.client(0));
    int rounds = 0;
    while (world.sim.now() < until && rounds < 8) {
      auto created = rest::Json::parse(co_await gw.handle(
          R"({"op":"createLockRef","key":"rest-counter"})"));
      if (!created || (*created)["status"].as_string() != "Ok") continue;
      int64_t ref = (*created)["lockRef"].as_int();
      rest::Json acq;
      acq.set("op", "acquireLock").set("key", "rest-counter").set("lockRef", ref);
      std::string st;
      for (int i = 0; i < 256 && st != "Ok" && st != "NotLockHolder"; ++i) {
        st = (co_await gw.handle_json(acq))["status"].as_string();
        if (st != "Ok") co_await sim::sleep_for(world.sim, sim::ms(10));
      }
      if (st != "Ok") continue;
      rest::Json get;
      get.set("op", "criticalGet").set("key", "rest-counter").set("lockRef", ref);
      auto gr = co_await gw.handle_json(get);
      int v = gr["status"].as_string() == "Ok"
                  ? std::stoi(gr["value"].as_string())
                  : 0;
      rest::Json put;
      put.set("op", "criticalPut").set("key", "rest-counter").set("lockRef", ref)
          .set("value", std::to_string(v + 1));
      co_await gw.handle_json(put);
      rest::Json rel;
      rel.set("op", "releaseLock").set("key", "rest-counter").set("lockRef", ref);
      co_await gw.handle_json(rel);
      ++rounds;
    }
    ++done;
  }(w, completed_flows, end));

  // Flow 2: a distributed queue producer/consumer pair.
  sim::spawn(w.sim, [](MusicWorld& world, int& done, sim::Time until) -> sim::Task<void> {
    recipes::DistributedQueue producer(world.client(1), "workq");
    for (int i = 0; i < 6 && world.sim.now() < until; ++i) {
      co_await producer.push("task-" + std::to_string(i));
      co_await sim::sleep_for(world.sim, sim::sec(2));
    }
    ++done;
  }(w, completed_flows, end));
  auto consumed = std::make_shared<std::vector<std::string>>();
  sim::spawn(w.sim, [](MusicWorld& world, std::shared_ptr<std::vector<std::string>> out,
                       int& done, sim::Time until) -> sim::Task<void> {
    recipes::DistributedQueue consumer(world.client(2), "workq");
    while (world.sim.now() < until && out->size() < 6) {
      auto item = co_await consumer.pop();
      if (item.ok()) {
        out->push_back(item.value());
      } else {
        co_await sim::sleep_for(world.sim, sim::sec(1));
      }
    }
    ++done;
  }(w, consumed, completed_flows, end));

  // Flow 3: multi-key "transfers" between two accounts with an invariant.
  sim::spawn(w.sim, [](MusicWorld& world, int& done, sim::Time until) -> sim::Task<void> {
    auto& c = world.client(3);
    {
      core::MultiKeySection init(c, {"acct-x", "acct-y"});
      co_await init.acquire_all();
      co_await init.put("acct-x", Value("100"));
      co_await init.put("acct-y", Value("100"));
      co_await init.release_all();
    }
    for (int i = 0; i < 6 && world.sim.now() < until; ++i) {
      core::MultiKeySection cs(c, {"acct-x", "acct-y"});
      auto st = co_await cs.acquire_all();
      if (!st.ok()) continue;
      auto gx = co_await cs.get("acct-x");
      auto gy = co_await cs.get("acct-y");
      if (gx.ok() && gy.ok()) {
        int x = std::stoi(gx.value().data);
        int y = std::stoi(gy.value().data);
        EXPECT_EQ(x + y, 200);  // conservation across transfers
        co_await cs.put("acct-x", Value(std::to_string(x - 10)));
        co_await cs.put("acct-y", Value(std::to_string(y + 10)));
      }
      co_await cs.release_all();
    }
    ++done;
  }(w, completed_flows, end));

  // Flow 4: checked critical sections feeding the oracle.
  sim::spawn(w.sim, [](MusicWorld& world, verify::EcfChecker& ck, int& done,
                       sim::Time until) -> sim::Task<void> {
    verify::CheckedClient c(world.client(4), ck);
    int rounds = 0;
    while (world.sim.now() < until && rounds < 10) {
      auto ref = co_await c.create_lock_ref("oracle-key");
      if (!ref.ok()) continue;
      auto acq = co_await c.acquire_lock_blocking("oracle-key", ref.value());
      if (!acq.ok()) {
        co_await c.remove_lock_ref("oracle-key", ref.value());
        continue;
      }
      auto g = co_await c.critical_get("oracle-key", ref.value());
      (void)g;
      // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
      // to_string rvalue concats inside coroutine frames.
      std::string rv = "r";
      rv += std::to_string(rounds);
      co_await c.critical_put("oracle-key", ref.value(), Value(rv));
      co_await c.release_lock("oracle-key", ref.value());
      ++rounds;
    }
    ++done;
  }(w, checker, completed_flows, end));

  // Chaos: one store replica bounces twice during the run.
  w.sim.schedule(sim::sec(20), [&] { w.store.replica(2).set_down(true); });
  w.sim.schedule(sim::sec(25), [&] { w.store.replica(2).set_down(false); });
  w.sim.schedule(sim::sec(50), [&] { w.store.replica(0).set_down(true); });
  w.sim.schedule(sim::sec(56), [&] { w.store.replica(0).set_down(false); });

  w.sim.run_until(end + sim::sec(120));

  EXPECT_EQ(completed_flows, 5);  // REST, producer, consumer, transfers, oracle
  EXPECT_TRUE(checker.ok()) << checker.report();
  // Queue flow: FIFO order observed end to end.
  ASSERT_EQ(consumed->size(), 6u);
  for (size_t i = 0; i < consumed->size(); ++i) {
    EXPECT_EQ((*consumed)[i], "task-" + std::to_string(i));
  }
  // REST flow: the counter reflects every committed round.
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto v = co_await w.replica(1).get_quorum_unlocked("rest-counter");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "8");
  });
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music
