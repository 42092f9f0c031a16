// Shared test fixtures: ready-made simulated deployments mirroring the
// paper's (Fig. 1): a 3-site cluster with one store node per site, MUSIC
// replicas at each site, and clients with site-local preference order.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/group.h"
#include "core/music.h"
#include "datastore/store.h"
#include "lockstore/lockstore.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace music::test {

/// Runs a Task<void> to completion on the simulation, with a virtual-time
/// cap; returns false if it did not complete in time.
class TaskRunner {
 public:
  explicit TaskRunner(sim::Simulation& s) : sim_(s) {}

  template <typename TaskFactory>
  bool run(TaskFactory&& factory, sim::Duration limit = sim::sec(600)) {
    bool done = false;
    sim::spawn(sim_, wrap(factory(), &done));
    sim_.run_until(sim_.now() + limit);
    return done;
  }

 private:
  static sim::Task<void> wrap(sim::Task<void> t, bool* done) {
    co_await std::move(t);
    *done = true;
  }

  sim::Simulation& sim_;
};

/// Options for building a MUSIC world.
struct WorldOptions {
  uint64_t seed = 1;
  sim::LatencyProfile profile = sim::LatencyProfile::profile_lus();
  int store_nodes = 3;  // interleaved across 3 sites
  core::MusicConfig music{};
  ds::StoreConfig store{};
  sim::NetworkConfig net{};
  core::ClientConfig client{};
  int clients_per_site = 1;
  /// > 0 switches the world to conservative PDES with this many site-lane
  /// workers (lookahead derived from the profile) before the Network is
  /// built.  0 = classic kernel; existing tests and goldens are unaffected.
  /// PDES worlds draw from per-lane rng streams, so their results differ
  /// from classic runs but are bit-identical at any worker count.
  size_t pdes_workers = 0;

  WorldOptions() { net.profile = profile; }
};

/// A complete MUSIC deployment: simulation, network, and one MUSIC group
/// (core/group.h) with `clients_per_site` local-first clients per site.
class MusicWorld {
 public:
  explicit MusicWorld(WorldOptions opt = WorldOptions())
      : options(std::move(opt)),
        sim(options.seed),
        net(sim, [this] {
          auto n = options.net;
          n.profile = options.profile;
          // enable_pdes must precede Network construction (the net arms
          // per-lane delivery state); this init-list lambda is the one spot
          // between the two members.
          if (options.pdes_workers > 0) {
            sim::Simulation::PdesOptions po;
            po.sites = n.profile.num_sites();
            po.workers = options.pdes_workers;
            po.lookahead = sim::Network::conservative_lookahead(n);
            sim.enable_pdes(po);
          }
          return n;
        }()),
        group(sim, net, [this] {
          core::GroupConfig gc;
          gc.store_nodes = options.store_nodes;
          gc.music = options.music;
          gc.store = options.store;
          gc.client = options.client;
          return gc;
        }()),
        runner(sim) {
    for (int site = 0; site < 3; ++site) {
      for (int c = 0; c < options.clients_per_site; ++c) {
        group.add_client(site);
      }
    }
  }

  core::MusicClient& client(size_t i) { return *clients.at(i); }
  core::MusicReplica& replica(int site) {
    return *replicas.at(static_cast<size_t>(site));
  }

  static std::vector<int> node_sites(int n) {
    std::vector<int> v;
    v.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) v.push_back(i % 3);
    return v;
  }

  WorldOptions options;
  sim::Simulation sim;
  sim::Network net;
  core::MusicGroup group;
  ds::StoreCluster& store = *group.store;
  ls::LockStore& locks = *group.locks;
  std::vector<std::unique_ptr<core::MusicReplica>>& replicas = group.replicas;
  std::vector<std::unique_ptr<core::MusicClient>>& clients = group.clients;
  TaskRunner runner;
};

/// A store-only world (datastore/lockstore tests).
class StoreWorld {
 public:
  explicit StoreWorld(uint64_t seed = 1,
                      sim::LatencyProfile profile = sim::LatencyProfile::profile_lus(),
                      int nodes = 3, ds::StoreConfig cfg = ds::StoreConfig())
      : sim(seed),
        net(sim, [&] {
          sim::NetworkConfig n;
          n.profile = profile;
          return n;
        }()),
        store(sim, net, cfg, MusicWorld::node_sites(nodes)),
        locks(store),
        runner(sim) {}

  sim::Simulation sim;
  sim::Network net;
  ds::StoreCluster store;
  ls::LockStore locks;
  TaskRunner runner;
};

}  // namespace music::test

// Coroutine-safe assertion macros: gtest's ASSERT_* contains a plain
// `return`, which is ill-formed inside a coroutine.  These record the
// failure and co_return instead.
#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    if (!(cond)) {                                    \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #cond; \
      co_return;                                      \
    }                                                 \
  } while (0)

#define CO_ASSERT_FALSE(cond) CO_ASSERT_TRUE(!(cond))

#define CO_ASSERT_EQ(a, b)                                               \
  do {                                                                   \
    if (!((a) == (b))) {                                                 \
      ADD_FAILURE() << "CO_ASSERT_EQ failed: " #a " vs " #b;             \
      co_return;                                                         \
    }                                                                    \
  } while (0)
