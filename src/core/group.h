// One MUSIC group in the Fig. 1 layout: store replicas interleaved over three
// home sites, a lock store on top of them, one MUSIC replica per home site,
// and clients that prefer their local replica (or a pinned holder) and fail
// over to the others (§III).
//
// Every LockStore-backed world builds its groups here — each group of a
// cluster::Cluster, the test and bench fixtures, the examples — so a single
// group and a one-shard cluster are the same object.  Nodes are created in a
// fixed order (store replicas, then each MUSIC replica with its failure
// detector, then clients in add_client order), which is what keeps seeded
// runs bit-identical however the group is embedded.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/music.h"
#include "datastore/store.h"
#include "lockstore/lockstore.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace music::core {

/// How a group is laid out and configured.
struct GroupConfig {
  /// The group's home sites: MUSIC replica k lives at sites[k].
  std::array<int, 3> sites{0, 1, 2};
  /// Store replicas; replica i lives at sites[i % 3].
  int store_nodes = 3;
  /// Index into `sites` of the replica every client tries first; -1 means
  /// each client tries its local replica first.
  int holder = -1;
  /// Start each MUSIC replica's failure detector as it is built.
  bool failure_detector = false;
  MusicConfig music;
  ds::StoreConfig store;
  ClientConfig client;
};

struct MusicGroup {
  MusicGroup(sim::Simulation& sim, sim::Network& net, GroupConfig cfg);

  /// The index k of the replica at global `site` (site % 3 when `site` is
  /// not one of the group's home sites).
  int local_index(int site) const;

  /// Builds a client at `site` and appends it to `clients`.  It tries the
  /// holder (or its local replica) first, then the rest in index order.
  MusicClient& add_client(int site);

  /// Takes every store and MUSIC replica at `site` down (or back up);
  /// a crash with `amnesia` wipes their volatile state.
  void set_site_down(int site, bool down, bool amnesia);

  GroupConfig cfg;
  std::unique_ptr<ds::StoreCluster> store;
  std::unique_ptr<ls::LockStore> locks;
  std::vector<std::unique_ptr<MusicReplica>> replicas;  // replica k at sites[k]
  std::vector<std::unique_ptr<MusicClient>> clients;

 private:
  std::vector<MusicReplica*> prefs(int site) const;

  sim::Simulation* sim_;
  sim::Network* net_;
};

}  // namespace music::core
