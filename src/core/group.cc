#include "core/group.h"

#include <utility>

namespace music::core {

MusicGroup::MusicGroup(sim::Simulation& sim, sim::Network& net,
                       GroupConfig config)
    : cfg(std::move(config)), sim_(&sim), net_(&net) {
  std::vector<int> store_sites;
  store_sites.reserve(static_cast<size_t>(cfg.store_nodes));
  for (int i = 0; i < cfg.store_nodes; ++i) {
    store_sites.push_back(cfg.sites[static_cast<size_t>(i % 3)]);
  }
  store = std::make_unique<ds::StoreCluster>(sim, net, cfg.store, store_sites);
  locks = std::make_unique<ls::LockStore>(*store);
  for (int site : cfg.sites) {
    replicas.push_back(
        std::make_unique<MusicReplica>(*store, *locks, cfg.music, site));
    if (cfg.failure_detector) replicas.back()->start_failure_detector();
  }
}

int MusicGroup::local_index(int site) const {
  for (size_t k = 0; k < cfg.sites.size(); ++k) {
    if (cfg.sites[k] == site) return static_cast<int>(k);
  }
  return site % 3;
}

std::vector<MusicReplica*> MusicGroup::prefs(int site) const {
  int first = cfg.holder >= 0 ? cfg.holder : local_index(site);
  std::vector<MusicReplica*> v{replicas.at(static_cast<size_t>(first)).get()};
  for (int k = 0; k < static_cast<int>(replicas.size()); ++k) {
    if (k != first) v.push_back(replicas[static_cast<size_t>(k)].get());
  }
  return v;
}

MusicClient& MusicGroup::add_client(int site) {
  clients.push_back(std::make_unique<MusicClient>(*sim_, *net_, prefs(site),
                                                  cfg.client, site));
  return *clients.back();
}

void MusicGroup::set_site_down(int site, bool down, bool amnesia) {
  for (int i = 0; i < store->num_replicas(); ++i) {
    ds::StoreReplica& rep = store->replica(i);
    if (rep.site() != site) continue;
    if (down && amnesia) rep.wipe_state();
    rep.set_down(down);
  }
  for (auto& rep : replicas) {
    if (rep->site() == site) rep->set_down(down, amnesia);
  }
}

}  // namespace music::core
