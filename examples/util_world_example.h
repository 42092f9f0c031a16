// Shared deployment boilerplate for the examples: the Fig. 1 topology (3
// sites, one store node and one MUSIC replica per site) plus one client per
// site.
#pragma once

#include <memory>
#include <vector>

#include "core/client.h"
#include "core/group.h"
#include "sim/network.h"
#include "sim/simulation.h"

struct ExampleWorld {
  music::sim::Simulation s;
  music::sim::Network net;
  music::core::MusicGroup group;

  explicit ExampleWorld(uint64_t seed, bool failure_detector = false)
      : s(seed),
        net(s,
            [] {
              music::sim::NetworkConfig c;
              c.profile = music::sim::LatencyProfile::profile_lus();
              return c;
            }()),
        group(s, net, [failure_detector] {
          music::core::GroupConfig gc;
          gc.music.holder_timeout = music::sim::sec(8);
          gc.music.fd_interval = music::sim::sec(2);
          gc.failure_detector = failure_detector;
          return gc;
        }()) {
    for (int site = 0; site < 3; ++site) group.add_client(site);
  }
};
