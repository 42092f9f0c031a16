#include "workload/ycsb.h"

#include <utility>

namespace music::wl {

YcsbWorkload::YcsbWorkload(std::vector<core::MusicClient*> clients,
                           YcsbMix mix, uint64_t record_count,
                           size_t value_size, uint64_t seed)
    : clients_(std::move(clients)),
      mix_(std::move(mix)),
      zipf_(record_count),
      value_size_(value_size),
      rng_(seed) {}

sim::Task<bool> YcsbWorkload::run_once(int cid) {
  core::MusicClient& c = *clients_[static_cast<size_t>(cid) % clients_.size()];
  Key key = "user" + std::to_string(zipf_.next(rng_));
  bool is_read = rng_.chance(mix_.read_fraction);
  ++operations_;

  auto ref = co_await c.create_lock_ref(key);
  if (!ref.ok()) co_return false;

  // Poll manually (rather than acquire_lock_blocking) so the first poll's
  // outcome is observable: a NotYetHolder on the first poll is a lock
  // collision in the paper's sense.
  bool first_poll = true;
  Status acq = Status::Err(OpStatus::Timeout);
  for (int attempt = 0; attempt < core::kMaxPollAttempts; ++attempt) {
    acq = co_await c.acquire_lock(key, ref.value());
    if (first_poll && acq.status() == OpStatus::NotYetHolder) ++collisions_;
    first_poll = false;
    if (acq.ok() || acq.status() == OpStatus::NotLockHolder) break;
    co_await sim::sleep_for(c.simulation(), core::kPollBackoff);
  }
  if (!acq.ok()) {
    co_await c.remove_lock_ref(key, ref.value());
    co_return false;
  }

  bool ok;
  if (is_read) {
    auto r = co_await c.critical_get(key, ref.value());
    ok = r.ok() || r.status() == OpStatus::NotFound;
  } else {
    auto st = co_await c.critical_put(
        key, ref.value(), Value(std::string("y"), value_size_));
    ok = st.ok();
  }
  co_await c.release_lock(key, ref.value());
  co_return ok;
}

}  // namespace music::wl
