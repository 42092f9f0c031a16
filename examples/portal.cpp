// The Management Portal Service of §VII-b: active replication with
// failover, built on MUSIC ownership transfer.
//
// Each user's role updates must be processed from the latest state by
// exactly one back-end replica (the user's *owner*).  The owner holds a
// long-lived MUSIC lock on the userId; front-ends route requests to the
// owner (cached, refreshed via a lock-free get).  On owner failure, the
// next back end forcibly releases the old owner's lock, acquires its own,
// and updates the ownership record — the §VII-b own()/write() pseudo-code.
// Amortization: one createLockRef/acquireLock pair serves MANY criticalPuts
// (ownership transitions only on failure).
//
// Build & run:  ./build/examples/portal

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/group.h"
#include "sim/network.h"
#include "sim/simulation.h"

using namespace music;

namespace {

struct PortalWorld {
  sim::Simulation s{11};
  sim::Network net;
  core::MusicGroup group;

  PortalWorld()
      : net(s, [] {
          sim::NetworkConfig c;
          c.profile = sim::LatencyProfile::profile_lus();
          return c;
        }()),
        group(s, net, core::GroupConfig{}) {}

  core::MusicClient& make_client(int site) { return group.add_client(site); }
};

/// One Portal back-end replica.  Processes write(userID, role) requests in
/// a single thread (the §VII-b requirement) using its cached lockRef.
class PortalBackend {
 public:
  PortalBackend(PortalWorld& w, int site, std::string name)
      : w_(w), client_(w.make_client(site)), name_(std::move(name)) {}

  void crash() { alive_ = false; }
  bool alive() const { return alive_; }
  const std::string& name() const { return name_; }

  /// write(userID, role) at Portal back end P (§VII-b pseudo-code).
  sim::Task<Status> write(Key user, Value role) {
    if (!alive_) co_return OpStatus::Timeout;  // dead replicas do not reply
    Key owner_key = user + "-owner";
    auto owner = co_await client_.get(owner_key);
    bool must_own = false;
    LockRef old_ref = kNoLockRef;
    if (!owner.ok()) {
      must_own = true;  // only on initialization: first owner
    } else if (owner_of(owner.value()) != name_) {
      // Only on previous owner failure: transfer ownership.
      must_own = true;
      old_ref = ref_of(owner.value());
    }
    if (must_own) {
      if (old_ref != kNoLockRef) {
        co_await client_.forced_release(user, old_ref);
      }
      auto st = co_await own(user);
      if (!st.ok()) co_return st;
      std::printf("[t=%7.2f s] %s became owner of %s (lockRef %lld)\n",
                  sim::to_sec(w_.s.now()), name_.c_str(), user.c_str(),
                  static_cast<long long>(my_ref_[user]));
    }
    // The amortized fast path: one criticalPut per request, no locking.
    co_return co_await client_.critical_put(user, my_ref_[user], role);
  }

  sim::Task<Result<Value>> read(Key user) {
    if (!alive_) co_return Result<Value>::Err(OpStatus::Timeout);
    co_return co_await client_.critical_get(user, my_ref_[user]);
  }

 private:
  static std::string owner_of(const Value& v) {
    return v.data.substr(0, v.data.find('/'));
  }
  static LockRef ref_of(const Value& v) {
    return std::stoll(v.data.substr(v.data.find('/') + 1));
  }

  /// own(userID) at Portal back end P (§VII-b): called infrequently.
  sim::Task<Status> own(Key user) {
    auto ref = co_await client_.create_lock_ref(user);
    if (!ref.ok()) co_return ref.status();
    auto acq = co_await client_.acquire_lock_blocking(user, ref.value());
    if (!acq.ok()) co_return acq;
    my_ref_[user] = ref.value();
    // put(userID-owner, (P, lockRef)); no locks needed.
    co_return co_await client_.put(
        user + "-owner", Value(name_ + "/" + std::to_string(ref.value())));
  }

  PortalWorld& w_;
  core::MusicClient& client_;
  std::string name_;
  bool alive_ = true;
  std::map<Key, LockRef> my_ref_;
};

/// Portal REST front end (§VII-b): routes each request to the user's owner,
/// retrying at the next-closest back end when the owner fails to respond.
sim::Task<Status> front_end_write(PortalWorld& /*w*/,
                                  std::vector<PortalBackend*> backends,
                                  Key user, Value role) {
  for (PortalBackend* b : backends) {
    if (!b->alive()) continue;  // "owner fails to respond": next closest
    auto st = co_await b->write(user, role);
    if (st.ok()) co_return st;
  }
  co_return OpStatus::Timeout;
}

sim::Task<void> scenario(PortalWorld& w, std::vector<PortalBackend*> backends,
                         int& failures) {
  const Key user = "alice";
  // A stream of role updates; each must hit exactly one backend and apply
  // to the latest state.
  const char* roles[] = {"viewer", "editor", "admin"};
  for (int i = 0; i < 3; ++i) {
    auto st = co_await front_end_write(w, backends, user, Value(roles[i]));
    if (!st.ok()) ++failures;
    std::printf("[t=%7.2f s] front-end applied role '%s' -> %s\n",
                sim::to_sec(w.s.now()), roles[i],
                st.ok() ? "OK" : "FAILED");
  }
  auto before = co_await backends[0]->read(user);
  std::printf("[t=%7.2f s] role before failover: %s\n", sim::to_sec(w.s.now()),
              before.ok() ? before.value().data.c_str() : "?");

  // The owner crashes.  The next request transfers ownership: forced
  // release + own() at the next-closest backend, which resumes from the
  // LATEST role state.
  std::printf("[t=%7.2f s] *** %s crashes ***\n", sim::to_sec(w.s.now()),
              backends[0]->name().c_str());
  backends[0]->crash();

  auto st = co_await front_end_write(w, backends, user, Value("auditor"));
  if (!st.ok()) ++failures;
  std::printf("[t=%7.2f s] front-end applied role 'auditor' after failover -> %s\n",
              sim::to_sec(w.s.now()), st.ok() ? "OK" : "FAILED");

  auto after = co_await backends[1]->read(user);
  std::printf("[t=%7.2f s] role after failover:  %s (latest state preserved)\n",
              sim::to_sec(w.s.now()),
              after.ok() ? after.value().data.c_str() : "?");
  if (!after.ok() || after.value().data != "auditor") ++failures;
}

}  // namespace

int main() {
  PortalWorld w;
  std::printf("Management Portal Service (SVII-b): active replication with "
              "MUSIC ownership failover\n\n");
  PortalBackend b0(w, 0, "backend-sd");   // San Diego
  PortalBackend b1(w, 1, "backend-kc");   // Kansas City
  PortalBackend b2(w, 2, "backend-nc");   // North Carolina
  std::vector<PortalBackend*> backends{&b0, &b1, &b2};

  int failures = 0;
  sim::spawn(w.s, scenario(w, backends, failures));
  w.s.run_until(sim::sec(120));
  std::printf("\n%s\n", failures == 0 ? "PORTAL SCENARIO OK" : "FAILURES SEEN");
  return failures == 0 ? 0 : 1;
}
