// The MUSIC client library: what a geo-distributed service links against.
//
// A client lives at a site and talks to MUSIC replicas over the network
// (nearest first), implementing the §III failure semantics: operations that
// fail with Nack/Timeout are retried — usually at a different MUSIC replica
// — until they succeed, the retry budget is exhausted, or the client is
// told it is no longer the lockholder.  acquire_lock_blocking implements
// Listing 1's polling loop with back-off.
//
// Client-to-replica calls are shipped as wire::Request/Response data (not
// callables) through the net::Transport seam: the sim backend moves the
// structs in-memory, the TCP backend frames them through wire/codec.h, and
// this file is identical either way.  Data structs with user-declared
// constructors are the coroutine-parameter shape GCC 12 compiles correctly
// (see the note on ds::Cell).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/client_api.h"
#include "core/music.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "sim/future.h"
#include "sim/rng.h"
#include "sim/span.h"

namespace music::core {

/// Listing 1's polling discipline, shared by every acquire-poll loop
/// (MusicClient, cluster::Client, the YCSB workload): at most this many
/// acquireLock polls per loop, this long apart (the paper's "standard
/// back-off mechanisms").
inline constexpr int kMaxPollAttempts = 4096;
inline constexpr sim::Duration kPollBackoff = sim::ms(2);

/// Client-side tunables.
struct ClientConfig {
  /// Give up on a single request to one replica after this long.
  sim::Duration request_timeout = sim::sec(6);
  /// Total attempts per operation across replicas before reporting
  /// RetryExhausted.
  int max_attempts = 24;
  /// First retry pause after a Nacked/timed-out operation.  Subsequent
  /// pauses grow exponentially with decorrelated jitter: each is drawn
  /// uniformly from [base, min(cap, 3 x previous)].
  sim::Duration retry_backoff_base = sim::ms(5);
  /// Ceiling on any single retry pause.
  sim::Duration retry_backoff_cap = sim::ms(320);
  /// Total budget for one operation including retries; once spent, the op
  /// returns RetryExhausted even with attempts left.  0 disables it.
  sim::Duration op_deadline = 0;
};

/// Client-side counters (retry discipline + replica health), for metrics
/// export and tests.
struct ClientStats {
  uint64_t attempts = 0;           // requests actually sent to a replica
  uint64_t retries = 0;            // transient failures retried
  uint64_t retry_exhausted = 0;    // ops that ran out of attempts
  uint64_t deadline_exceeded = 0;  // ops that ran out of op_deadline
  uint64_t demotions = 0;          // replica quarantine transitions
};

/// The client-seam messages: defined in wire/messages.h (the transport
/// vocabulary); aliased here so client-side code keeps its historical names.
using Request = wire::Request;
using Response = wire::Response;

/// Executes a Request against a replica (the replica-side dispatcher used
/// by MusicClient; also handy for tests driving a replica directly).
sim::Task<Response> execute(MusicReplica& replica, Request req);

/// One decorrelated-jitter backoff step: uniform in [base, min(cap, 3 x
/// prev)], so colliding clients spread out instead of retrying in lockstep.
/// Never returns less than retry_backoff_base nor more than
/// retry_backoff_cap.  A free function so the retry envelope is testable in
/// isolation from the client's network machinery.
sim::Duration decorrelated_backoff(const ClientConfig& cfg, sim::Rng& rng,
                                   sim::Duration prev);

/// The serving glue for a MUSIC replica on ANY transport: a ServeRequestFn
/// that dispatches each arriving Request through execute() as a fresh
/// coroutine (musicd hands this to TcpTransport::listen_for).
net::ServeRequestFn serve_request_fn(MusicReplica& rep);

/// Binds `rep` as a client-seam endpoint of `transport`: requests landing on
/// rep.node() are dispatched through execute().  The MusicClient sim ctor
/// does this for its replicas; hosts that assemble a shared SimTransport by
/// hand (multiple clients, musicd's in-process half) use it directly.
void bind_replica(net::SimTransport& transport, MusicReplica& rep);

/// A MUSIC client.  Issues non-blocking requests to a MUSIC replica of its
/// choice (Fig. 1); replicas are tried in the given preference order.
/// Implements the shared api::ClientApi surface (api/client_api.h), so
/// gateways and recipes bind it interchangeably with cluster::Client.
class MusicClient : public api::ClientApi {
 public:
  /// Sim-world convenience: `replicas` in preference (proximity) order, the
  /// first is "local".  Builds a private SimTransport with every replica
  /// bound as a serving endpoint — bit-identical to the pre-seam wiring.
  MusicClient(sim::Simulation& sim, sim::Network& net,
              std::vector<MusicReplica*> replicas, ClientConfig cfg, int site);

  /// Transport-seam form: `peers` are the serving replicas' transport
  /// addresses in preference order and `node` is this client's own address
  /// (the musicd gateway injects a TcpTransport here).
  MusicClient(sim::Simulation& sim, net::Transport& transport,
              std::vector<net::PeerId> peers, ClientConfig cfg, int site,
              net::PeerId node);

  MusicClient(const MusicClient&) = delete;
  MusicClient& operator=(const MusicClient&) = delete;

  sim::NodeId node() const { return node_; }
  int site() const override { return site_; }
  sim::Simulation& simulation() override { return sim_; }
  const ClientConfig& config() const { return cfg_; }
  const ClientStats& stats() const { return stats_; }

  // ---- Table I operations with the §III retry discipline. ------------------

  sim::Task<Result<LockRef>> create_lock_ref(Key key) override;

  /// One acquireLock poll (Ok / NotYetHolder / NotLockHolder / errors).
  sim::Task<Status> acquire_lock(Key key, LockRef ref) override;

  /// Polls acquireLock with back-off until granted (Ok), preempted
  /// (NotLockHolder) or the poll budget is exhausted (Timeout).
  sim::Task<Status> acquire_lock_blocking(Key key, LockRef ref) override;

  sim::Task<Status> critical_put(Key key, LockRef ref, Value value) override;
  sim::Task<Result<Value>> critical_get(Key key, LockRef ref) override;
  sim::Task<Status> critical_delete(Key key, LockRef ref) override;

  /// Ships `ops` as one Batch request under `ref`, with the usual retry
  /// discipline (the whole batch is re-sent on Nack/Timeout; re-stamping
  /// the same values under the same lockRef is idempotent).  Always returns
  /// one result per op — on a wire-level failure every entry carries the
  /// failing status.  Most callers use Session (see core/session.h) rather
  /// than building op vectors by hand.
  sim::Task<std::vector<BatchOpResult>> execute_batch(
      Key key, LockRef ref, std::vector<BatchOp> ops) override;

  sim::Task<Status> release_lock(Key key, LockRef ref) override;
  /// §VII: evicts a lockRef that was never granted.
  sim::Task<Status> remove_lock_ref(Key key, LockRef ref) override;
  /// Preempts another client's lock (Portal ownership transfer, §VII-b).
  sim::Task<Status> forced_release(Key key, LockRef ref) override;

  // ---- Non-ECF conveniences. ------------------------------------------------

  sim::Task<Status> put(Key key, Value value) override;
  sim::Task<Result<Value>> get(Key key) override;
  sim::Task<Result<std::vector<Key>>> get_all_keys(Key prefix) override;

  // ---- Composite helper. -----------------------------------------------------

  /// Listing 1 end-to-end: createLockRef, poll acquireLock, run `body`
  /// (critical ops under the granted ref), releaseLock.  `body` must be a
  /// named lvalue callable LockRef -> Task<Status> (the F& signature rejects
  /// temporaries, which GCC 12 miscompiles at coroutine boundaries).
  /// Implemented over CriticalSection (core/session.h), where it is defined.
  template <typename F>
  sim::Task<Status> with_lock(Key key, F& body);

 private:
  /// Per-replica health book-keeping for the adaptive preference order.
  struct ReplicaHealth {
    int consecutive_failures = 0;
    sim::Time quarantined_until = 0;
  };

  /// Sends `req` to `peer` through the transport and awaits the Response,
  /// with a timeout.
  sim::Task<Response> invoke(net::PeerId peer, Request req);

  /// Runs `req` against replicas in preference order with the retry rules:
  /// Nack/Timeout -> jittered backoff, next replica; anything else is
  /// final.  Exhausting max_attempts or op_deadline -> RetryExhausted.
  sim::Task<Response> with_retries(Request req);

  /// The peers_ index to use for attempt number `attempt`: rotates the
  /// preference order over replicas that are up and not quarantined,
  /// falling back to any up replica when everything healthy is demoted.
  /// -1 when every replica is down.
  int pick_replica(int attempt);

  /// Feeds one attempt's outcome into the health table.
  void note_result(size_t idx, bool responsive);

  /// Decorrelated-jitter growth: uniform in [base, min(cap, 3 x prev)].
  sim::Duration next_backoff(sim::Duration prev);

  sim::Simulation& sim_;
  ClientConfig cfg_;
  int site_;
  sim::NodeId node_;
  /// Seeded from the node id, NOT forked from the simulation rng: a fork
  /// draws from (and so perturbs) the parent stream, which would shift
  /// every seeded test that predates client-side jitter.
  sim::Rng rng_;
  /// Serving replicas, in preference order, as transport addresses.
  std::vector<net::PeerId> peers_;
  /// Owned sim backend (null when a transport was injected).
  std::unique_ptr<net::SimTransport> own_transport_;
  net::Transport* transport_;
  std::vector<ReplicaHealth> health_;
  ClientStats stats_;
};

}  // namespace music::core

// The session/handle layer (core/session.h) completes the client API:
// CriticalSection, Session, and the with_lock definition.  Call sites that
// use any of those include it directly — it is kept out of this header so
// the many translation units that only speak the wire-level client don't
// pay for (or get perturbed by) the inline session layer.
