#include "datastore/store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/span.h"

namespace music::ds {

namespace {

/// How long a coordinator waits for each phase's quorum before failing the
/// operation back to the client (who then retries, §III).
constexpr sim::Duration kOpTimeout = sim::ms(1500);
/// Period of the hinted-handoff replay loop.
constexpr sim::Duration kHintReplayInterval = sim::ms(250);
/// LWT contention handling: ballot attempts per LWT and the first backoff.
constexpr int kLwtMaxAttempts = 32;
constexpr sim::Duration kLwtRetryBackoff = sim::ms(4);

/// FNV-1a hash for ring placement (stable across platforms, unlike
/// std::hash<std::string>).
uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

int need_for(Consistency level, int rf) {
  switch (level) {
    case Consistency::One:
      return 1;
    case Consistency::Quorum:
      return rf / 2 + 1;
    case Consistency::All:
      return rf;
  }
  return rf;
}

// Cell <-> WireCell: same shape, different layer (wire must not depend on
// the datastore).
wire::WireCell to_wire(const Cell& c) { return wire::WireCell(c.value, c.ts); }
Cell from_wire(const wire::WireCell& c) { return Cell(c.value, c.ts); }

}  // namespace

// ---- StoreReplica ----------------------------------------------------------

StoreReplica::StoreReplica(StoreCluster& cluster, sim::NodeId node, int site)
    : cluster_(cluster),
      node_(node),
      site_(site),
      service_(cluster.simulation(), cluster.config().service) {
  if (size_t n = cfg().expected_keys; n != 0) {
    table_.reserve(n);
    acceptors_.reserve(n);
  }
}

sim::Simulation& StoreReplica::sim() { return cluster_.simulation(); }
const StoreConfig& StoreReplica::cfg() const { return cluster_.config(); }

bool StoreReplica::apply_write(const Key& key, const Cell& cell) {
  // Heterogeneous find: hashes the string once, no HashedKey construction
  // on the (common) already-present path.
  auto it = table_.find(std::string_view(key));
  if (it == table_.end()) {
    table_.emplace(HashedKey(key), cell);
    return true;
  }
  if (cell.ts > it->second.ts) {
    it->second = cell;
    return true;
  }
  return false;
}

std::optional<Cell> StoreReplica::local_read(const Key& key) const {
  auto it = table_.find(std::string_view(key));
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

paxos::Acceptor<Cell>& StoreReplica::acceptor(const Key& key) {
  auto it = acceptors_.find(std::string_view(key));
  if (it == acceptors_.end()) {
    it = acceptors_.emplace(HashedKey(key), paxos::Acceptor<Cell>{}).first;
  }
  return it->second;
}

paxos::PrepareReply<Cell> StoreReplica::handle_prepare(const Key& key,
                                                       paxos::Ballot b) {
  return acceptor(key).on_prepare(b);
}

paxos::AcceptReply StoreReplica::handle_accept(const Key& key,
                                               paxos::Proposal<Cell> proposal) {
  return acceptor(key).on_accept(std::move(proposal));
}

void StoreReplica::handle_commit(const Key& key, paxos::Ballot b,
                                 const Cell& cell) {
  apply_write(key, cell);
  acceptor(key).on_commit(b);
}

wire::StoreReply StoreReplica::serve_store(const wire::StoreRequest& msg) {
  wire::StoreReply r;
  switch (msg.op) {
    case wire::StoreOp::Write:
      apply_write(msg.key, from_wire(msg.cell));
      r.ok = true;
      break;
    case wire::StoreOp::Read: {
      auto c = local_read(msg.key);
      r.ok = true;
      r.from = static_cast<int32_t>(node_);
      if (c) {
        r.has_cell = true;
        r.cell = to_wire(*c);
      }
      break;
    }
    case wire::StoreOp::Prepare: {
      paxos::PrepareReply<Cell> pr = handle_prepare(msg.key, msg.ballot);
      r.ok = pr.promised;
      r.ballot = pr.promised_ballot;
      if (pr.in_progress) {
        r.has_cell = true;
        r.cell = to_wire(pr.in_progress->value);
        r.cell_ballot = pr.in_progress->ballot;
      }
      break;
    }
    case wire::StoreOp::Accept: {
      paxos::AcceptReply ar = handle_accept(
          msg.key, paxos::Proposal<Cell>{msg.ballot, from_wire(msg.cell)});
      r.ok = ar.accepted;
      r.ballot = ar.promised_ballot;
      break;
    }
    case wire::StoreOp::Commit:
      handle_commit(msg.key, msg.ballot, from_wire(msg.cell));
      r.ok = true;
      break;
  }
  return r;
}

sim::Future<wire::StoreReply> StoreReplica::call_store(
    sim::NodeId to, wire::StoreRequest msg, size_t bytes, size_t reply_bytes,
    sim::MsgKind kind, sim::MsgKind reply_kind) {
  return cluster_.transport().store_call(node_, to, std::move(msg), bytes,
                                         reply_bytes, sim::kFramingBytes,
                                         kind, reply_kind);
}

void StoreReplica::set_down(bool down) {
  service_.set_down(down);
  cluster_.network().set_node_down(node_, down);
}

bool StoreReplica::down() const { return service_.down(); }

void StoreReplica::advance_ballot_past(ScalarTs ts) {
  if (ts < 0) return;
  ballot_round_ = std::max(ballot_round_, ts / paxos::kMaxProposers + 1);
}

void StoreReplica::wipe_state() {
  table_.clear();
  acceptors_.clear();
  hints_.clear();
  ballot_round_ = 0;
}

void StoreReplica::reset_volatile() {
  acceptors_.clear();
  hints_.clear();
  ballot_round_ = 0;
}

sim::Task<Status> StoreReplica::put(Key key, Cell cell, Consistency level) {
  sim::OpSpan span(sim(), "store.put", site_, node_, key);
  auto targets = cluster_.placement(key);
  int need = need_for(level, kReplicationFactor);
  size_t bytes = cell.value.size() + key.size();
  // One write round: a WAN round trip unless a single (local) ack suffices.
  if (level != Consistency::One) sim::trace_rtts(sim(), 1);
  std::vector<sim::Future<wire::StoreReply>> acks;
  acks.reserve(targets.size());
  for (sim::NodeId t : targets) {
    if (cfg().hinted_handoff && !cluster_.transport().reachable(node_, t)) {
      leave_hint(t, key, cell);
      continue;
    }
    acks.push_back(call_store(t, wire::StoreRequest::write(key, to_wire(cell)),
                              bytes,
                              /*reply_bytes=*/16, sim::MsgKind::StoreWrite));
  }
  auto got = co_await sim::await_count<wire::StoreReply>(
      sim(), std::move(acks), static_cast<size_t>(need), kOpTimeout);
  if (got.size() < static_cast<size_t>(need)) co_return OpStatus::Timeout;
  co_return Status::Ok();
}

sim::Task<Result<Cell>> StoreReplica::read_internal(
    const Key& key, int need, const std::vector<sim::NodeId>& targets) {
  // One read round = one WAN round trip (the §X-B4 unit of cost).
  sim::trace_rtts(sim(), 1);
  co_return co_await resolve_read(key, need, issue_reads(key, targets));
}

auto StoreReplica::issue_reads(const Key& key,
                               const std::vector<sim::NodeId>& targets)
    -> std::vector<sim::Future<wire::StoreReply>> {
  std::vector<sim::Future<wire::StoreReply>> reps;
  reps.reserve(targets.size());
  for (sim::NodeId t : targets) {
    reps.push_back(call_store(t, wire::StoreRequest::read(key), key.size(),
                              /*reply_bytes=*/64, sim::MsgKind::StoreRead));
  }
  return reps;
}

sim::Task<Result<Cell>> StoreReplica::resolve_read(
    Key key, int need, std::vector<sim::Future<wire::StoreReply>> reps) {
  auto got = co_await sim::await_count<wire::StoreReply>(
      sim(), reps, static_cast<size_t>(need), kOpTimeout);
  if (got.size() < static_cast<size_t>(need)) {
    co_return Result<Cell>::Err(OpStatus::Timeout);
  }
  // Winner: highest timestamp among respondents.
  std::optional<Cell> best;
  for (const auto& rep : got) {
    if (rep.has_cell && (!best || rep.cell.ts > best->ts)) {
      best = from_wire(rep.cell);
    }
  }
  if (best && cfg().read_repair) {
    // Push the winner to respondents that returned something older (fire
    // and forget; this is how eventual replicas converge besides the
    // write-to-all fan-out).
    for (const auto& rep : got) {
      if (!rep.has_cell || rep.cell.ts < best->ts) {
        call_store(rep.from, wire::StoreRequest::write(key, to_wire(*best)),
                   best->value.size() + key.size(), 16,
                   sim::MsgKind::StoreRepair);
      }
    }
  }
  if (!best) co_return Result<Cell>::Err(OpStatus::NotFound);
  co_return Result<Cell>::Ok(*best);
}

sim::Task<Result<Cell>> StoreReplica::get(Key key, Consistency level) {
  sim::OpSpan span(sim(), "store.get", site_, node_, key);
  auto targets = cluster_.placement(key);
  int need = need_for(level, kReplicationFactor);
  if (level == Consistency::One) {
    // Prefer the local replica if this coordinator stores the key (the
    // common case for MUSIC's lsPeek and eventual get).
    for (sim::NodeId t : targets) {
      if (t == node_) {
        auto c = local_read(key);
        // Still pay one service hop for fairness with remote handling.
        sim::Promise<Result<Cell>> p(sim());
        service_.submit(key.size() + 64, [p, c] {
          p.set_value(c ? Result<Cell>::Ok(*c)
                        : Result<Cell>::Err(OpStatus::NotFound));
        });
        co_return co_await p.future();
      }
    }
  }
  co_return co_await read_internal(key, need, targets);
}

sim::Task<std::vector<Status>> StoreReplica::put_cells(
    std::vector<WriteCell> writes, Consistency level) {
  sim::OpSpan span(sim(), "store.put_cells", site_, node_,
                   writes.empty() ? std::string_view{}
                                  : std::string_view{writes.front().key});
  int need = need_for(level, kReplicationFactor);
  // One shared write round: every key's fan-out is issued before any quorum
  // wait, so the replies overlap and N independent keys cost one WAN round
  // trip, not N.
  if (level != Consistency::One && !writes.empty()) sim::trace_rtts(sim(), 1);
  std::vector<std::vector<sim::Future<wire::StoreReply>>> acks(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    const Key& key = writes[i].key;
    const Cell& cell = writes[i].cell;
    size_t bytes = cell.value.size() + key.size();
    for (sim::NodeId t : cluster_.placement(key)) {
      if (cfg().hinted_handoff && !cluster_.transport().reachable(node_, t)) {
        leave_hint(t, key, cell);
        continue;
      }
      acks[i].push_back(
          call_store(t, wire::StoreRequest::write(key, to_wire(cell)), bytes,
                     /*reply_bytes=*/16, sim::MsgKind::StoreWrite));
    }
  }
  std::vector<Status> out;
  out.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    auto got = co_await sim::await_count<wire::StoreReply>(
        sim(), std::move(acks[i]), static_cast<size_t>(need),
        kOpTimeout);
    out.push_back(got.size() < static_cast<size_t>(need)
                      ? Status::Err(OpStatus::Timeout)
                      : Status::Ok());
  }
  co_return out;
}

sim::Task<std::vector<Result<Cell>>> StoreReplica::get_cells(
    std::vector<Key> keys, Consistency level) {
  sim::OpSpan span(sim(), "store.get_cells", site_, node_,
                   keys.empty() ? std::string_view{}
                                : std::string_view{keys.front()});
  int need = need_for(level, kReplicationFactor);
  // One shared read round (see put_cells): issue every key's fan-out before
  // resolving any quorum.
  if (!keys.empty()) sim::trace_rtts(sim(), 1);
  std::vector<std::vector<sim::Future<wire::StoreReply>>> reps;
  reps.reserve(keys.size());
  for (const Key& key : keys) {
    reps.push_back(issue_reads(key, cluster_.placement(key)));
  }
  std::vector<Result<Cell>> out;
  out.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out.push_back(co_await resolve_read(keys[i], need, std::move(reps[i])));
  }
  co_return out;
}

sim::Task<Result<std::vector<Key>>> StoreReplica::scan_local_keys(Key prefix) {
  sim::Promise<std::vector<Key>> p(sim());
  service_.submit(prefix.size() + 256, [this, prefix, p] {
    std::vector<Key> out;
    for (const auto& [k, cell] : table_) {
      (void)cell;
      if (k.key().rfind(prefix, 0) == 0) out.push_back(k.key());
    }
    std::sort(out.begin(), out.end());
    p.set_value(std::move(out));
  });
  if (down()) co_return Result<std::vector<Key>>::Err(OpStatus::Timeout);
  co_return Result<std::vector<Key>>::Ok(co_await p.future());
}

std::vector<Key> StoreReplica::local_keys_with_prefix(
    std::string_view prefix) const {
  std::vector<Key> out;
  for (const auto& [k, cell] : table_) {
    (void)cell;
    if (k.key().rfind(prefix, 0) == 0) out.push_back(k.key());
  }
  return out;
}

sim::Task<Result<LwtOutcome>> StoreReplica::lwt(Key key,
                                                const LwtUpdate& update) {
  sim::OpSpan span(sim(), "store.lwt", site_, node_, key);
  auto targets = cluster_.placement(key);
  const int q = cluster_.quorum();
  const size_t small = 48;

  for (int attempt = 0; attempt < kLwtMaxAttempts; ++attempt) {
    if (attempt > 0) {
      // Contention backoff: exponential with jitter, capped (as Cassandra's
      // Paxos retry does) — constant backoff livelocks under many
      // contending proposers.
      int shift = std::min(attempt - 1, 5);
      auto base = kLwtRetryBackoff << shift;
      co_await sim::sleep_for(
          sim(), base + sim().rng().uniform_int(0, base));
    }
    paxos::Ballot b = paxos::make_ballot(++ballot_round_, node_);

    // ---- Round 1: prepare / promise.
    sim::trace_rtts(sim(), 1);
    std::vector<sim::Future<wire::StoreReply>> prepares;
    for (sim::NodeId t : targets) {
      prepares.push_back(call_store(t, wire::StoreRequest::prepare(key, b),
                                    key.size() + small, small,
                                    sim::MsgKind::PaxosPrepare));
    }
    auto promises = co_await sim::await_count<wire::StoreReply>(
        sim(), std::move(prepares), static_cast<size_t>(q), kOpTimeout);
    if (promises.size() < static_cast<size_t>(q)) {
      co_return Result<LwtOutcome>::Err(OpStatus::Timeout);
    }
    bool refused = false;
    std::optional<paxos::Proposal<Cell>> in_progress;
    for (const auto& pr : promises) {
      if (!pr.ok) {
        refused = true;
        ballot_round_ = std::max(ballot_round_, paxos::ballot_round(pr.ballot));
      }
      if (pr.has_cell &&
          (!in_progress || pr.cell_ballot > in_progress->ballot)) {
        in_progress =
            paxos::Proposal<Cell>{pr.cell_ballot, from_wire(pr.cell)};
      }
    }
    if (refused) continue;  // lost to a higher ballot; retry

    if (in_progress) {
      // Finish the earlier coordinator's proposal under our ballot, then
      // retry our own operation from scratch.
      paxos::Proposal<Cell> replay{b, in_progress->value};
      sim::trace_rtts(sim(), 1);
      std::vector<sim::Future<wire::StoreReply>> accs;
      for (sim::NodeId t : targets) {
        accs.push_back(call_store(
            t, wire::StoreRequest::accept(key, to_wire(replay.value), b),
            key.size() + replay.value.value.size(), small,
            sim::MsgKind::PaxosAccept));
      }
      auto ack = co_await sim::await_count<wire::StoreReply>(
          sim(), std::move(accs), static_cast<size_t>(q), kOpTimeout);
      bool all_ok = ack.size() >= static_cast<size_t>(q);
      for (const auto& a : ack) all_ok = all_ok && a.ok;
      if (all_ok) {
        Cell cell = replay.value;
        sim::trace_rtts(sim(), 1);
        std::vector<sim::Future<wire::StoreReply>> commits;
        for (sim::NodeId t : targets) {
          commits.push_back(call_store(
              t, wire::StoreRequest::commit(key, to_wire(cell), b),
              key.size() + cell.value.size(), 16, sim::MsgKind::PaxosCommit));
        }
        co_await sim::await_count<wire::StoreReply>(sim(), std::move(commits),
                                                    static_cast<size_t>(q),
                                                    kOpTimeout);
      }
      continue;  // now retry our own update
    }

    // ---- Round 2: read the committed value at quorum.
    auto read = co_await read_internal(key, q, targets);
    if (!read.ok() && read.status() == OpStatus::Timeout) {
      co_return Result<LwtOutcome>::Err(OpStatus::Timeout);
    }
    std::optional<Cell> current;
    if (read.ok()) current = read.value();

    LwtDecision d = update(current);
    if (!d.apply) {
      co_return Result<LwtOutcome>::Ok(LwtOutcome{false, current});
    }

    // When no explicit timestamp is supplied the commit's LWW timestamp is
    // our ballot, and ballot_round_ is volatile: a coordinator restarted
    // from a table snapshot mints ballots below the ballot-stamped rows it
    // reloaded (a freshly restarted quorum has no acceptor promises left
    // to refuse them either — promises are volatile too).  Committing with
    // b <= current->ts would clear every Paxos phase yet lose LWW at apply
    // time on all replicas: an acked update that never becomes visible.
    // Outrun the row and retry.  With acceptor state intact this never
    // fires — accepts raise promised ballots at every reachable node, so
    // prepare refusal already keeps lagging coordinators out.
    if (current && !d.ts && static_cast<ScalarTs>(b) <= current->ts) {
      advance_ballot_past(current->ts);
      continue;
    }

    Cell cell{d.new_value, d.ts.value_or(static_cast<ScalarTs>(b))};

    // ---- Round 3: propose / accept.
    sim::trace_rtts(sim(), 1);
    std::vector<sim::Future<wire::StoreReply>> accs;
    for (sim::NodeId t : targets) {
      accs.push_back(
          call_store(t, wire::StoreRequest::accept(key, to_wire(cell), b),
                     key.size() + cell.value.size(), small,
                     sim::MsgKind::PaxosAccept));
    }
    auto acks = co_await sim::await_count<wire::StoreReply>(
        sim(), std::move(accs), static_cast<size_t>(q), kOpTimeout);
    if (acks.size() < static_cast<size_t>(q)) {
      co_return Result<LwtOutcome>::Err(OpStatus::Timeout);
    }
    bool accepted = true;
    for (const auto& a : acks) {
      if (!a.ok) {
        accepted = false;
        ballot_round_ = std::max(ballot_round_, paxos::ballot_round(a.ballot));
      }
    }
    if (!accepted) continue;  // raced with a competitor; retry

    // ---- Round 4: commit.
    sim::trace_rtts(sim(), 1);
    std::vector<sim::Future<wire::StoreReply>> commits;
    for (sim::NodeId t : targets) {
      commits.push_back(
          call_store(t, wire::StoreRequest::commit(key, to_wire(cell), b),
                     key.size() + cell.value.size(), 16,
                     sim::MsgKind::PaxosCommit));
    }
    auto done = co_await sim::await_count<wire::StoreReply>(
        sim(), std::move(commits), static_cast<size_t>(q), kOpTimeout);
    if (done.size() < static_cast<size_t>(q)) {
      // Accepted but commit acknowledgment failed: a later LWT will replay
      // it; report Timeout so the caller retries (idempotent updates).
      co_return Result<LwtOutcome>::Err(OpStatus::Timeout);
    }
    co_return Result<LwtOutcome>::Ok(LwtOutcome{true, current});
  }
  co_return Result<LwtOutcome>::Err(OpStatus::Conflict);
}

void StoreReplica::leave_hint(sim::NodeId target, const Key& key,
                              const Cell& cell) {
  hints_.push_back(Hint{target, key, cell});
  if (hint_loop_running_) return;
  hint_loop_running_ = true;
  sim().schedule(kHintReplayInterval, [this] { replay_hints(); });
}

void StoreReplica::replay_hints() {
  // Deliver every hint whose target is reachable again; keep the rest.
  size_t n = hints_.size();
  for (size_t i = 0; i < n && !down(); ++i) {
    Hint h = std::move(hints_.front());
    hints_.pop_front();
    if (!cluster_.transport().reachable(node_, h.target)) {
      hints_.push_back(std::move(h));  // still unreachable; keep the hint
      continue;
    }
    call_store(h.target, wire::StoreRequest::write(h.key, to_wire(h.cell)),
               h.key.size() + h.cell.value.size(), 16, sim::MsgKind::Hint);
  }
  if (hints_.empty() || down()) {
    hint_loop_running_ = false;
    return;
  }
  sim().schedule(kHintReplayInterval, [this] { replay_hints(); });
}

// ---- StoreCluster ----------------------------------------------------------

StoreCluster::StoreCluster(sim::Simulation& sim, sim::Network& net,
                           StoreConfig cfg, const std::vector<int>& node_sites,
                           net::Transport* transport)
    : sim_(sim), net_(net), cfg_(std::move(cfg)) {
  assert(static_cast<int>(node_sites.size()) >= kReplicationFactor);
  for (int site : node_sites) {
    sim::NodeId id = net_.add_node(site);
    replicas_.push_back(std::make_unique<StoreReplica>(*this, id, site));
    by_node_[id] = replicas_.back().get();
  }
  if (transport != nullptr) {
    // Injected backend (musicd over TCP): the host binds/registers replicas
    // with its transport itself.
    transport_ = transport;
  } else {
    // Default: a private SimTransport over this cluster's network, every
    // replica bound as a store endpoint — bit-identical to the pre-seam
    // direct wiring.
    own_transport_ = std::make_unique<net::SimTransport>(sim_, net_);
    for (auto& r : replicas_) {
      StoreReplica* rep = r.get();
      own_transport_->bind(
          rep->node(),
          net::SimEndpoint{&rep->service(), nullptr,
                           [rep](const wire::StoreRequest& m) {
                             return rep->serve_store(m);
                           }});
    }
    transport_ = own_transport_.get();
  }
}

StoreReplica& StoreCluster::replica_at_site(int site) {
  for (auto& r : replicas_) {
    if (r->site() == site && !r->down()) return *r;
  }
  return *replicas_.front();
}

StoreReplica* StoreCluster::coordinator_at(int site, size_t& rr) {
  StoreReplica* down_here = nullptr;
  size_t n = replicas_.size();
  for (size_t attempt = 0; attempt < n; ++attempt) {
    StoreReplica* r = replicas_[rr++ % n].get();
    if (r->site() != site) continue;
    if (!r->down()) return r;
    down_here = r;
  }
  return down_here;
}

void StoreCluster::start_anti_entropy() {
  for (int i = 0; i < num_replicas(); ++i) {
    // Stagger the rounds so replicas do not synchronize their repair work.
    sim_.schedule(cfg_.anti_entropy_interval +
                      sim_.rng().uniform_int(0, cfg_.anti_entropy_interval),
                  [this, i] { anti_entropy_round(i); });
  }
}

void StoreCluster::anti_entropy_round(int idx) {
  StoreReplica& a = replica(idx);
  StoreReplica& b = replica((idx + 1) % num_replicas());
  if (!a.down() && !b.down() && net_.deliverable(a.node(), b.node())) {
    // Model: A ships its digest (one message, size ~ table entries); B
    // replies with the cells A is missing and applies what it lacked from
    // the digest exchange (a second pass pulls A's newer cells).  For
    // simplicity the cell transfer itself is modeled as one bulk message
    // each way whose size is the moved payload.
    size_t digest_bytes = a.table_size() * 24 + 64;
    sim::NodeId an = a.node();
    sim::NodeId bn = b.node();
    StoreReplica* ap = &a;
    StoreReplica* bp = &b;
    net_.send(an, bn, digest_bytes, [this, ap, bp, an, bn] {
      // At B: compute both repair directions against A's (current) table.
      // Direct table access stands in for the digest contents; the paid
      // network/service costs model the exchange.
      std::vector<std::pair<Key, Cell>> to_a, to_b;
      for (const auto& [k, cell] : bp->table_) {
        auto ac = ap->local_read(k.key());
        if (!ac || ac->ts < cell.ts) to_a.emplace_back(k.key(), cell);
      }
      for (const auto& [k, cell] : ap->table_) {
        auto bc = bp->local_read(k.key());
        if (!bc || bc->ts < cell.ts) to_b.emplace_back(k.key(), cell);
      }
      size_t a_bytes = 64, b_bytes = 64;
      for (auto& [k, c] : to_a) a_bytes += k.size() + c.value.size();
      for (auto& [k, c] : to_b) b_bytes += k.size() + c.value.size();
      bp->service().submit(b_bytes, [bp, to_b = std::move(to_b)] {
        for (const auto& [k, c] : to_b) bp->apply_write(k, c);
      });
      net_.send(
          bn, an, a_bytes,
          [ap, a_bytes, to_a = std::move(to_a)] {
            ap->service().submit(a_bytes, [ap, to_a] {
              for (const auto& [k, c] : to_a) ap->apply_write(k, c);
            });
          },
          sim::MsgKind::AntiEntropy);
    });
  }
  sim_.schedule(cfg_.anti_entropy_interval, [this, idx] {
    anti_entropy_round(idx);
  });
}

std::vector<sim::NodeId> StoreCluster::placement(const Key& key) const {
  int n = static_cast<int>(replicas_.size());
  int rf = std::min(kReplicationFactor, n);
  int start = static_cast<int>(fnv1a(key) % static_cast<uint64_t>(n));
  std::vector<sim::NodeId> out;
  out.reserve(static_cast<size_t>(rf));
  for (int i = 0; i < rf; ++i) {
    out.push_back(replicas_[static_cast<size_t>((start + i) % n)]->node());
  }
  return out;
}

}  // namespace music::ds
