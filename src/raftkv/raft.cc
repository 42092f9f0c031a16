#include "raftkv/raft.h"

#include "sim/span.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace music::raftkv {

namespace {

/// Leader heartbeat period.
constexpr sim::Duration kHeartbeat = sim::ms(100);
/// Followers draw their election timeout uniformly from this range.
constexpr sim::Duration kElectionTimeoutMin = sim::ms(1000);
constexpr sim::Duration kElectionTimeoutMax = sim::ms(2000);

}  // namespace

// ---- RaftNode ---------------------------------------------------------------

RaftNode::RaftNode(RaftCluster& cluster, sim::NodeId node, int site, int id)
    : cluster_(cluster),
      node_(node),
      site_(site),
      id_(id),
      // Same server as the other stores; the Raft log is fsynced before
      // acknowledging appends.
      service_(cluster.simulation(), sim::kServerModel),
      disk_(cluster.simulation(), sim::kFsyncDisk),
      rng_(cluster.simulation().rng().fork(0x52414654ull + static_cast<uint64_t>(id))) {
  election_timeout_ = random_election_timeout();
}

sim::Simulation& RaftNode::sim() { return cluster_.simulation(); }

sim::Duration RaftNode::random_election_timeout() {
  return rng_.uniform_int(kElectionTimeoutMin, kElectionTimeoutMax);
}

void RaftNode::become_follower(int64_t term) {
  if (role_ == Role::Leader) {
    // Fail outstanding proposals; clients retry at the new leader.
    for (auto& [idx, p] : waiting_) {
      p.set_value(ProposeOutcome(OpStatus::Timeout, false));
    }
    waiting_.clear();
    applied_flags_.clear();
  }
  role_ = Role::Follower;
  term_ = term;
  voted_for_ = -1;
  votes_ = 0;
  election_timeout_ = random_election_timeout();
}

void RaftNode::become_candidate() {
  role_ = Role::Candidate;
  term_ += 1;
  voted_for_ = id_;
  votes_ = 1;
  leader_hint_ = -1;
  last_heartbeat_seen_ = sim().now();
  election_timeout_ = random_election_timeout();
  int64_t lli = last_log_index();
  int64_t llt = term_of(lli);
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    if (i == id_) continue;
    cluster_.post(
        node_, i, sim::kFramingBytes,
        [t = term_, c = id_, lli, llt](RaftNode& n) {
          n.on_request_vote(t, c, lli, llt);
        },
        sim::MsgKind::RaftVote);
  }
}

void RaftNode::become_leader() {
  role_ = Role::Leader;
  leader_hint_ = id_;
  next_index_.assign(static_cast<size_t>(cluster_.num_nodes()),
                     last_log_index() + 1);
  match_index_.assign(static_cast<size_t>(cluster_.num_nodes()), 0);
  send_heartbeats();
}

void RaftNode::on_request_vote(int64_t term, int candidate,
                               int64_t last_log_index_c, int64_t last_log_term_c) {
  if (term > term_) become_follower(term);
  bool granted = false;
  if (term == term_ && (voted_for_ == -1 || voted_for_ == candidate)) {
    // Candidate's log must be at least as up-to-date (§5.4.1 of Raft).
    int64_t my_lli = last_log_index();
    int64_t my_llt = term_of(my_lli);
    if (last_log_term_c > my_llt ||
        (last_log_term_c == my_llt && last_log_index_c >= my_lli)) {
      granted = true;
      voted_for_ = candidate;
      last_heartbeat_seen_ = sim().now();
    }
  }
  cluster_.post(
      node_, candidate, sim::kFramingBytes,
      [t = term_, granted, me = id_](RaftNode& n) {
        n.on_vote_reply(t, granted, me);
      },
      sim::MsgKind::RaftVote);
}

void RaftNode::on_vote_reply(int64_t term, bool granted, int /*from*/) {
  if (term > term_) {
    become_follower(term);
    return;
  }
  if (role_ != Role::Candidate || term != term_ || !granted) return;
  votes_ += 1;
  if (votes_ >= cluster_.quorum()) become_leader();
}

void RaftNode::send_heartbeats() {
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    if (i == id_) continue;
    replicate_to(i);
  }
}

void RaftNode::replicate_to(int peer) {
  int64_t next = next_index_.at(static_cast<size_t>(peer));
  int64_t prev = next - 1;
  std::vector<LogEntry> entries(
      log_.begin() + static_cast<ptrdiff_t>(prev),
      log_.end());
  size_t bytes = sim::kFramingBytes;
  for (const auto& e : entries) bytes += e.cmd.bytes() + 16;
  cluster_.post(
      node_, peer, bytes,
      [t = term_, me = id_, prev, pt = term_of(prev),
       entries = std::move(entries), lc = commit_index_](RaftNode& n) {
        n.on_append_entries(t, me, prev, pt, entries, lc);
      },
      sim::MsgKind::RaftAppend);
}

void RaftNode::on_append_entries(int64_t term, int leader, int64_t prev_index,
                                 int64_t prev_term,
                                 std::vector<LogEntry> entries,
                                 int64_t leader_commit) {
  if (term < term_) {
    cluster_.post(
        node_, leader, sim::kFramingBytes,
        [t = term_, me = id_](RaftNode& n) { n.on_append_reply(t, false, 0, me); },
        sim::MsgKind::RaftAppendAck);
    return;
  }
  if (term > term_ || role_ != Role::Follower) become_follower(term);
  term_ = term;
  leader_hint_ = leader;
  last_heartbeat_seen_ = sim().now();

  // Consistency check on the previous entry.
  if (prev_index > last_log_index() || term_of(prev_index) != prev_term) {
    cluster_.post(
        node_, leader, sim::kFramingBytes,
        [t = term_, me = id_](RaftNode& n) { n.on_append_reply(t, false, 0, me); },
        sim::MsgKind::RaftAppendAck);
    return;
  }
  // Append, truncating conflicts.
  int64_t index = prev_index;
  size_t new_bytes = 0;
  for (auto& e : entries) {
    index += 1;
    if (index <= last_log_index()) {
      if (log_.at(static_cast<size_t>(index - 1)).term != e.term) {
        log_.resize(static_cast<size_t>(index - 1));
        durable_index_ = std::min(durable_index_, index - 1);
      } else {
        continue;  // already have it
      }
    }
    new_bytes += e.cmd.bytes();
    log_.push_back(std::move(e));
  }
  int64_t match = index;
  if (leader_commit > commit_index_) {
    commit_index_ = std::min(leader_commit, last_log_index());
    apply_committed();
  }
  auto reply = [this, leader, match] {
    cluster_.post(
        node_, leader, sim::kFramingBytes,
        [t = term_, match, me = id_](RaftNode& n) {
          n.on_append_reply(t, true, match, me);
        },
        sim::MsgKind::RaftAppendAck);
  };
  if (match > durable_index_) {
    // Raft durability: fsync new entries before acknowledging.
    disk_.write_sync(new_bytes + 64, [this, match, reply] {
      durable_index_ = std::max(durable_index_, match);
      reply();
    });
  } else {
    reply();  // heartbeat / already-durable suffix
  }
}

void RaftNode::on_append_reply(int64_t term, bool success, int64_t match_index,
                               int from) {
  if (term > term_) {
    become_follower(term);
    return;
  }
  if (role_ != Role::Leader || term != term_) return;
  auto peer = static_cast<size_t>(from);
  if (success) {
    match_index_.at(peer) = std::max(match_index_.at(peer), match_index);
    next_index_.at(peer) = match_index_.at(peer) + 1;
    advance_commit();
  } else {
    next_index_.at(peer) = std::max<int64_t>(1, next_index_.at(peer) - 1);
    replicate_to(from);
  }
}

void RaftNode::advance_commit() {
  // Highest N with a majority of matchIndex >= N and log[N].term == term_.
  for (int64_t n = last_log_index(); n > commit_index_; --n) {
    if (term_of(n) != term_) continue;
    int count = (durable_index_ >= n) ? 1 : 0;  // self, if durable
    for (int i = 0; i < cluster_.num_nodes(); ++i) {
      if (i == id_) continue;
      if (match_index_.at(static_cast<size_t>(i)) >= n) ++count;
    }
    if (count >= cluster_.quorum()) {
      commit_index_ = n;
      apply_committed();
      break;
    }
  }
}

void RaftNode::apply_committed() {
  while (last_applied_ < commit_index_) {
    last_applied_ += 1;
    const LogEntry& e = log_.at(static_cast<size_t>(last_applied_ - 1));
    bool applies = true;
    if (e.cmd.expect_key) {
      auto it = kv_.find(*e.cmd.expect_key);
      const std::string& cur = it == kv_.end() ? std::string() : it->second.data;
      applies = (cur == e.cmd.expect_val.data);
    }
    if (applies) {
      for (const auto& [k, v] : e.cmd.writes) kv_[k] = v;
    }
    if (role_ == Role::Leader) {
      auto fit = applied_flags_.find(last_applied_);
      if (fit != applied_flags_.end()) fit->second = applies;
      auto wit = waiting_.find(last_applied_);
      if (wit != waiting_.end()) {
        wit->second.set_value(ProposeOutcome(OpStatus::Ok, applies));
        waiting_.erase(wit);
        applied_flags_.erase(last_applied_);
      }
    }
  }
}

sim::Task<ProposeOutcome> RaftNode::propose(Command cmd) {
  sim::OpSpan span(sim(), "raft.propose", site_, node_);
  if (down()) co_return ProposeOutcome(OpStatus::Timeout, false);
  if (role_ != Role::Leader) co_return ProposeOutcome(OpStatus::Conflict, false);
  // One append/ack WAN round trip to reach quorum commit.
  sim::trace_rtts(sim(), 1);
  log_.emplace_back(term_, std::move(cmd));
  int64_t index = last_log_index();
  sim::Promise<ProposeOutcome> done(sim());
  waiting_.emplace(index, done);
  applied_flags_.emplace(index, false);
  size_t entry_bytes = log_.back().cmd.bytes();
  // Leader durability in parallel with replication.
  disk_.write_sync(entry_bytes + 64, [this, index, t = term_] {
    if (term_ != t || role_ != Role::Leader) return;
    durable_index_ = std::max(durable_index_, index);
    advance_commit();
  });
  send_heartbeats();  // replicate immediately
  auto got = co_await sim::await_with_timeout<ProposeOutcome>(
      sim(), done.future(), kOpTimeout);
  if (!got) {
    waiting_.erase(index);
    applied_flags_.erase(index);
    co_return ProposeOutcome(OpStatus::Timeout, false);
  }
  co_return *got;
}

sim::Task<Result<Value>> RaftNode::read(Key key) {
  sim::OpSpan span(sim(), "raft.read", site_, node_);
  if (down()) co_return Result<Value>::Err(OpStatus::Timeout);
  if (role_ != Role::Leader) co_return Result<Value>::Err(OpStatus::Conflict);
  // Leader-lease read: serve from applied state after a service hop.
  sim::Promise<Result<Value>> p(sim());
  service_.submit(key.size() + 64, [this, key, p] {
    auto it = kv_.find(key);
    p.set_value(it == kv_.end() ? Result<Value>::Err(OpStatus::NotFound)
                                : Result<Value>::Ok(it->second));
  });
  co_return co_await p.future();
}

void RaftNode::election_tick() {
  if (down()) return;
  if (role_ == Role::Leader) {
    send_heartbeats();
    return;
  }
  if (sim().now() - last_heartbeat_seen_ >= election_timeout_) {
    become_candidate();
  }
}

void RaftNode::set_down(bool down) {
  service_.set_down(down);
  disk_.set_down(down);
  cluster_.network().set_node_down(node_, down);
  if (down) {
    for (auto& [idx, p] : waiting_) {
      (void)idx;
      (void)p;  // clients time out; promises dropped
    }
    waiting_.clear();
    applied_flags_.clear();
    role_ = Role::Follower;
    votes_ = 0;
  } else {
    last_heartbeat_seen_ = sim().now();
    election_timeout_ = random_election_timeout();
  }
}

// ---- RaftCluster ------------------------------------------------------------

RaftCluster::RaftCluster(sim::Simulation& sim, sim::Network& net,
                         const std::vector<int>& node_sites)
    : sim_(sim), net_(net) {
  int id = 0;
  for (int site : node_sites) {
    sim::NodeId n = net_.add_node(site);
    nodes_.push_back(std::make_unique<RaftNode>(*this, n, site, id));
    ++id;
  }
}

RaftNode& RaftCluster::node_at_site(int site) {
  for (auto& n : nodes_) {
    if (n->site() == site && !n->down()) return *n;
  }
  return *nodes_.front();
}

RaftNode* RaftCluster::leader() {
  for (auto& n : nodes_) {
    if (n->role() == Role::Leader && !n->down()) return n.get();
  }
  return nullptr;
}

void RaftCluster::start() {
  for (auto& n : nodes_) {
    RaftNode* node = n.get();
    node->last_heartbeat_seen_ = sim_.now();
    if (node->tick_loop_running_) continue;
    node->tick_loop_running_ = true;
    schedule_tick(node);
  }
}

void RaftCluster::schedule_tick(RaftNode* node) {
  // Self-rescheduling timer event (not a coroutine; see ZabEnsemble).
  sim_.schedule(kHeartbeat, [this, node] {
    node->election_tick();
    schedule_tick(node);
  });
}

RaftNode* RaftCluster::wait_for_leader(sim::Duration limit) {
  sim::Time deadline = sim_.now() + limit;
  while (sim_.now() < deadline) {
    if (RaftNode* l = leader()) return l;
    sim_.run_for(kHeartbeat);
  }
  return leader();
}

}  // namespace music::raftkv
