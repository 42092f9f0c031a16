#include "verify/oracle.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"

namespace music::verify {

void EcfChecker::note_event(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  keys_[key].last_event = sim_.now();
}

std::optional<Value> EcfChecker::stable_truth(const Key& key,
                                              sim::Duration min_quiet) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return std::nullopt;
  const KeyState& ks = it->second;
  if (ks.true_idx < 0) return std::nullopt;        // no committed truth yet
  if (!ks.candidates.empty()) return std::nullopt; // choice still open
  if (ks.resync_pending) return std::nullopt;      // preemption unresolved
  if (sim_.now() - ks.last_event < min_quiet) return std::nullopt;
  const Attempt& truth = ks.attempts[static_cast<size_t>(ks.true_idx)];
  // Any eligible pending attempt could still land and out-stamp the truth.
  for (const Attempt& a : ks.attempts) {
    if (!a.acked && a.ref >= ks.dead_below && later(a, truth)) {
      return std::nullopt;
    }
  }
  return truth.value;
}

void EcfChecker::fail(const std::string& invariant, const Key& key,
                      const std::string& detail) {
  std::string d = detail + " (t=" + std::to_string(sim_.now()) + "us)";
  // Checker callbacks run inside the offending client operation's coroutine,
  // so the simulation's current trace context is that operation's span: a
  // violation report carries the full span ancestry when tracing is on.
  if (obs::Tracer* t = sim_.tracer()) {
    std::string anc = t->render_ancestry(sim_.trace_ctx());
    if (!anc.empty()) d += "\n  trace: " + anc;
  }
  violations_.emplace_back(invariant, key, std::move(d));
}

std::string EcfChecker::dump_state(const KeyState& ks) {
  std::ostringstream os;
  os << "\n  history: max_granted=" << ks.max_granted
     << " dead_below=" << ks.dead_below << " true_idx=" << ks.true_idx
     << " resync_pending=" << ks.resync_pending << " candidates=[";
  for (size_t i = 0; i < ks.candidates.size(); ++i) {
    os << (i ? "," : "") << ks.candidates[i];
  }
  os << "] attempts=[";
  for (size_t i = 0; i < ks.attempts.size(); ++i) {
    const Attempt& a = ks.attempts[i];
    os << "\n    #" << i << " ref=" << a.ref << " seq=" << a.seq << " '"
       << a.value.data << "'" << (a.acked ? " acked" : " pending");
  }
  os << "]";
  return os.str();
}

void EcfChecker::open_candidates(KeyState& ks, LockRef ref) {
  // The quorum read at entry can return the committed true value, or any
  // write attempted with a (lockRef, seq) stamp above it — an in-flight or
  // quorum-acked write of a preempted later holder — provided its lockRef
  // was not already killed by an earlier synchronization (dead_below) and
  // is below the new holder's ref.
  ks.candidates.clear();
  if (ks.true_idx >= 0) ks.candidates.push_back(ks.true_idx);
  for (int64_t i = 0; i < static_cast<int64_t>(ks.attempts.size()); ++i) {
    const Attempt& a = ks.attempts[static_cast<size_t>(i)];
    if (a.ref >= ref) continue;  // stamped above us: impossible, we are head
    if (a.ref < ks.dead_below) continue;  // killed by a synchronization
    if (ks.true_idx >= 0 &&
        !later(a, ks.attempts[static_cast<size_t>(ks.true_idx)])) {
      continue;  // older than the committed truth: cannot win the read
    }
    ks.candidates.push_back(i);
  }
}

void EcfChecker::on_acquired(const Key& key, LockRef ref) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  if (ref < ks.max_granted) {
    if (lenient_stale_grants_) return;  // stale view; ECF promises nothing
    fail("Fairness", key,
         "lock granted to ref " + std::to_string(ref) + " after ref " +
             std::to_string(ks.max_granted));
    return;
  }
  if (ks.active_holder != 0 && ks.active_holder != ref &&
      !ks.preempted[ks.active_holder]) {
    fail("Exclusivity", key,
         "ref " + std::to_string(ref) + " granted while ref " +
             std::to_string(ks.active_holder) +
             " still holds the lock (no forced release)");
  }
  if (ref != ks.max_granted) {
    // A genuinely new holder: the synchronization may have committed any
    // eligible write since the last committed truth.
    open_candidates(ks, ref);
    if (ks.resync_pending) {
      // The grant ran the synchFlag synchronization: the chosen value is
      // re-stamped under `ref`, so every other attempt below `ref` is dead.
      ks.dead_below = ref;
      ks.resync_pending = false;
    }
  }
  ks.max_granted = std::max(ks.max_granted, ref);
  ks.active_holder = ref;
}

void EcfChecker::on_put_attempt(const Key& key, LockRef ref, const Value& v) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  int64_t seq = ks.next_seq[ref]++;
  ks.attempts.emplace_back(ref, seq, v);
}

void EcfChecker::on_put_acked(const Key& key, LockRef ref, const Value& v) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  // Find the matching attempt (latest unacked with this ref+value).
  int64_t idx = -1;
  for (int64_t i = static_cast<int64_t>(ks.attempts.size()) - 1; i >= 0; --i) {
    Attempt& a = ks.attempts[static_cast<size_t>(i)];
    if (a.ref == ref && !a.acked && a.value == v) {
      a.acked = true;
      idx = i;
      break;
    }
  }
  if (idx < 0) {
    fail("Checker", key, "ack without matching attempt");
    return;
  }
  ks.any_acked = true;
  if (ks.preempted[ref] || ref < ks.max_granted) {
    // An acknowledged write by a preempted/stale holder: it does not define
    // the truth for the *current* holder's reads, but until the next
    // synchronization it may still win a quorum read, so it stays eligible
    // via open_candidates (driven by its (ref,seq) stamp).
    return;
  }
  // The holder's own acknowledged write becomes the true value and closes
  // any ambiguity.
  ks.true_idx = idx;
  ks.candidates.clear();
}

void EcfChecker::on_get_ok(const Key& key, LockRef ref, const Value& v) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  if (ref < ks.max_granted) {
    // A stale holder's read raced a preemption; ECF makes no promise to it.
    return;
  }
  // A read may return the holder's OWN attempted write before its ack was
  // processed: batch flushes report acks only after the whole batch returns,
  // and a retried batch can land a write whose per-op result was lost in
  // flight.  Observing the value through a quorum read proves the write
  // reached a quorum, so the observation commits the truth to that attempt
  // (the ack, if it is ever reported, re-commits the same choice).  Only
  // attempts not older than the committed truth qualify — a holder reading
  // its own write from *before* an acknowledged one is a genuine staleness
  // violation and falls through to the checks below.
  for (int64_t i = static_cast<int64_t>(ks.attempts.size()) - 1; i >= 0; --i) {
    const Attempt& a = ks.attempts[static_cast<size_t>(i)];
    if (a.ref != ref || !(a.value == v)) continue;
    if (ks.true_idx >= 0 && i != ks.true_idx &&
        !later(a, ks.attempts[static_cast<size_t>(ks.true_idx)])) {
      continue;
    }
    ks.true_idx = i;
    ks.candidates.clear();
    ks.any_acked = true;
    return;
  }
  // Reads by the current holder after its own acked put must see that put.
  if (ks.true_idx >= 0) {
    const Attempt& t = ks.attempts[static_cast<size_t>(ks.true_idx)];
    if (t.ref == ref) {
      if (!(t.value == v)) {
        fail("Latest-State", key,
             "holder " + std::to_string(ref) + " read '" + v.data +
                 "' but its own acknowledged write was '" + t.value.data + "'");
      }
      return;
    }
  }
  // First read of a new critical section: must match the committed truth or
  // one of the open candidates (the paper's non-deterministic choice); the
  // observation commits the choice.
  if (!ks.candidates.empty()) {
    for (int64_t i : ks.candidates) {
      if (ks.attempts[static_cast<size_t>(i)].value == v) {
        ks.true_idx = i;
        ks.candidates.clear();
        return;
      }
    }
    fail("Latest-State", key,
         "holder " + std::to_string(ref) + " read '" + v.data +
             "', not among the eligible true values after preemption" +
             dump_state(ks));
    return;
  }
  if (ks.true_idx >= 0) {
    const Attempt& t = ks.attempts[static_cast<size_t>(ks.true_idx)];
    if (!(t.value == v)) {
      fail("Latest-State", key,
           "holder " + std::to_string(ref) + " read '" + v.data +
               "' but the true value is '" + t.value.data + "'");
    }
    return;
  }
  fail("Latest-State", key,
       "holder " + std::to_string(ref) + " read '" + v.data +
           "' but no write was ever attempted");
}

void EcfChecker::on_get_not_found(const Key& key, LockRef ref) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  if (ref < ks.max_granted) return;  // stale holder; no promise
  // Once any write has been acknowledged it reached a quorum, so every
  // subsequent quorum read (including the entry synchronization) finds a
  // value: NotFound is only legal while all attempts are still pending.
  if (ks.any_acked || ks.true_idx >= 0) {
    std::string truth = ks.true_idx >= 0
                            ? ks.attempts[static_cast<size_t>(ks.true_idx)].value.data
                            : std::string("<an acknowledged write>");
    fail("Latest-State", key,
         "holder " + std::to_string(ref) +
             " read NotFound but a true value exists: '" + truth + "'");
  }
}

void EcfChecker::on_released(const Key& key, LockRef ref) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  if (ks.active_holder == ref) ks.active_holder = 0;
}

void EcfChecker::on_forced_release(const Key& key, LockRef ref) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& ks = keys_[key];
  ks.last_event = sim_.now();
  ks.preempted[ref] = true;
  ks.resync_pending = true;  // the next grant will synchronize
  if (ks.active_holder == ref) ks.active_holder = 0;
}

std::string EcfChecker::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& v : violations_) {
    os << "[" << v.invariant << "] key=" << v.key << ": " << v.detail << "\n";
  }
  return os.str();
}

void EcfChecker::on_get(const Key& key, LockRef ref, const Result<Value>& r) {
  if (r.ok()) {
    on_get_ok(key, ref, r.value());
  } else if (r.status() == OpStatus::NotFound) {
    on_get_not_found(key, ref);
  }
}

void EcfChecker::on_batch_sent(LockRef ref,
                               const std::vector<core::BatchOp>& ops) {
  for (const core::BatchOp& op : ops) {
    if (op.kind == core::BatchOp::Kind::Put) on_put_attempt(op.key, ref, op.value);
  }
}

void EcfChecker::on_batch_done(LockRef ref,
                               const std::vector<core::BatchOp>& ops,
                               const std::vector<core::BatchOpResult>& results) {
  for (size_t i = 0; i < ops.size() && i < results.size(); ++i) {
    const core::BatchOp& op = ops[i];
    const core::BatchOpResult& r = results[i];
    if (op.kind == core::BatchOp::Kind::Put && r.status == OpStatus::Ok) {
      on_put_acked(op.key, ref, op.value);
    } else if (op.kind == core::BatchOp::Kind::Get) {
      on_get(op.key, ref,
             r.status == OpStatus::Ok ? Result<Value>::Ok(r.value)
                                      : Result<Value>::Err(r.status));
    }
  }
}

DefinedResult data_store_defined(ds::StoreCluster& cluster,
                                 const Key& music_key) {
  Key dkey = core::MusicReplica::data_key(music_key);
  auto placement = cluster.placement(dkey);
  // The highest-timestamp cell anywhere is the candidate true value.
  std::optional<ds::Cell> best;
  for (sim::NodeId n : placement) {
    auto c = cluster.by_node(n).local_read(dkey);
    if (c && (!best || c->ts > best->ts)) best = c;
  }
  if (!best) return DefinedResult(false, std::nullopt);
  // "Defined as v": fewer than a quorum hold a value that is not v.
  int not_v = 0;
  for (sim::NodeId n : placement) {
    auto c = cluster.by_node(n).local_read(dkey);
    if (!c || !(c->value == best->value)) ++not_v;
  }
  bool defined = not_v < cluster.quorum();
  return DefinedResult(defined, best->value);
}

}  // namespace music::verify
