#include "core/music.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <utility>

#include "sim/span.h"

namespace music::core {

namespace {

/// Tombstone payload written by criticalDelete; reads map it to NotFound.
const std::string kTombstone = "\x01__music_tombstone__";

bool is_tombstone(const Value& v) { return v.data == kTombstone; }

/// Codec for the !st row: "<ref>:<origin_us>".
std::string encode_origin(LockRef ref, sim::Time at) {
  return std::to_string(ref) + ":" + std::to_string(at);
}

std::optional<std::pair<LockRef, sim::Time>> parse_origin(const std::string& s) {
  size_t colon = s.find(':');
  if (colon == std::string::npos) return std::nullopt;
  LockRef ref = 0;
  sim::Time at = 0;
  auto r1 = std::from_chars(s.data(), s.data() + colon, ref);
  auto r2 = std::from_chars(s.data() + colon + 1, s.data() + s.size(), at);
  if (r1.ec != std::errc{} || r2.ec != std::errc{}) return std::nullopt;
  return std::make_pair(ref, at);
}

}  // namespace

MusicReplica::MusicReplica(ds::StoreCluster& store, ls::LockBackend& locks,
                           MusicConfig cfg, int site)
    : store_(store),
      locks_(locks),
      cfg_(cfg),
      site_(site),
      node_(store.network().add_node(site)),
      service_(store.simulation(), cfg.service),
      v2s_(cfg.t_max_cs) {}

ds::StoreReplica& MusicReplica::coord() {
  // execute() admits an op only while a store replica here is live; if it
  // crashed since, the op fails as any op caught by the crash does.
  return *store_.coordinator_at(site_, coord_rr_);
}

bool MusicReplica::has_live_store() const {
  size_t probe = 0;  // a query, not a pick: leave coord_rr_ alone
  const ds::StoreReplica* c = store_.coordinator_at(site_, probe);
  return c != nullptr && !c->down();
}

sim::Task<Status> MusicReplica::holder_guard(Key key, LockRef ref) {
  auto peek = co_await locks_.backend_peek(site_, key);
  if (!peek.ok()) co_return OpStatus::Nack;
  const auto& head = peek.value().head;
  if (!head.has_value() || ref > *head) {
    // lockRef not first yet, or local store not yet updated (§IV).
    co_return OpStatus::NotYetHolder;
  }
  if (ref < *head) {
    // Lock forcibly released: "youAreNoLongerLockHolder".
    ++stats_.rejected_not_holder;
    co_return OpStatus::NotLockHolder;
  }
  co_return Status::Ok();
}

sim::Task<std::optional<sim::Time>> MusicReplica::origin_for(Key key,
                                                             LockRef ref) {
  auto it = origin_cache_.find(key);
  if (it != origin_cache_.end() && it->second.ref == ref) {
    co_return it->second.at;
  }
  // Fall back to the (eventually consistent) !st row written by whichever
  // replica granted the lock.
  auto r = co_await coord().get(start_time_key(key), ds::Consistency::One);
  if (!r.ok()) co_return std::nullopt;
  auto parsed = parse_origin(r.value().value.data);
  if (!parsed || parsed->first != ref) co_return std::nullopt;
  origin_cache_[key] = Origin(ref, parsed->second);
  co_return parsed->second;
}

ScalarTs MusicReplica::next_ts(const Key& key, LockRef ref, sim::Duration e) {
  sim::Duration clamped = std::clamp<sim::Duration>(e, 0, cfg_.t_max_cs - 1);
  ScalarTs base = v2s_.encode(ref, clamped);
  ScalarTs& last = last_ts_[key];
  ScalarTs ts = std::max(base, last + 1);
  // A same-microsecond burst can bump past the critical-section window only
  // after ~T consecutive same-instant writes; that would be a model bug.
  assert(ts < ref * v2s_.span() + v2s_.span());
  last = ts;
  return ts;
}

sim::Task<Result<LockRef>> MusicReplica::create_lock_ref(Key key) {
  sim::OpSpan span(sim(), "music.create_lock_ref", site_, node_, key);
  ++stats_.create_lock_ref;
  watch_key(key);
  auto r = co_await locks_.backend_generate(site_, key);
  co_return r;
}

sim::Task<Status> MusicReplica::acquire_lock(Key key, LockRef ref) {
  sim::OpSpan span(sim(), "music.acquire_lock", site_, node_, key);
  ++stats_.acquire_attempts;
  watch_key(key);
  auto guard = co_await holder_guard(key, ref);
  if (!guard.ok()) co_return guard;

  // Granted path.  Fix the critical section's time origin now, before any
  // synchronization write, so every stamp of this critical section measures
  // elapsed time from the same instant (a later criticalPut must always
  // out-stamp the synchronization re-write).
  sim::Time origin;
  auto cached = origin_cache_.find(key);
  if (cached != origin_cache_.end() && cached->second.ref == ref) {
    origin = cached->second.at;  // idempotent re-acquire
  } else {
    origin = sim().now();
    origin_cache_[key] = Origin(ref, origin);
  }
  auto elapsed = [&] {
    return std::clamp<sim::Duration>(sim().now() - origin, 0,
                                     cfg_.t_max_cs - 1);
  };

  // synchFlag quorum read (the grant's only cost in the failure-free case).
  auto sf = co_await coord().get(synch_flag_key(key), ds::Consistency::Quorum);
  if (!sf.ok() && sf.status() != OpStatus::NotFound) {
    co_return OpStatus::Nack;
  }
  bool need_sync = sf.ok() && sf.value().value.data == "1";
  if (cfg_.test_skip_synchronization) need_sync = false;

  if (need_sync) {
    // §IV-B: a forced release happened; the data store's state is unknown.
    // Re-write whatever a quorum read returns under our lockRef (resolving
    // the paper's non-determinism in the true value), then reset the flag.
    sim::OpSpan sync_span(sim(), "music.synchronize", site_, node_, key);
    ++stats_.synchronizations;
    auto cur = co_await coord().get(data_key(key), ds::Consistency::Quorum);
    if (!cur.ok() && cur.status() != OpStatus::NotFound) {
      co_return OpStatus::Nack;
    }
    if (cur.ok()) {
      auto put = co_await coord().put(
          data_key(key), ds::Cell(cur.value().value, next_ts(key, ref, elapsed())),
          ds::Consistency::Quorum);
      if (!put.ok()) co_return OpStatus::Nack;
    }
    auto reset = co_await coord().put(
        synch_flag_key(key),
        ds::Cell(Value("0"), next_ts(key, ref, elapsed())),
        ds::Consistency::Quorum);
    if (!reset.ok()) co_return OpStatus::Nack;
  }

  // Record the critical section's start (the paper's startTime column,
  // §VI): an eventual write other replicas converge on.
  auto st = co_await coord().put(
      start_time_key(key),
      ds::Cell(Value(encode_origin(ref, origin)), next_ts(key, ref, elapsed())),
      ds::Consistency::One);
  if (!st.ok()) co_return OpStatus::Nack;

  ++stats_.acquire_granted;
  note_activity(key);
  co_return Status::Ok();
}

sim::Task<Status> MusicReplica::critical_put(Key key, LockRef ref,
                                             Value value) {
  sim::OpSpan span(sim(), "music.critical_put", site_, node_, key);
  auto guard = co_await holder_guard(key, ref);
  if (!guard.ok()) co_return guard;
  auto origin = co_await origin_for(key, ref);
  if (!origin) {
    // The grant's startTime has not reached this replica yet; the client
    // retries (usually at the replica that granted the lock).
    co_return OpStatus::Nack;
  }
  sim::Duration el = sim().now() - *origin;
  if (el >= cfg_.t_max_cs) {
    ++stats_.rejected_expired;
    co_return OpStatus::CsExpired;
  }
  ScalarTs ts = next_ts(key, ref, el);

  if (cfg_.put_mode == PutMode::Quorum) {
    // MUSIC: one quorum write, stamped with the v2s vector timestamp.
    auto st = co_await coord().put(data_key(key), ds::Cell(value, ts),
                                   ds::Consistency::Quorum);
    if (!st.ok()) co_return st.status();
  } else {
    // MSCP: the same write through an LWT (4 round trips).  Trivial-capture
    // closure bound to a named lvalue (GCC 12; see ds::Cell note): `value`
    // lives in this frame past the co_await.
    const Value* vp = &value;
    ds::LwtUpdate update = [vp, ts](const std::optional<ds::Cell>&) {
      return ds::LwtDecision(true, *vp, ts);
    };
    auto r = co_await coord().lwt(data_key(key), update);
    if (!r.ok()) co_return r.status();
  }
  ++stats_.critical_puts;
  note_activity(key);
  co_return Status::Ok();
}

sim::Task<Result<Value>> MusicReplica::critical_get(Key key, LockRef ref) {
  sim::OpSpan span(sim(), "music.critical_get", site_, node_, key);
  auto guard = co_await holder_guard(key, ref);
  if (!guard.ok()) co_return Result<Value>::Err(guard.status());
  auto origin = co_await origin_for(key, ref);
  if (!origin) co_return Result<Value>::Err(OpStatus::Nack);
  if (sim().now() - *origin >= cfg_.t_max_cs) {
    ++stats_.rejected_expired;
    co_return Result<Value>::Err(OpStatus::CsExpired);
  }
  auto r = co_await coord().get(data_key(key), ds::Consistency::Quorum);
  if (!r.ok()) co_return Result<Value>::Err(r.status());
  if (is_tombstone(r.value().value)) {
    co_return Result<Value>::Err(OpStatus::NotFound);
  }
  ++stats_.critical_gets;
  note_activity(key);
  co_return Result<Value>::Ok(r.value().value);
}

sim::Task<Status> MusicReplica::critical_delete(Key key, LockRef ref) {
  co_return co_await critical_put(key, ref, Value(kTombstone));
}

sim::Task<std::vector<BatchOpResult>> MusicReplica::execute_batch(
    Key key, LockRef ref, std::vector<BatchOp> ops) {
  sim::OpSpan span(sim(), "music.batch", site_, node_, key);
  ++stats_.batches;
  stats_.batched_ops += ops.size();
  std::vector<BatchOpResult> results(ops.size());
  size_t next = 0;
  OpStatus abort = OpStatus::Ok;

  while (next < ops.size()) {
    // ---- Collect the next round: consecutive same-class ops (writes =
    // put/delete, reads = get) on distinct keys.  A repeated key closes the
    // round so same-key sequences keep program order.
    bool writes = ops[next].kind != BatchOp::Kind::Get;
    std::vector<size_t> round;
    round.push_back(next);
    for (size_t j = next + 1; j < ops.size(); ++j) {
      if ((ops[j].kind != BatchOp::Kind::Get) != writes) break;
      bool dup = false;
      for (size_t r : round) dup = dup || ops[r].key == ops[j].key;
      if (dup) break;
      round.push_back(j);
    }

    // ---- Re-check holder guard and T bound once per round, exactly as the
    // unbatched ops do per op.  A failure here aborts this round's ops and
    // the whole tail (filled below).
    auto guard = co_await holder_guard(key, ref);
    if (!guard.ok()) {
      abort = guard.status();
      break;
    }
    auto origin = co_await origin_for(key, ref);
    if (!origin) {
      abort = OpStatus::Nack;
      break;
    }
    sim::Duration el = sim().now() - *origin;
    if (el >= cfg_.t_max_cs) {
      ++stats_.rejected_expired;
      abort = OpStatus::CsExpired;
      break;
    }

    OpStatus round_failed = OpStatus::Ok;
    if (writes && cfg_.put_mode == PutMode::Quorum) {
      // MUSIC: the whole round as one multi-cell quorum write — one value
      // quorum WAN round trip regardless of the round's size.
      std::vector<ds::WriteCell> cells;
      cells.reserve(round.size());
      for (size_t r : round) {
        const BatchOp& op = ops[r];
        Value v =
            op.kind == BatchOp::Kind::Delete ? Value(kTombstone) : op.value;
        cells.emplace_back(data_key(op.key),
                           ds::Cell(std::move(v), next_ts(op.key, ref, el)));
      }
      auto sts =
          co_await coord().put_cells(std::move(cells), ds::Consistency::Quorum);
      for (size_t i = 0; i < round.size(); ++i) {
        results[round[i]] = BatchOpResult(sts[i].status());
        if (sts[i].ok()) {
          ++stats_.critical_puts;
        } else if (round_failed == OpStatus::Ok) {
          round_failed = sts[i].status();
        }
      }
    } else if (writes) {
      // MSCP: LWT writes are four-round consensus ops — there is no
      // coalescing win, so run them sequentially as critical_put would,
      // with a fresh elapsed/expiry check per op.
      for (size_t r : round) {
        if (round_failed != OpStatus::Ok) {
          results[r] = BatchOpResult(round_failed);
          continue;
        }
        const BatchOp& op = ops[r];
        sim::Duration e2 = sim().now() - *origin;
        if (e2 >= cfg_.t_max_cs) {
          ++stats_.rejected_expired;
          round_failed = OpStatus::CsExpired;
          results[r] = BatchOpResult(round_failed);
          continue;
        }
        ScalarTs ts = next_ts(op.key, ref, e2);
        Value v =
            op.kind == BatchOp::Kind::Delete ? Value(kTombstone) : op.value;
        const Value* vp = &v;
        ds::LwtUpdate update = [vp, ts](const std::optional<ds::Cell>&) {
          return ds::LwtDecision(true, *vp, ts);
        };
        auto w = co_await coord().lwt(data_key(op.key), update);
        results[r] = BatchOpResult(w.status());
        if (w.ok()) {
          ++stats_.critical_puts;
        } else {
          round_failed = w.status();
        }
      }
    } else {
      // Read round: one multi-cell quorum read.
      std::vector<Key> dkeys;
      dkeys.reserve(round.size());
      for (size_t r : round) dkeys.push_back(data_key(ops[r].key));
      auto rs =
          co_await coord().get_cells(std::move(dkeys), ds::Consistency::Quorum);
      for (size_t i = 0; i < round.size(); ++i) {
        auto& rr = rs[i];
        if (rr.ok() && is_tombstone(rr.value().value)) {
          results[round[i]] = BatchOpResult(OpStatus::NotFound);
        } else if (rr.ok()) {
          ++stats_.critical_gets;
          results[round[i]] =
              BatchOpResult(OpStatus::Ok, std::move(rs[i]).value().value);
        } else {
          results[round[i]] = BatchOpResult(rr.status());
          // NotFound is a normal answer, not a batch failure.
          if (rr.status() != OpStatus::NotFound &&
              round_failed == OpStatus::Ok) {
            round_failed = rr.status();
          }
        }
      }
    }

    next = round.back() + 1;
    if (round_failed != OpStatus::Ok) {
      abort = round_failed;
      break;
    }
    note_activity(key);
  }

  // Fail everything not yet executed with the aborting status, so a
  // mid-batch preemption yields a deterministic Ok-prefix / failed-tail.
  if (abort != OpStatus::Ok) {
    for (size_t i = next; i < ops.size(); ++i) {
      results[i] = BatchOpResult(abort);
    }
  }
  co_return results;
}

sim::Task<Status> MusicReplica::release_lock(Key key, LockRef ref) {
  sim::OpSpan span(sim(), "music.release_lock", site_, node_, key);
  auto peek = co_await locks_.backend_peek(site_, key);
  if (peek.ok() && peek.value().head.has_value() && ref < *peek.value().head) {
    co_return Status::Ok();  // lock has been forcibly released (§IV)
  }
  auto r = co_await locks_.backend_dequeue(site_, key, ref);
  if (!r.ok()) co_return r;
  auto it = origin_cache_.find(key);
  if (it != origin_cache_.end() && it->second.ref == ref) {
    origin_cache_.erase(it);
  }
  ++stats_.releases;
  co_return Status::Ok();
}

sim::Task<Status> MusicReplica::forced_release(Key key, LockRef ref) {
  sim::OpSpan span(sim(), "music.forced_release", site_, node_, key);
  auto peek = co_await locks_.backend_peek(site_, key);
  if (peek.ok() && peek.value().head.has_value() && ref < *peek.value().head) {
    co_return Status::Ok();  // lock was previously released
  }
  // Mark the data store dirty, stamped just past everything the preempted
  // holder can have written (lockRef + delta, §IV-B).  The quorum write
  // must complete before the dequeue so the next holder's synchFlag read
  // cannot miss it.
  auto sf = co_await coord().put(
      synch_flag_key(key),
      ds::Cell(Value("1"), v2s_.encode_forced_release(ref, cfg_.delta)),
      ds::Consistency::Quorum);
  if (!sf.ok()) co_return OpStatus::Nack;
  auto dq = co_await locks_.backend_dequeue(site_, key, ref);
  if (!dq.ok()) co_return dq;
  fd_observed_.erase(key);
  ++stats_.forced_releases;
  co_return Status::Ok();
}

sim::Task<Status> MusicReplica::put_eventual(Key key, Value value) {
  sim::OpSpan span(sim(), "music.put_eventual", site_, node_, key);
  // Non-ECF write: stamped strictly inside lockRef 0's window, so any
  // criticalPut (ref >= 1) outranks it.  Intended for initialization and
  // lock-free keys.  Uses its own monotonic bump (NOT the critical-path
  // one, which lives in the current lockRef's window) and saturates at the
  // window's end rather than ever crossing into lockRef 1's.
  sim::Duration e = std::min<sim::Duration>(sim().now(), cfg_.t_max_cs - 1);
  ScalarTs base = v2s_.encode(0, e);
  ScalarTs& last = last_plain_ts_[key];
  ScalarTs ts = std::max(base, last + 1);
  ts = std::min(ts, v2s_.span() - 1);  // never outrank lockRef 1
  last = ts;
  co_return co_await coord().put(data_key(key), ds::Cell(value, ts),
                                 ds::Consistency::One);
}

sim::Task<Result<Value>> MusicReplica::get_eventual(Key key) {
  sim::OpSpan span(sim(), "music.get_eventual", site_, node_, key);
  auto r = co_await coord().get(data_key(key), ds::Consistency::One);
  if (!r.ok()) co_return Result<Value>::Err(r.status());
  if (is_tombstone(r.value().value)) {
    co_return Result<Value>::Err(OpStatus::NotFound);
  }
  co_return Result<Value>::Ok(r.value().value);
}

sim::Task<Result<Value>> MusicReplica::get_quorum_unlocked(Key key) {
  auto r = co_await coord().get(data_key(key), ds::Consistency::Quorum);
  if (!r.ok()) co_return Result<Value>::Err(r.status());
  if (is_tombstone(r.value().value)) {
    co_return Result<Value>::Err(OpStatus::NotFound);
  }
  co_return Result<Value>::Ok(r.value().value);
}

sim::Task<Result<std::vector<Key>>> MusicReplica::get_all_keys(Key prefix) {
  auto r = co_await coord().scan_local_keys(data_key(prefix));
  if (!r.ok()) co_return r;
  std::vector<Key> out;
  out.reserve(r.value().size());
  for (const auto& k : r.value()) {
    out.push_back(k.substr(3));  // strip "!d:"
  }
  co_return Result<std::vector<Key>>::Ok(std::move(out));
}

void MusicReplica::watch_key(const Key& key) { watched_[key] = true; }

void MusicReplica::note_activity(const Key& key) {
  auto it = fd_observed_.find(key);
  if (it != fd_observed_.end()) it->second.since = sim().now();
}

void MusicReplica::start_failure_detector() {
  if (fd_running_) return;
  fd_running_ = true;
  schedule_fd_tick();
}

void MusicReplica::schedule_fd_tick() {
  sim().schedule(cfg_.fd_interval, [this] {
    if (!fd_running_ || down()) return;
    sim::spawn(sim(), [](MusicReplica& self) -> sim::Task<void> {
      co_await self.fd_scan();
    }(*this));
    schedule_fd_tick();
  });
}

void MusicReplica::stop_failure_detector() { fd_running_ = false; }

sim::Task<void> MusicReplica::fd_scan() {
  sim::OpSpan span(sim(), "music.fd_scan", site_, node_);
  // Snapshot: forced releases during the scan may mutate the maps.
  std::vector<Key> keys;
  keys.reserve(watched_.size());
  for (const auto& [k, v] : watched_) {
    (void)v;
    keys.push_back(k);
  }
  for (const auto& key : keys) {
    auto peek = co_await locks_.backend_peek(site_, key);
    if (!peek.ok() || !peek.value().head.has_value()) {
      fd_observed_.erase(key);
      continue;
    }
    LockRef head = *peek.value().head;
    auto it = fd_observed_.find(key);
    if (it == fd_observed_.end() || it->second.head != head) {
      fd_observed_[key] = HeadObservation(head, sim().now());
      continue;
    }
    // Two preemption rules, per the paper:
    //   * a GRANTED holder (startTime known) is preempted when its critical
    //     section exceeds the T bound (§VI's startTime column exists for
    //     exactly this);
    //   * a head with NO startTime visible after the inactivity timeout is
    //     an orphan lockRef — created but never acquired (§IV-B) — and is
    //     removed.
    // Either can be wrong under partitions/slowness (false failure
    // detection, §IV-B), which ECF is designed to survive.
    auto origin = co_await origin_for(key, head);
    bool expired = origin && sim().now() - *origin >= cfg_.t_max_cs;
    bool orphan =
        !origin && sim().now() - it->second.since >= cfg_.holder_timeout;
    if (expired || orphan) {
      co_await forced_release(key, head);
    }
  }
}

void MusicReplica::set_down(bool down, bool amnesia) {
  service_.set_down(down);
  store_.network().set_node_down(node_, down);
  if (down && amnesia) {
    origin_cache_.clear();
    last_ts_.clear();
    fd_observed_.clear();
  }
  if (down) fd_running_ = false;
}

}  // namespace music::core
