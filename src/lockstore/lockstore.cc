#include "lockstore/lockstore.h"

#include <charconv>
#include <utility>

#include "sim/span.h"

namespace music::ls {

std::string LockQueue::serialize() const {
  std::string out = std::to_string(guard);
  out.push_back('|');
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(entries[i].ref);
    out.push_back('@');
    out += std::to_string(entries[i].op_tag);
  }
  return out;
}

LockQueue LockQueue::parse(const std::string& s) {
  LockQueue q;
  size_t bar = s.find('|');
  if (bar == std::string::npos) return q;
  std::from_chars(s.data(), s.data() + bar, q.guard);
  size_t pos = bar + 1;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    size_t at = s.find('@', pos);
    LockRef ref = 0;
    uint64_t tag = 0;
    if (at != std::string::npos && at < comma) {
      std::from_chars(s.data() + pos, s.data() + at, ref);
      std::from_chars(s.data() + at + 1, s.data() + comma, tag);
    } else {
      std::from_chars(s.data() + pos, s.data() + comma, ref);
    }
    if (ref != kNoLockRef) q.entries.emplace_back(ref, tag);
    pos = comma + 1;
  }
  return q;
}

namespace {

LockQueue queue_of(const std::optional<ds::Cell>& cell) {
  if (!cell) return LockQueue{};
  return LockQueue::parse(cell->value.data);
}

}  // namespace

sim::Task<Result<LockRef>> LockStore::generate_and_enqueue(
    ds::StoreReplica& coord, Key key) {
  sim::OpSpan span(store_.simulation(), "lock.generate", coord.site(),
                   coord.node(), key);
  // One LWT: BEGIN BATCH { guard += 1; INSERT (key, guard) } APPLY BATCH.
  // The decision closure carries the chosen lockRef out via shared state
  // (the closure may run on a retry with a different prior queue).  The
  // entry carries a unique op tag so a retry whose first proposal was
  // completed by a competitor's replay adopts the already-enqueued ref
  // instead of enqueueing an orphan duplicate.
  uint64_t tag = (static_cast<uint64_t>(coord.node()) << 40) ^
                 next_op_tag_.fetch_add(1, std::memory_order_relaxed);
  auto chosen = std::make_shared<LockRef>(kNoLockRef);
  ds::LwtUpdate update = [chosen, tag](const std::optional<ds::Cell>& cur) {
    LockQueue q = queue_of(cur);
    for (const auto& e : q.entries) {
      if (e.op_tag == tag) {
        *chosen = e.ref;  // our earlier proposal was replayed and committed
        return ds::LwtDecision{false, Value(), std::nullopt};
      }
    }
    q.guard += 1;
    *chosen = q.guard;
    q.entries.emplace_back(q.guard, tag);
    return ds::LwtDecision{true, Value(q.serialize()), std::nullopt};
  };
  auto r = co_await coord.lwt(queue_key(key), update);
  if (!r.ok()) co_return Result<LockRef>::Err(r.status());
  if (*chosen == kNoLockRef) co_return Result<LockRef>::Err(OpStatus::Nack);
  co_return Result<LockRef>::Ok(*chosen);
}

sim::Task<Status> LockStore::dequeue(ds::StoreReplica& coord, Key key,
                                     LockRef ref) {
  sim::OpSpan span(store_.simulation(), "lock.dequeue", coord.site(),
                   coord.node(), key);
  ds::LwtUpdate update = [ref](const std::optional<ds::Cell>& cur) {
    LockQueue q = queue_of(cur);
    std::erase_if(q.entries, [ref](const LockEntry& e) { return e.ref == ref; });
    return ds::LwtDecision{true, Value(q.serialize()), std::nullopt};
  };
  auto r = co_await coord.lwt(queue_key(key), update);
  if (!r.ok()) co_return r.status();
  co_return Status::Ok();
}

sim::Task<Result<PeekResult>> LockStore::peek(ds::StoreReplica& coord,
                                              Key key) {
  auto r = co_await coord.get(queue_key(key), ds::Consistency::One);
  if (!r.ok()) {
    if (r.status() == OpStatus::NotFound) {
      co_return Result<PeekResult>::Ok(PeekResult{std::nullopt, false});
    }
    co_return Result<PeekResult>::Err(r.status());
  }
  LockQueue q = LockQueue::parse(r.value().value.data);
  co_return Result<PeekResult>::Ok(PeekResult{q.head(), true});
}

sim::Task<Result<PeekResult>> LockStore::peek_quorum(ds::StoreReplica& coord,
                                                     Key key) {
  auto r = co_await coord.get(queue_key(key), ds::Consistency::Quorum);
  if (!r.ok()) {
    if (r.status() == OpStatus::NotFound) {
      co_return Result<PeekResult>::Ok(PeekResult{std::nullopt, false});
    }
    co_return Result<PeekResult>::Err(r.status());
  }
  LockQueue q = LockQueue::parse(r.value().value.data);
  co_return Result<PeekResult>::Ok(PeekResult{q.head(), true});
}

ds::StoreReplica* LockStore::coord_at(int site) {
  ds::StoreReplica* c = store_.coordinator_at(
      site, coord_rr_[static_cast<size_t>(site) % coord_rr_.size()]);
  return c != nullptr && !c->down() ? c : nullptr;
}

sim::Task<Result<LockRef>> LockStore::backend_generate(int site, Key key) {
  ds::StoreReplica* c = coord_at(site);
  if (c == nullptr) co_return Result<LockRef>::Err(OpStatus::Nack);
  co_return co_await generate_and_enqueue(*c, std::move(key));
}

sim::Task<Status> LockStore::backend_dequeue(int site, Key key, LockRef ref) {
  ds::StoreReplica* c = coord_at(site);
  if (c == nullptr) co_return Status::Err(OpStatus::Nack);
  co_return co_await dequeue(*c, std::move(key), ref);
}

sim::Task<Result<PeekResult>> LockStore::backend_peek(int site, Key key) {
  ds::StoreReplica* c = coord_at(site);
  if (c == nullptr) co_return Result<PeekResult>::Err(OpStatus::Nack);
  co_return co_await peek(*c, std::move(key));
}

}  // namespace music::ls
