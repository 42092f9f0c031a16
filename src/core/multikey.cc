#include "core/multikey.h"

namespace music::core {

sim::Task<Status> MultiKeySection::acquire_all() {
  if (held_) co_return Status::Ok();
  sections_.reserve(keys_.size());
  for (const Key& key : keys_) {
    sections_.emplace_back(client_, key);
    Status st = co_await sections_.back().enter();
    if (!st.ok()) {
      sections_.pop_back();  // never held: enter() already evicted its ref
      co_await release_all();
      co_return st;
    }
  }
  held_ = true;
  co_return Status::Ok();
}

sim::Task<Status> MultiKeySection::release_all() {
  Status worst = Status::Ok();
  // Reverse lexicographic order (harmless either way for correctness, but
  // symmetric with the acquisition order).
  for (; !sections_.empty(); sections_.pop_back()) {
    auto st = co_await sections_.back().exit();
    if (!st.ok() && worst.ok()) worst = st;
  }
  held_ = false;
  co_return worst;
}

CriticalSection* MultiKeySection::section_of(const Key& key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (!held_ || it == keys_.end() || *it != key) return nullptr;
  return &sections_[static_cast<size_t>(it - keys_.begin())];
}

sim::Task<Status> MultiKeySection::put(const Key& key, Value value) {
  CriticalSection* cs = section_of(key);
  if (cs == nullptr) co_return OpStatus::NotLockHolder;
  co_return co_await cs->put(std::move(value));
}

sim::Task<Result<Value>> MultiKeySection::get(const Key& key) {
  CriticalSection* cs = section_of(key);
  if (cs == nullptr) co_return Result<Value>::Err(OpStatus::NotLockHolder);
  co_return co_await cs->get();
}

}  // namespace music::core
