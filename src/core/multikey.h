// Multi-key critical sections (§III-A).
//
// "The semantics can easily be extended by following the deadlock-avoidance
//  rule that locks are always acquired in lexicographic order, and an
//  acquireLock on multiple keys is successful only if it is individually
//  successful for all the keys in the key set."
//
// MultiKeySection implements exactly that over any api::ClientApi, as one
// core::CriticalSection per key: it enters each key's section in
// lexicographic order, exposes critical operations on any key in the set,
// and exits in reverse order.  If any entry fails, everything already
// entered is rolled back (CriticalSection::enter evicts the failed key's
// lockRef; the rest are released), so a failed multi-acquire leaves no
// residue beyond orphan refs the failure detector collects.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/session.h"

namespace music::core {

/// A multi-key critical section, driven explicitly (prefer release_all();
/// a section dropped while held releases its keys fire-and-forget, as a
/// CriticalSection does).
class MultiKeySection {
 public:
  /// `keys` in any order; duplicates are ignored.
  MultiKeySection(api::ClientApi& client, std::vector<Key> keys)
      : client_(client) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    keys_ = std::move(keys);
  }

  MultiKeySection(const MultiKeySection&) = delete;
  MultiKeySection& operator=(const MultiKeySection&) = delete;

  /// Acquires every key, in lexicographic order.  Returns Ok only if all
  /// acquisitions succeeded; otherwise rolls back and reports the first
  /// failure.  Idempotent per section object (second call is a no-op Ok).
  sim::Task<Status> acquire_all();

  /// Releases every held key, in reverse lexicographic order.  Safe to call
  /// after a failed acquire_all (releases whatever is held).
  sim::Task<Status> release_all();

  /// Critical operations on a key of the set (NotLockHolder if the key is
  /// not part of this section or the section is not held).
  sim::Task<Status> put(const Key& key, Value value);
  sim::Task<Result<Value>> get(const Key& key);

  /// True once acquire_all succeeded (and before release_all).
  bool held() const { return held_; }

  const std::vector<Key>& keys() const { return keys_; }

 private:
  /// The held section for `key`, or null if `key` is not in the set or the
  /// set is not held.
  CriticalSection* section_of(const Key& key);

  api::ClientApi& client_;
  std::vector<Key> keys_;                 // lexicographic order
  std::vector<CriticalSection> sections_;  // entered so far, in keys_ order
  bool held_ = false;
};

}  // namespace music::core
