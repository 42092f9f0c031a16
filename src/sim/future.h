// Futures, promises, sleeps, timeouts and quorum-gathering for simulator
// coroutines.
//
// A Promise<T>/Future<T> pair carries one value across the event loop: RPC
// replies, disk completions, etc.  Fulfilment schedules waiter resumption as
// a fresh event (never synchronously), so protocol handlers cannot re-enter
// one another.  A future that is never fulfilled (dropped message, crashed
// node) simply never resumes its waiter — callers guard with
// await_with_timeout() or await_count().
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace music::sim {

/// Empty payload for futures that only signal completion.
struct Unit {};

namespace detail {

template <typename T>
struct SharedState {
  explicit SharedState(Simulation& s) : sim(&s) {}

  Simulation* sim;
  std::optional<T> value;
  std::vector<InlineFn> callbacks;
  std::vector<InlineFnT<void(const T&)>> value_callbacks;

  void set(T v) {
    assert(!value.has_value() && "promise fulfilled twice");
    value.emplace(std::move(v));
    // Run callbacks as fresh events so fulfilment never re-enters the
    // fulfilling handler's stack.  Value callbacks receive a copy of the
    // value so they need not (and must not) capture the Future itself —
    // a callback capturing its own future is a reference cycle that leaks
    // whenever the promise is never fulfilled (dropped messages).
    for (auto& cb : callbacks) sim->schedule(0, std::move(cb));
    callbacks.clear();
    for (auto& cb : value_callbacks) {
      sim->schedule(0, [cb = std::move(cb), v = *value]() mutable { cb(v); });
    }
    value_callbacks.clear();
  }

  void on_ready(InlineFn cb) {
    if (value.has_value()) {
      sim->schedule(0, std::move(cb));
    } else {
      callbacks.push_back(std::move(cb));
    }
  }

  void on_value(InlineFnT<void(const T&)> cb) {
    if (value.has_value()) {
      sim->schedule(0, [cb = std::move(cb), v = *value]() mutable { cb(v); });
    } else {
      value_callbacks.push_back(std::move(cb));
    }
  }
};

}  // namespace detail

/// Read side of a one-shot value channel.  Copyable (shared); awaiting a
/// ready future resumes on a later event-loop turn, preserving causality.
template <typename T>
class Future {
 public:
  Future() = default;

  /// True once the value is available.
  bool ready() const { return state_ && state_->value.has_value(); }

  /// The value; requires ready().
  const T& value() const { return *state_->value; }

  /// True if this future is connected to a promise.
  bool valid() const { return state_ != nullptr; }

  /// Registers a callback run (as a fresh event) when the value is set, or
  /// immediately-as-an-event if already set.
  ///
  /// LIFETIME: the callback MUST NOT capture this Future (or anything
  /// holding it) — that forms a cycle that leaks if the promise is never
  /// fulfilled.  To consume the value, use on_value() instead.
  void on_ready(InlineFn cb) const { state_->on_ready(std::move(cb)); }

  /// Registers a callback receiving a copy of the value (as a fresh
  /// event).  Safe under never-fulfilled promises: no self-capture needed.
  void on_value(InlineFnT<void(const T&)> cb) const {
    state_->on_value(std::move(cb));
  }

  struct Awaiter {
    std::shared_ptr<detail::SharedState<T>> state;
    bool await_ready() const { return state->value.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      state->on_ready([h] { h.resume(); });
    }
    T await_resume() { return *state->value; }
  };
  /// Awaits the value.  If the promise is never fulfilled the coroutine
  /// never resumes; use await_with_timeout() when that can happen.
  Awaiter operator co_await() const { return Awaiter{state_}; }

 private:
  template <typename U>
  friend class Promise;
  explicit Future(std::shared_ptr<detail::SharedState<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::SharedState<T>> state_;
};

/// Write side of a one-shot value channel.
template <typename T>
class Promise {
 public:
  explicit Promise(Simulation& sim)
      : state_(std::make_shared<detail::SharedState<T>>(sim)) {}

  /// The matching future (may be taken any number of times).
  Future<T> future() const { return Future<T>(state_); }

  /// Fulfils the promise.  Must be called at most once.
  void set_value(T v) const { state_->set(std::move(v)); }

  /// True if already fulfilled.
  bool fulfilled() const { return state_->value.has_value(); }

 private:
  std::shared_ptr<detail::SharedState<T>> state_;
};

/// Awaitable pause: `co_await sleep_for(sim, d)` resumes d microseconds of
/// simulated time later.
struct SleepAwaiter {
  Simulation& sim;
  Duration d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim.schedule(d, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline SleepAwaiter sleep_for(Simulation& sim, Duration d) {
  return SleepAwaiter{sim, d};
}

/// Awaitable lane hop: `co_await on_main_lane(sim)` continues the coroutine
/// on the MAIN event lane — which under PDES runs alone between lookahead
/// windows, making it the safe (and deterministic) place to mutate state
/// that concurrent site lanes read.  No-op when already on the main lane,
/// and in classic mode always a no-op: awaiting it never suspends, costs no
/// event, and leaves classic goldens bit-identical.
struct MainLaneAwaiter {
  Simulation& sim;
  bool await_ready() const noexcept { return sim.on_main_lane(); }
  void await_suspend(std::coroutine_handle<> h) {
    sim.schedule_main_at(sim.now(), [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline MainLaneAwaiter on_main_lane(Simulation& sim) {
  return MainLaneAwaiter{sim};
}

/// Awaits `f`, giving up after `timeout`.  Returns the value, or nullopt on
/// timeout.  A late fulfilment after timeout is ignored safely.  The timer
/// is cancelled once the wait ends, so it does not keep `done` (and the
/// value copied into it) alive until the deadline; a cancel from another
/// PDES lane is a no-op, and the timer then fires and finds `done` set.
template <typename T>
Task<std::optional<T>> await_with_timeout(Simulation& sim, Future<T> f,
                                          Duration timeout) {
  Promise<std::optional<T>> done(sim);
  f.on_value([done](const T& v) {
    if (!done.fulfilled()) done.set_value(v);
  });
  EventId timer = sim.schedule(timeout, [done] {
    if (!done.fulfilled()) done.set_value(std::nullopt);
  });
  std::optional<T> r = co_await done.future();
  sim.cancel(timer);
  co_return r;
}

/// Awaits at least `want` of the given futures, or gives up at `timeout`
/// (pass kTimeNever to wait unboundedly — only when fulfilment of `want` of
/// them is guaranteed).  Returns however many values arrived by then (in
/// arrival order): size() >= want means the quorum was reached.  This is the
/// primitive behind quorum reads/writes and consensus vote collection.  As in
/// await_with_timeout(), the timer is cancelled once the wait ends.
template <typename T>
Task<std::vector<T>> await_count(Simulation& sim, std::vector<Future<T>> fs,
                                 size_t want, Duration timeout) {
  struct Gather {
    std::vector<T> got;
    bool done = false;
  };
  auto g = std::make_shared<Gather>();
  Promise<std::vector<T>> result(sim);
  EventId timer;
  if (want == 0 || fs.empty()) {
    result.set_value({});
  } else {
    for (auto& f : fs) {
      f.on_value([g, want, result](const T& v) {
        if (g->done) return;
        g->got.push_back(v);
        if (g->got.size() >= want) {
          g->done = true;
          result.set_value(g->got);
        }
      });
    }
    if (timeout != kTimeNever) {
      timer = sim.schedule(timeout, [g, result] {
        if (g->done) return;
        g->done = true;
        result.set_value(g->got);
      });
    }
  }
  std::vector<T> got = co_await result.future();
  sim.cancel(timer);
  co_return got;
}

/// Awaits all futures (no timeout).  Use only when fulfilment is guaranteed.
template <typename T>
Task<std::vector<T>> await_all(Simulation& sim, std::vector<Future<T>> fs) {
  size_t n = fs.size();
  co_return co_await await_count<T>(sim, std::move(fs), n, kTimeNever);
}

}  // namespace music::sim
