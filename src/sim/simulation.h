// The discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and an ordered event queue.  Events are
// arbitrary callbacks scheduled at a simulated time; ties are broken by
// insertion order so runs are deterministic.  All higher layers (network,
// servers, protocols, clients) are built on schedule()/now().
//
// Fast path: payloads (an InlineFn — no heap allocation for typical
// captures — plus the trace context) live in a pooled, chunked arena whose
// slots are recycled through a freelist and never move, so events execute
// in place with zero per-event allocation.  Ordering is a hybrid of two
// structures:
//
//  - a timer wheel of kWheelTicks one-microsecond FIFO buckets for events
//    within the near window [now, now + kWheelTicks) — O(1) schedule and
//    O(1) pop for immediate continuations, RPC deliveries and short
//    timers, which dominate real workloads;
//  - an intrusive 8-ary min-heap of 24-byte (at, seq, slot) entries for
//    events beyond the window (coarse timeouts, heartbeats), compared
//    against the wheel head on every pop.
//
// Both structures order by the same (at, seq) key — bucket FIFO order IS
// seq order for equal timestamps — so execution order is exactly the
// (at, seq) order of the previous std::priority_queue<std::function>
// kernel and seeded runs are bit-identical, while removing the per-event
// allocation, the const_cast move-out-of-top idiom, and the O(log n)
// comparison cascade on the hot path.
//
// Cancellation: schedule()/schedule_at() return an EventId, and cancel(id)
// destroys the event's captures at once.  A far-heap event also gives its
// arena slot back; its 24-byte heap entry stays as a tombstone that pops at
// the event's time as an empty event, and a cancelled wheel event runs as
// an empty callable.  Either way the clock, events_run() and pending() move
// exactly as if the event had run, so cancelling never perturbs a seeded
// schedule.
//
// Conservative PDES (opt-in, enable_pdes): the event space is partitioned
// into per-site lanes — each lane a full wheel + far-heap + arena kernel of
// its own — plus the main lane (lane of record for setup, workload drivers
// and nemesis faults).  Lanes run in parallel on a par::Pool inside
// lookahead windows [T, B): B = min(T + L, next main-lane event, target),
// where the lookahead L is a lower bound on every cross-site delivery
// delay (Network::conservative_lookahead).  A cross-lane send at u in
// [T, B) arrives at u + delay >= u + L >= B, i.e. never inside the window
// being executed, so lanes cannot affect each other mid-window; such sends
// are buffered in per-lane outboxes and merged at the barrier with a
// deterministic rule (gather in lane order, stable-sort by timestamp,
// enqueue assigning destination-lane seq).  Main-lane events run alone
// between windows, after every site lane has drained up to their
// timestamp — ties go to the main lane.  Because lane assignment, window
// boundaries and the merge rule depend only on event content (never on
// which worker ran a lane), results are bit-identical at any worker count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "par/par.h"
#include "sim/inline_fn.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace music::obs {
class Tracer;
}  // namespace music::obs

namespace music::sim {

class Simulation;

/// Handle to a scheduled event, returned by Simulation::schedule() and
/// schedule_at() for a later Simulation::cancel().  Discardable: most
/// callers never cancel.  A default-constructed id names no event.
struct EventId {
  int32_t lane = -1;
  uint32_t slot = UINT32_MAX;
  uint64_t seq = UINT64_MAX;
};

namespace detail {
/// The simulation (and event lane, under PDES) currently executing an
/// event or starting a spawned coroutine.  Task's final awaiter uses the
/// simulation to schedule continuation resumption as a fresh event instead
/// of resuming synchronously; schedule()/now()/rng() route through the
/// lane, so model code transparently stays on the lane that resumed it.
struct ExecCtx {
  Simulation* sim = nullptr;
  void* lane = nullptr;
};
inline thread_local ExecCtx tl_exec;

/// RAII save/restore of the execution context around an entry into
/// coroutine/model code.
class CurrentSimScope {
 public:
  /// Enters `s` on its main lane — unless the current thread is already
  /// executing inside `s`, in which case the current lane is preserved
  /// (spawn() from a site-lane event must keep the new task on that lane).
  explicit CurrentSimScope(Simulation* s);

  /// Enters `s` on a specific lane (kernel-internal).
  CurrentSimScope(Simulation* s, void* lane) : prev_(tl_exec) {
    tl_exec.sim = s;
    tl_exec.lane = lane;
  }

  ~CurrentSimScope() { tl_exec = prev_; }
  CurrentSimScope(const CurrentSimScope&) = delete;
  CurrentSimScope& operator=(const CurrentSimScope&) = delete;

 private:
  ExecCtx prev_;
};
}  // namespace detail

/// The simulation whose event is currently executing (null outside the
/// event loop and spawn()).
inline Simulation* current_simulation() { return detail::tl_exec.sim; }

/// Discrete-event simulator: a virtual clock plus an ordered event queue.
///
/// Classic mode is strictly single-threaded: an entire simulated cluster
/// runs on one OS thread, which is what makes runs deterministic and
/// property tests reproducible (par::run_worlds scales out by running
/// independent Simulations on separate threads, never by sharing one).
/// enable_pdes() additionally parallelizes WITHIN one world across per-site
/// event lanes — still deterministic, but under a different (documented)
/// merge order than classic mode, so PDES worlds pin their own goldens.
class Simulation {
 public:
  /// Creates a simulation whose randomness derives from `seed`.
  explicit Simulation(uint64_t seed = 1) { main_.rng_ = Rng(seed); }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Near-window size in ticks (µs).  Events within [now, now+kWheelTicks)
  /// go to the timer wheel; later ones to the far heap.  2048 µs covers
  /// delay-0 continuations, service/disk completions and LAN-scale delivery
  /// delays.  Public so boundary regression tests can aim events exactly at
  /// the wheel/heap frontier.
  static constexpr uint32_t kWheelTicks = 2048;

  // -------------------------------------------------------------------
  // Conservative PDES.

  struct PdesOptions {
    /// Number of site lanes (one per LatencyProfile site), >= 1.
    int sites = 0;
    /// Total worker threads for window execution including the caller
    /// (0 = par::default_threads()).  Does not affect results.
    size_t workers = 0;
    /// Conservative lookahead in µs (>= 1): a lower bound on every
    /// cross-site delivery delay.  Network::conservative_lookahead()
    /// derives it from the active LatencyProfile.
    Duration lookahead = 0;
  };

  /// Switches this world to conservative PDES.  Call once, before the
  /// first run_until(); typically right after constructing the Simulation
  /// (events already queued stay on the main lane and run at barriers).
  /// Tracing is unsupported under PDES (a tracer records global execution
  /// order, which parallel lanes do not have).
  void enable_pdes(const PdesOptions& opt) {
    assert(site_lanes_.empty() && "enable_pdes may only be called once");
    assert(opt.sites >= 1);
    assert(opt.lookahead >= 1);
    assert(tracer_ == nullptr && "tracing is unsupported under PDES");
    lookahead_ = opt.lookahead;
    site_lanes_.reserve(static_cast<size_t>(opt.sites));
    for (int s = 0; s < opt.sites; ++s) {
      auto lane = std::make_unique<Lane>();
      lane->id_ = s;
      lane->now_ = main_.now_;
      // Per-lane random streams, forked deterministically from the root so
      // model code drawing from rng() on a lane never races or perturbs
      // another lane's stream.
      lane->rng_ = main_.rng_.fork(0x70646573ull + static_cast<uint64_t>(s));
      site_lanes_.push_back(std::move(lane));
    }
    size_t w = opt.workers == 0 ? par::default_threads() : opt.workers;
    if (w < 1) w = 1;
    workers_ = std::min(w, site_lanes_.size());
    if (workers_ > 1) {
      pool_ = std::make_unique<par::Pool>(workers_ - 1);
      drain_fn_ = [this](size_t i) { drain_lane(*site_lanes_[i]); };
    }
  }

  bool pdes() const { return !site_lanes_.empty(); }
  int pdes_sites() const { return static_cast<int>(site_lanes_.size()); }
  size_t pdes_workers() const { return workers_; }
  Duration pdes_lookahead() const { return lookahead_; }
  /// Lookahead windows executed so far (diagnostics).
  uint64_t pdes_windows_run() const { return windows_run_; }

  /// Current simulated time: the executing lane's clock (the main-lane
  /// clock outside the event loop; identical to classic behaviour when
  /// PDES is off).
  Time now() const { return exec_lane().now_; }

  /// Schedules `fn` to run `delay` microseconds from now (delay < 0 is
  /// treated as 0) on the current lane.  Events scheduled for the same
  /// instant run in scheduling order.  The returned id may be passed to
  /// cancel(), or ignored.
  EventId schedule(Duration delay, InlineFn fn) {
    Lane& L = exec_lane();
    return schedule_lane_at(L, L.now_ + (delay > 0 ? delay : 0),
                            std::move(fn));
  }

  /// Schedules `fn` at absolute simulated time `t` (clamped to >= now).
  EventId schedule_at(Time t, InlineFn fn) {
    return schedule_lane_at(exec_lane(), t, std::move(fn));
  }

  /// Lambda overloads: the callable is constructed directly in its arena
  /// slot, skipping the move through a temporary InlineFn.  Call sites that
  /// pass a raw lambda (the common case) bind here; an InlineFn argument
  /// still takes the overloads above.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventId schedule(Duration delay, F&& f) {
    Lane& L = exec_lane();
    return schedule_lane_at_emplace(L, L.now_ + (delay > 0 ? delay : 0),
                                    std::forward<F>(f));
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventId schedule_at(Time t, F&& f) {
    return schedule_lane_at_emplace(exec_lane(), t, std::forward<F>(f));
  }

  /// Cancels a pending event: its callback's captures are destroyed at
  /// once and it never runs.  The event still occupies its place in the
  /// schedule as an empty event — it advances the clock and counts in
  /// events_run() and pending() exactly as the callback would have — so a
  /// cancel changes memory, never the order or timing of anything else.
  ///
  /// A no-op when the event already ran or is running (its slot no longer
  /// carries `id.seq`), and when called from a lane other than the event's:
  /// under PDES that lane may be executing concurrently, so the event is
  /// left to run; callbacks must therefore tolerate running after a cancel
  /// from another lane.
  void cancel(EventId id) {
    Lane& L = exec_lane();
    if (id.lane != L.id_ || id.slot >= L.slot_count_) return;
    EventSlot& s = L.slot_ref(id.slot);
    if (s.seq != id.seq) return;
    if (s.far) {
      // The heap entry's seq no longer matches the slot: a tombstone.
      s.fn.reset();
      s.seq = kNoSeq;
      L.release_slot(id.slot);
    } else {
      // The slot stays linked in its wheel bucket until it pops.
      s.fn.emplace([] {});
    }
  }

  /// Schedules `fn` at absolute time `t` on site `site`'s lane (PDES only).
  /// From another lane inside a window this buffers the event in the
  /// sender's outbox — `t` must then be at or beyond the window end, which
  /// the lookahead bound guarantees for network deliveries; between
  /// windows (main-lane events, setup code, barrier callbacks) it enqueues
  /// directly.
  void schedule_site_at(int site, Time t, InlineFn fn) {
    Lane& dest = *site_lanes_[static_cast<size_t>(site)];
    Lane& cur = exec_lane();
    if (in_window_ && &cur != &dest) {
      assert(t >= window_end_ &&
             "cross-lane event would land inside the executing window; "
             "lookahead is not a lower bound on this delivery delay");
      cur.outbox_.push_back(Mail{t, site, cur.trace_ctx_, std::move(fn)});
      return;
    }
    if (t < dest.now_) t = dest.now_;
    uint32_t slot = dest.acquire_slot();
    EventSlot& s = dest.slot_ref(slot);
    s.fn = std::move(fn);
    s.ctx = cur.trace_ctx_;
    dest.enqueue(t, slot, s);
  }

  /// Schedules `fn` at absolute time `t` on the MAIN lane.  Main-lane
  /// events run alone between windows, so this is the PDES-safe way for
  /// model code to mutate shared state that concurrent site lanes read
  /// (shard maps, fault flags): hop the mutation to the main lane and every
  /// site lane observes it through the window barrier.  From a site lane
  /// inside a window the event is buffered as outbox mail with `t` clamped
  /// to the window end — the earliest instant that is still deterministic;
  /// elsewhere (classic mode, setup code, main-lane events) it enqueues
  /// directly, exactly like schedule_at on the main lane.
  void schedule_main_at(Time t, InlineFn fn) {
    Lane& cur = exec_lane();
    if (in_window_ && &cur != &main_) {
      if (t < window_end_) t = window_end_;
      cur.outbox_.push_back(Mail{t, kMainLane, cur.trace_ctx_, std::move(fn)});
      return;
    }
    schedule_lane_at(main_, t, std::move(fn));
  }

  /// True when the calling context executes on the main lane (always true
  /// in classic mode; false only inside a site-lane event under PDES).
  bool on_main_lane() const { return &exec_lane() == &main_; }

  /// Runs a single event, if any; returns false when the queue is empty.
  /// The event is removed from its queue (wheel bucket or far heap) BEFORE
  /// the callback runs (so it is never re-compared), but the payload
  /// executes in place in its arena slot: chunks never move, and the slot
  /// joins the freelist only after the callback returns, so rescheduling
  /// from inside the callback can never overwrite it.  Classic mode only —
  /// PDES worlds have no single "next event" (use run_until/run_for).
  bool step() {
    assert(!pdes());
    uint32_t slot = main_.pop_next_slot();
    if (slot == kNoSlot) return false;
    run_slot(main_, slot);
    return true;
  }

  /// Runs events until the queue is empty or `max_events` have run.
  /// Returns the number of events executed.  Under PDES, max_events is
  /// unsupported (windows run whole) and must be left defaulted.
  size_t run_until_idle(size_t max_events = SIZE_MAX) {
    if (pdes()) {
      assert(max_events == SIZE_MAX);
      uint64_t before = events_run();
      while (!idle()) run_until_pdes(kTimeNever);
      return static_cast<size_t>(events_run() - before);
    }
    size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  /// Runs all events with timestamp <= t — including events scheduled by
  /// those events for times <= t — then advances the clock to t.
  void run_until(Time t) {
    if (pdes()) {
      run_until_pdes(t);
      return;
    }
    while (!main_.idle() && main_.next_event_at() <= t) step();
    if (main_.now_ < t) main_.advance_clock(t);
  }

  /// Runs the simulation forward by `d` microseconds of virtual time.
  void run_for(Duration d) { run_until(now() + d); }

  /// True when no events are pending.
  bool idle() const {
    if (!main_.idle()) return false;
    for (const auto& L : site_lanes_) {
      if (!L->idle()) return false;
    }
    return true;
  }

  /// Timestamp of the next pending event, or kTimeNever when idle.  Lets a
  /// real-time host (the TCP backend's event loop) sleep in epoll exactly
  /// until the simulation's next timer instead of polling.
  Time peek_next_event_at() {
    Time t = main_.idle() ? kTimeNever : main_.next_event_at();
    for (auto& L : site_lanes_) {
      if (!L->idle()) t = std::min(t, L->next_event_at());
    }
    return t;
  }

  /// Number of pending events (diagnostics).
  size_t pending() const {
    size_t n = main_.pending();
    for (const auto& L : site_lanes_) n += L->pending();
    return n;
  }

  /// Total events executed so far (diagnostics), summed across lanes.
  uint64_t events_run() const {
    uint64_t n = main_.events_run_;
    for (const auto& L : site_lanes_) n += L->events_run_;
    return n;
  }

  /// Event slots the arenas have ever handed out, summed across lanes
  /// (diagnostics): the high-water mark of events pending at once.
  size_t arena_slots() const {
    size_t n = main_.slot_count_;
    for (const auto& L : site_lanes_) n += L->slot_count_;
    return n;
  }

  /// The current lane's random stream (the root stream in classic mode and
  /// on the main lane; a deterministic per-site fork on site lanes).
  Rng& rng() { return exec_lane().rng_; }

  /// Observability hooks.  A tracer (obs::Tracer) may be attached for the
  /// run; null (the default) disables tracing entirely — instrumented code
  /// checks tracer() first, so the disabled hot path is two loads and a
  /// branch with no allocations and no extra events.  Unsupported under
  /// PDES (traces record a global execution order).
  void set_tracer(obs::Tracer* t) {
    assert(t == nullptr || !pdes());
    tracer_ = t;
  }
  obs::Tracer* tracer() const { return tracer_; }

  /// The trace span currently attributed with work (an obs::SpanId; 0 means
  /// none).  Every scheduled event captures the context active at schedule
  /// time and restores it when it runs, so the context rides the causal
  /// chain for free.  sim::OpSpan (sim/span.h) is the usual way to set it.
  uint64_t trace_ctx() const { return exec_lane().trace_ctx_; }
  void set_trace_ctx(uint64_t ctx) { exec_lane().trace_ctx_ = ctx; }

 private:
  friend class detail::CurrentSimScope;

  /// Heap order key + arena index.  24 bytes: sifting touches only these.
  struct HeapEntry {
    Time at;
    uint64_t seq;
    uint32_t slot;
  };

  /// Pooled event payload.  `next` threads the slot through whichever list
  /// currently owns it: a wheel bucket's FIFO while queued, the freelist
  /// while vacant (fn is empty then).  `seq` is the queued event's seq, and
  /// kNoSeq once it runs or is vacant, so stale EventIds and far-heap
  /// tombstones never match it.  `far` records which structure holds it.
  struct EventSlot {
    InlineFn fn;
    Time at = 0;
    uint64_t seq = kNoSeq;
    uint64_t ctx = 0;
    uint32_t next = kNoSlot;
    bool far = false;
  };

  /// A cross-lane event buffered during a window, merged at the barrier.
  /// `site` is the destination lane index, or kMainLane for the main lane
  /// (schedule_main_at from inside a window).
  struct Mail {
    Time at;
    int site;
    uint64_t ctx;
    InlineFn fn;
  };

  static constexpr int kMainLane = -1;

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// pop_next_slot()'s result for a cancelled far event (see Lane::tomb_at_).
  static constexpr uint32_t kTombstone = UINT32_MAX - 1;
  static constexpr uint64_t kNoSeq = UINT64_MAX;
  static constexpr uint32_t kNoTick = UINT32_MAX;
  static constexpr size_t kArity = 8;
  static constexpr size_t kInitialCapacity = 256;
  static constexpr uint32_t kWheelMask = kWheelTicks - 1;
  static constexpr uint32_t kWheelWords = kWheelTicks / 64;

  /// One wheel tick: FIFO list of slots, appended at tail — within a tick,
  /// append order is seq order, which is what keeps runs bit-identical.
  struct Bucket {
    uint32_t head = kNoSlot;
    uint32_t tail = kNoSlot;
  };
  /// Arena chunk size (slots).  Chunks are never moved or freed until the
  /// simulation dies, which is what makes in-place execution in step() safe
  /// while other callbacks schedule (and grow the arena) concurrently.
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkShift;

  /// Min-heap on (at, seq): strict weak order, deterministic tie-break —
  /// identical to the previous kernel's ordering.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    // Deliberately the branchy short-circuit form: measured against both a
    // branch-free |/& variant and a packed __int128 key compare, this is
    // the fastest — speculation across the half-predictable `at` branch
    // beats the longer cmov dependency chains in the sift-down scan.
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// One event lane: a complete wheel + far-heap + arena kernel with its
  /// own clock, seq counter and random stream.  Classic mode uses exactly
  /// one (the main lane); PDES adds one per site.  A lane is only ever
  /// touched by one thread at a time — the window scheduler hands each
  /// lane to one worker per window, and the par::Pool barrier publishes
  /// all lane state between windows.
  struct Lane {
    /// Site index, or kMainLane; an EventId names its lane by this.
    int id_ = kMainLane;
    Time now_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t events_run_ = 0;
    std::vector<HeapEntry> heap_;
    std::vector<Bucket> wheel_;
    uint64_t occ_[kWheelWords] = {};
    size_t wheel_count_ = 0;
    std::vector<std::unique_ptr<EventSlot[]>> chunks_;
    uint32_t slot_count_ = 0;
    uint32_t free_head_ = kNoSlot;
    Rng rng_{0};
    uint64_t trace_ctx_ = 0;
    int run_depth_ = 0;
    /// Memoised find_next_bucket() result (kNoTick = unknown): run_until
    /// would otherwise scan the occupancy bitmap twice per event — once in
    /// next_event_at() to test against the horizon and again in the
    /// pop_next_slot() that immediately follows.  Invalidated on wheel
    /// enqueue (an earlier bucket may have filled), on emptying the cached
    /// bucket, and on clock movement (the scan origin changes).
    uint32_t cached_tick_ = kNoTick;
    /// Timestamp of the tombstone pop_next_slot() last returned.
    Time tomb_at_ = 0;
    std::vector<Mail> outbox_;

    Lane() : wheel_(kWheelTicks) {
      heap_.reserve(kInitialCapacity);
      chunks_.reserve(kInitialCapacity / kChunkSlots);
    }

    EventSlot& slot_ref(uint32_t slot) {
      return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
    }

    bool idle() const { return wheel_count_ == 0 && heap_.empty(); }
    size_t pending() const { return wheel_count_ + heap_.size(); }

    void advance_clock(Time t) {
      if (now_ != t) {
        now_ = t;
        cached_tick_ = kNoTick;
      }
    }

    uint32_t acquire_slot() {
      if (free_head_ != kNoSlot) {
        uint32_t slot = free_head_;
        free_head_ = slot_ref(slot).next;
        return slot;
      }
      if ((slot_count_ & (kChunkSlots - 1)) == 0) {
        chunks_.emplace_back(new EventSlot[kChunkSlots]);
      }
      return slot_count_++;
    }

    void release_slot(uint32_t slot) {
      slot_ref(slot).next = free_head_;
      free_head_ = slot;
    }

    /// Queues a filled slot at time t (slot's fn/ctx already set).
    void enqueue(Time t, uint32_t slot, EventSlot& s) {
      s.at = t;
      s.seq = next_seq_++;
      if (t - now_ < static_cast<Time>(kWheelTicks)) {
        s.next = kNoSlot;
        uint32_t b = static_cast<uint32_t>(t) & kWheelMask;
        Bucket& bk = wheel_[b];
        if (bk.tail == kNoSlot) {
          bk.head = bk.tail = slot;
          occ_[b >> 6] |= 1ull << (b & 63);
        } else {
          slot_ref(bk.tail).next = slot;
          bk.tail = slot;
        }
        ++wheel_count_;
        cached_tick_ = kNoTick;
        s.far = false;
      } else {
        s.far = true;
        heap_.push_back(HeapEntry{t, s.seq, slot});
        sift_up(heap_.size() - 1);
      }
    }

    /// Index of the first non-empty bucket at or after now_ (caller must
    /// ensure wheel_count_ > 0).  Every queued wheel event is within
    /// kWheelTicks of now_, so a circular scan from now_'s tick finds it
    /// before wrapping around.  Memoised in cached_tick_.
    uint32_t find_next_bucket() {
      if (cached_tick_ != kNoTick) return cached_tick_;
      uint32_t start = static_cast<uint32_t>(now_) & kWheelMask;
      uint32_t w = start >> 6;
      uint64_t word = occ_[w] & (~0ull << (start & 63));
      while (word == 0) {
        w = (w + 1) & (kWheelWords - 1);
        word = occ_[w];
      }
      cached_tick_ = (w << 6) + static_cast<uint32_t>(__builtin_ctzll(word));
      return cached_tick_;
    }

    /// Removes the far-heap root and returns its slot, or kTombstone (with
    /// tomb_at_ set) when the event was cancelled: its slot was vacated,
    /// perhaps reused, and no longer carries the entry's seq.
    uint32_t pop_heap() {
      const HeapEntry& f = heap_.front();
      uint32_t slot = f.slot;
      if (slot_ref(slot).seq != f.seq) {
        tomb_at_ = f.at;
        slot = kTombstone;
      }
      pop_root();
      return slot;
    }

    /// Removes and returns the next slot in (at, seq) order across both the
    /// wheel and the far heap; kNoSlot when nothing is pending, kTombstone
    /// for a cancelled far event.
    uint32_t pop_next_slot() {
      if (wheel_count_ == 0) {
        if (heap_.empty()) return kNoSlot;
        return pop_heap();
      }
      uint32_t tick = find_next_bucket();
      Bucket& bk = wheel_[tick];
      uint32_t wslot = bk.head;
      EventSlot& ws = slot_ref(wslot);
      if (!heap_.empty()) {
        const HeapEntry& f = heap_.front();
        // A far event can precede the wheel head when the clock has
        // advanced to within a window of it; equal timestamps fall back to
        // seq.
        if (f.at < ws.at || (f.at == ws.at && f.seq < ws.seq)) {
          return pop_heap();
        }
      }
      bk.head = ws.next;
      if (bk.head == kNoSlot) {
        bk.tail = kNoSlot;
        occ_[tick >> 6] &= ~(1ull << (tick & 63));
        cached_tick_ = kNoTick;
      }
      --wheel_count_;
      return wslot;
    }

    /// pop_next_slot(), but only if the next event is strictly before
    /// `bound` — the per-window drain primitive.  The bucket scan done by
    /// the bound check is reused by the pop through cached_tick_.
    uint32_t pop_next_slot_below(Time bound) {
      if (idle() || next_event_at() >= bound) return kNoSlot;
      return pop_next_slot();
    }

    /// Timestamp of the next pending event (caller must check !idle()).
    Time next_event_at() {
      Time t = heap_.empty() ? INT64_MAX : heap_.front().at;
      if (wheel_count_ != 0) {
        Time w = slot_ref(wheel_[find_next_bucket()].head).at;
        if (w < t) t = w;
      }
      return t;
    }

    void sift_up(size_t i) {
      HeapEntry e = heap_[i];
      while (i > 0) {
        size_t parent = (i - 1) / kArity;
        if (!before(e, heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
      }
      heap_[i] = e;
    }

    /// Removes the root: moves the last entry into the hole and sifts down.
    void pop_root() {
      HeapEntry last = heap_.back();
      heap_.pop_back();
      size_t n = heap_.size();
      if (n == 0) return;
      size_t i = 0;
      while (true) {
        size_t child = i * kArity + 1;
        if (child >= n) break;
        size_t best = child;
        size_t end = child + kArity < n ? child + kArity : n;
        for (size_t c = child + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
  };

  /// The lane the current thread is executing in: the context lane while
  /// inside an event of THIS simulation, the main lane otherwise (setup
  /// code, other sims, test drivers).
  Lane& exec_lane() {
    detail::ExecCtx& e = detail::tl_exec;
    return e.sim == this ? *static_cast<Lane*>(e.lane) : main_;
  }
  const Lane& exec_lane() const {
    const detail::ExecCtx& e = detail::tl_exec;
    return e.sim == this ? *static_cast<const Lane*>(e.lane) : main_;
  }

  EventId schedule_lane_at(Lane& L, Time t, InlineFn fn) {
    if (t < L.now_) t = L.now_;
    uint32_t slot = L.acquire_slot();
    EventSlot& s = L.slot_ref(slot);
    s.fn = std::move(fn);
    s.ctx = L.trace_ctx_;
    L.enqueue(t, slot, s);
    return EventId{L.id_, slot, s.seq};
  }

  template <typename F>
  EventId schedule_lane_at_emplace(Lane& L, Time t, F&& f) {
    if (t < L.now_) t = L.now_;
    uint32_t slot = L.acquire_slot();
    EventSlot& s = L.slot_ref(slot);
    s.fn.emplace(std::forward<F>(f));
    s.ctx = L.trace_ctx_;
    L.enqueue(t, slot, s);
    return EventId{L.id_, slot, s.seq};
  }

  /// Executes one popped slot on lane L (clock jump, trace context,
  /// in-place run, slot release).  A tombstone only moves the clock and
  /// counts, as the cancelled event would have.
  void run_slot(Lane& L, uint32_t slot) {
    if (slot == kTombstone) {
      L.advance_clock(L.tomb_at_);
      ++L.events_run_;
      if (L.run_depth_ == 0) L.trace_ctx_ = 0;
      return;
    }
    EventSlot& s = L.slot_ref(slot);
    L.advance_clock(s.at);
    ++L.events_run_;
    // From here on cancel() must not touch the running callback.
    s.seq = kNoSeq;
    // Restore the trace context that was active when this event was
    // scheduled, so span attribution follows the causal chain through
    // coroutine resumptions, future fulfilments and network deliveries.
    L.trace_ctx_ = s.ctx;
    ++L.run_depth_;
    {
      detail::CurrentSimScope scope(this, &L);
      s.fn();
    }
    s.fn.reset();
    L.release_slot(slot);
    --L.run_depth_;
    if (L.run_depth_ == 0) L.trace_ctx_ = 0;
  }

  /// Drains one site lane up to the current window end.  Runs on a pool
  /// worker (or the owner thread); only touches lane-local state and the
  /// lane's outbox.
  void drain_lane(Lane& L) {
    for (;;) {
      uint32_t slot = L.pop_next_slot_below(window_end_);
      if (slot == kNoSlot) break;
      run_slot(L, slot);
    }
  }

  /// Barrier merge: gather every lane's outbox in lane-index order,
  /// stable-sort by timestamp (so ties keep lane-then-emission order — an
  /// ordering that depends only on event content and lane assignment,
  /// never on worker scheduling) and enqueue into the destination lanes,
  /// which assigns destination seq in merged order.
  void merge_outboxes() {
    for (auto& L : site_lanes_) {
      for (Mail& m : L->outbox_) mail_scratch_.push_back(&m);
    }
    if (mail_scratch_.empty()) return;
    std::stable_sort(mail_scratch_.begin(), mail_scratch_.end(),
                     [](const Mail* a, const Mail* b) { return a->at < b->at; });
    for (Mail* m : mail_scratch_) {
      Lane& dest = m->site == kMainLane
                       ? main_
                       : *site_lanes_[static_cast<size_t>(m->site)];
      Time t = m->at < dest.now_ ? dest.now_ : m->at;
      uint32_t slot = dest.acquire_slot();
      EventSlot& s = dest.slot_ref(slot);
      s.fn = std::move(m->fn);
      s.ctx = m->ctx;
      dest.enqueue(t, slot, s);
    }
    for (auto& L : site_lanes_) L->outbox_.clear();
    mail_scratch_.clear();
  }

  /// Executes one lookahead window [max lane fronts, we).
  void run_window(Time we) {
    ++windows_run_;
    window_end_ = we;
    in_window_ = true;
    if (pool_) {
      pool_->run(site_lanes_.size(), drain_fn_);
    } else {
      for (auto& L : site_lanes_) drain_lane(*L);
    }
    in_window_ = false;
    merge_outboxes();
  }

  /// The PDES run loop: alternate lookahead windows (site lanes in
  /// parallel) with solo main-lane events at the barriers.
  void run_until_pdes(Time target) {
    // Events run strictly below `cap`; run_until's contract is inclusive.
    Time cap = target >= kTimeNever - 1 ? kTimeNever : target + 1;
    for (;;) {
      Time tg = main_.idle() ? kTimeNever : main_.next_event_at();
      Time tl = kTimeNever;
      for (auto& L : site_lanes_) {
        if (!L->idle()) tl = std::min(tl, L->next_event_at());
      }
      if (std::min(tg, tl) >= cap) break;
      if (tg <= tl) {
        // Merge rule, part 2: a main-lane event at T runs only once every
        // site lane has drained past T, and before any site event at the
        // same instant.  Main-lane events run alone, so they may mutate
        // cross-lane state (faults, shard moves, workload bookkeeping).
        uint32_t slot = main_.pop_next_slot();
        run_slot(main_, slot);
        continue;
      }
      Time we = tl > kTimeNever - lookahead_ ? kTimeNever : tl + lookahead_;
      if (tg < we) we = tg;
      if (cap < we) we = cap;
      run_window(we);
    }
    if (target != kTimeNever) {
      if (main_.now_ < target) main_.advance_clock(target);
      for (auto& L : site_lanes_) {
        if (L->now_ < target) L->advance_clock(target);
      }
    }
  }

  Lane main_;
  std::vector<std::unique_ptr<Lane>> site_lanes_;
  std::vector<Mail*> mail_scratch_;
  std::unique_ptr<par::Pool> pool_;
  std::function<void(size_t)> drain_fn_;
  size_t workers_ = 1;
  Duration lookahead_ = 0;
  Time window_end_ = 0;
  bool in_window_ = false;
  uint64_t windows_run_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

inline detail::CurrentSimScope::CurrentSimScope(Simulation* s)
    : prev_(tl_exec) {
  tl_exec.sim = s;
  if (prev_.sim != s) tl_exec.lane = &s->main_;
}

}  // namespace music::sim
