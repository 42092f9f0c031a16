// Protocol-level tracing: spans over simulated time.
//
// The paper's cost analysis (§IV, §X-B4) is denominated in protocol round
// trips — MUSIC's latency claims follow from counting the messages behind
// each acquire/read/write/release.  A Span makes that count observable at
// runtime: every MUSIC operation (lock acquire/release, quorum read/write,
// LWT, synchronization, Zab proposal, Raft commit) is stamped with sim-clock
// begin/end times, the site/node it ran at, its parent span, and per-span
// message and WAN-round-trip counters.  Counters roll up through the parent
// chain, so a root span (one client operation) carries the inclusive cost of
// everything it caused — the executable form of the paper's cost table.
//
// Zero-cost when disabled: code instruments through sim::OpSpan (sim/span.h)
// which checks Simulation::tracer() first; with no tracer installed the hot
// path is two loads and a branch — no messages, no heap allocations, no
// events.  Span context travels on simulation events (Simulation stamps the
// current context into every scheduled event and restores it when the event
// runs), so attribution follows the causal chain through coroutine
// suspensions, futures and network hops without touching the protocols.
//
// This header is deliberately independent of the simulator: times are plain
// int64 microseconds, so the sim layer can link against obs without a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace music::obs {

class MetricsRegistry;

/// Identifies a span within one Tracer.  0 means "no span" (the root
/// context); valid ids are 1-based indices into the tracer's span table.
using SpanId = uint64_t;

/// One traced operation.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0: root
  /// Static operation name ("music.acquire_lock", "store.lwt", ...).  Must
  /// point at storage outliving the tracer (string literals in practice).
  const char* name = "";
  /// Free-form detail, usually the key operated on.
  std::string detail;
  /// Site / node the operation ran at (-1: unknown).  Chrome-trace pid/tid.
  int site = -1;
  int node = -1;
  /// Sim-clock begin/end, microseconds.  end_us < 0 while the span is open.
  int64_t begin_us = 0;
  int64_t end_us = -1;
  /// Messages handed to Network::send while this span (or any descendant)
  /// was the active context.
  uint64_t msgs = 0;
  /// The subset of msgs that crossed sites (WAN messages).
  uint64_t wan_msgs = 0;
  /// Protocol-declared WAN round trips (a quorum round = 1, an LWT = 4, a
  /// Zab/Raft commit round = 1), inclusive of descendants.  This is the
  /// quantity the §X-B4 cost model counts.
  uint64_t rtts = 0;

  bool finished() const { return end_us >= 0; }
  int64_t duration_us() const { return finished() ? end_us - begin_us : -1; }
};

/// Collects spans for one simulation run.  Plain single-threaded storage —
/// the whole simulated cluster runs on one OS thread.
class Tracer {
 public:
  /// `max_spans` bounds memory; once reached, begin() returns 0 and the
  /// overflow is counted in dropped_spans().
  explicit Tracer(size_t max_spans = size_t{1} << 22);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span.  Returns its id, or 0 when the span table is full.
  SpanId begin(const char* name, int64_t now_us, SpanId parent, int site = -1,
               int node = -1, std::string_view detail = {});

  /// Closes a span (idempotent; unknown/0 ids are ignored).  If a metrics
  /// registry is attached, the duration is recorded into the histogram
  /// "span.<name>" and the counter "span.<name>.count" is bumped.
  void end(SpanId id, int64_t now_us);

  /// Attributes one network message to `ctx` and all its ancestors.
  void add_message(SpanId ctx, bool cross_site);

  /// Declares `n` protocol-level WAN round trips under `ctx` (inclusive).
  void add_rtts(SpanId ctx, uint64_t n);

  /// Attach a registry to receive per-span-name duration histograms.
  void set_registry(MetricsRegistry* r) { registry_ = r; }
  MetricsRegistry* registry() const { return registry_; }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_; }

  /// The span for an id (nullptr for 0/unknown).  Pointers are invalidated
  /// by the next begin().
  const Span* find(SpanId id) const;

  /// "name(detail)@<begin>us <- parent(...)@..." — the ancestry of `ctx`,
  /// innermost first.  Used to attach the offending operation's trace to
  /// verifier violations.  Empty string for ctx 0.
  std::string render_ancestry(SpanId ctx) const;

 private:
  Span* mut(SpanId id);

  std::vector<Span> spans_;
  size_t max_spans_;
  uint64_t dropped_ = 0;
  MetricsRegistry* registry_ = nullptr;
};

}  // namespace music::obs
