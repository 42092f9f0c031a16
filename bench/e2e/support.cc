// Shared runner pieces: metric sink, latest-state check, latency series, the
// op coroutine, span analysis and Chrome-trace output, host probes.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "e2e.h"
#include "sim/span.h"

namespace music::e2e {

int64_t wall_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

std::string proc_path(int pid, const char* file) {
  return pid == 0 ? std::string("/proc/self/") + file
                  : "/proc/" + std::to_string(pid) + "/" + file;
}

/// The numeric value of a "Name:   123 kB" line of /proc/<pid>/status.
bool status_field(const std::string& status, const char* name, uint64_t& out) {
  size_t at = status.find(std::string("\n") + name + ":");
  if (at == std::string::npos) return false;
  out = std::strtoull(status.c_str() + at + std::strlen(name) + 2, nullptr, 10);
  return true;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return "\n" + ss.str();
}

}  // namespace

double peak_rss_mb(int pid) {
  uint64_t kb = 0;
  status_field(slurp(proc_path(pid, "status")), "VmHWM", kb);
  return static_cast<double>(kb) / 1024.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

bool read_proc(int pid, ProcSample& out) {
  // /proc/<pid>/stat: fields 14 and 15 (utime, stime, in clock ticks) follow
  // the parenthesised command name, which may itself contain spaces.
  std::string stat = slurp(proc_path(pid, "stat"));
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  out.user_s = static_cast<double>(utime) / tick;
  out.sys_s = static_cast<double>(stime) / tick;
  std::string status = slurp(proc_path(pid, "status"));
  uint64_t vol = 0, invol = 0;
  if (!status_field(status, "voluntary_ctxt_switches", vol) ||
      !status_field(status, "nonvoluntary_ctxt_switches", invol)) {
    return false;
  }
  out.ctxsw = vol + invol;
  return true;
}

HostTicks host_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::istringstream in(slurp("/proc/stat"));
  std::string label;
  in >> label;
  HostTicks t;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---- MetricSet ----------------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second].value = value;
    entries_[it->second].unit = unit;
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back(Entry{name, value, unit});
}

double MetricSet::get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : entries_[it->second].value;
}

// ---- LatestStateCheck ---------------------------------------------------------

namespace {

uint16_t key_tag(const Key& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
}

constexpr size_t kValueBytes = 10;  // §VIII-a: 10 B values

}  // namespace

Value LatestStateCheck::next_value(const Key& key) {
  uint64_t version = ++keys_[key].attempted;
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04x", key_tag(key));
  static const char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  char* p = buf + 4;
  for (int i = 5; i >= 0; --i) {
    p[i] = kDigits[version % 36];
    version /= 36;
  }
  return Value(std::string(buf, kValueBytes), kValueBytes);
}

uint64_t LatestStateCheck::version_of(const Key& key, const Value& v) {
  char tag[8];
  std::snprintf(tag, sizeof tag, "%04x", key_tag(key));
  if (v.data.size() != kValueBytes || v.data.compare(0, 4, tag) != 0) return 0;
  uint64_t version = 0;
  for (size_t i = 4; i < kValueBytes; ++i) {
    char c = v.data[i];
    int digit = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'z' ? c - 'a' + 10
                                       : -1;
    if (digit < 0) return 0;
    version = version * 36 + static_cast<uint64_t>(digit);
  }
  return version;
}

void LatestStateCheck::violation(const Key& key, const char* what) {
  if (violations_ < 10) {
    std::fprintf(stderr, "bench_e2e: check violation on %s: %s\n",
                 key.c_str(), what);
  }
  ++violations_;
}

void LatestStateCheck::on_put(const Key& key, const Value& v, bool acked) {
  KeyState& ks = keys_[key];
  uint64_t version = version_of(key, v);
  if (acked) {
    ks.acked = version;
    ks.unknown.clear();
  } else {
    ks.unknown.push_back(version);
  }
}

void LatestStateCheck::on_critical_get(const Key& key,
                                       const Result<Value>& r) {
  if (!r.ok() && r.status() != OpStatus::NotFound) return;  // no answer
  KeyState& ks = keys_[key];
  uint64_t got = r.ok() ? version_of(key, r.value()) : 0;
  if (r.ok() && got == 0) {
    violation(key, "criticalGet returned a value never written to this key");
    return;
  }
  bool fine = got == ks.acked ||
              std::find(ks.unknown.begin(), ks.unknown.end(), got) !=
                  ks.unknown.end();
  if (!fine) {
    violation(key, r.ok() ? "criticalGet missed the last acked criticalPut"
                          : "criticalGet found nothing after an acked put");
  }
  // The read resolved any ambiguity left by failed puts.
  ks.acked = got;
  ks.unknown.clear();
}

void LatestStateCheck::on_read(const Key& key, const Result<Value>& r) {
  if (!r.ok()) return;  // NotFound is legal for an eventual read
  uint64_t got = version_of(key, r.value());
  auto it = keys_.find(key);
  if (got == 0 || it == keys_.end() || got > it->second.attempted) {
    violation(key, "eventual get returned a value never written");
  }
}

// ---- Ops ------------------------------------------------------------------------

void Series::set_windows(int64_t start_us, int64_t window_us) {
  base_ = windows_.size();
  start_us_ = start_us;
  window_us_ = window_us;
}

void Series::add(int64_t start_us, int64_t duration_us) {
  size_t w = base_;
  if (window_us_ > 0 && start_us > start_us_) {
    w += static_cast<size_t>((start_us - start_us_) / window_us_);
  }
  if (w >= windows_.size()) windows_.resize(w + 1);
  ++windows_[w][duration_us];
}

void Series::merge(const Series& o) {
  for (size_t w = 0; w < o.windows_.size(); ++w) {
    Histogram& into = windows_[std::min(w, windows_.size() - 1)];
    for (const auto& [d, c] : o.windows_[w]) into[d] += c;
  }
}

void Tally::merge(const Tally& o) {
  for (auto s : {&Tally::section, &Tally::read, &Tally::create, &Tally::acquire,
                 &Tally::get, &Tally::put, &Tally::release, &Tally::read_call}) {
    (this->*s).merge(o.*s);
  }
  sections_ok += o.sections_ok;
  sections_failed += o.sections_failed;
  reads_ok += o.reads_ok;
  reads_failed += o.reads_failed;
}

/// Each sample is spread evenly over its rounding interval [d - 0.5,
/// d + 0.5): the rank p/100 * n falls inside the run of samples equal to
/// some d and is interpolated across it.
double Series::percentile_ms(const Histogram& h, double p) {
  uint64_t n = 0;
  for (const auto& [d, c] : h) n += c;
  if (n == 0) return 0.0;
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n);
  uint64_t below = 0;
  for (const auto& [d, c] : h) {
    if (rank < static_cast<double>(below + c) || below + c == n) {
      double within = (rank - static_cast<double>(below)) /
                      static_cast<double>(c);
      return (static_cast<double>(d) - 0.5 + within) / 1000.0;
    }
    below += c;
  }
  return 0.0;
}

double Series::percentile_ms(double p) const {
  Histogram all;
  for (const Histogram& h : windows_) {
    for (const auto& [d, c] : h) all[d] += c;
  }
  return percentile_ms(all, p);
}

double Series::quiet_ms(double p) const {
  std::vector<std::pair<double, const Histogram*>> ranked;
  for (const Histogram& h : windows_) {
    if (!h.empty()) ranked.emplace_back(percentile_ms(h, p), &h);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t quiet = std::max<size_t>(1, (ranked.size() + 2) / 5);
  Histogram pooled;
  for (size_t i = 0; i < quiet && i < ranked.size(); ++i) {
    for (const auto& [d, c] : *ranked[i].second) pooled[d] += c;
  }
  return percentile_ms(pooled, p);
}

int64_t OpContext::now_us() const {
  return wall_clock ? wall_ns() / 1000 : sim->now();
}

namespace {

/// A bench span around one op or one ClientApi call: an obs span (so the
/// protocol spans the call causes nest under it) plus the wall stamps.
/// The parent is explicit: a coroutine resumes under the trace context of
/// whatever event fulfilled its await (usually a protocol span deep inside
/// the previous call), so each call re-parents onto its op's span.
class BenchSpan {
 public:
  BenchSpan(OpContext* ctx, const char* name, int site, uint64_t op,
            obs::SpanId parent)
      : ctx_(ctx) {
    if (ctx->spans == nullptr) return;
    ctx->sim->set_trace_ctx(parent);
    span_.emplace(*ctx->sim, name, site);
    stamp_.op = op;
    stamp_.wall_begin_ns = wall_ns();
  }
  ~BenchSpan() {
    if (!span_) return;
    stamp_.wall_end_ns = wall_ns();
    if (span_->id() != 0) ctx_->spans->stamps[span_->id()] = stamp_;
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  obs::SpanId id() const { return span_ ? span_->id() : 0; }

 private:
  OpContext* ctx_;
  std::optional<sim::OpSpan> span_;
  BenchSpans::Stamp stamp_;
};

/// Reports the first few failed ops of a process on stderr.
void note_failure(const Key& key, const char* call, OpStatus st) {
  static int reported = 0;
  if (reported++ < 5) {
    std::fprintf(stderr, "bench_e2e: op on %s failed at %s: %s\n",
                 key.c_str(), call, std::string(to_string(st)).c_str());
  }
}

/// Records the time since `t` into `tally->*which` and advances `t`.
void lap(OpContext* ctx, Tally* tally, Series Tally::*which, int64_t& t) {
  int64_t now = ctx->now_us();
  if (tally != nullptr) (tally->*which).add(t, now - t);
  t = now;
}

sim::Task<void> run_read(OpContext* ctx, api::ClientApi* c, Key key,
                         int64_t start_us, Tally* tally, uint64_t op) {
  BenchSpan span(ctx, "bench.read", c->site(), op, 0);
  int64_t t0 = ctx->now_us();
  Result<Value> r = co_await c->get(key);
  int64_t t1 = ctx->now_us();
  if (ctx->spans != nullptr) ctx->sim->set_trace_ctx(span.id());
  ctx->check.on_read(key, r);
  bool ok = r.ok() || r.status() == OpStatus::NotFound;
  if (!ok) note_failure(key, "get", r.status());
  if (tally != nullptr) {
    tally->read_call.add(t0, t1 - t0);
    tally->read.add(start_us, ok ? t1 - start_us : Series::kFailed);
    ++(ok ? tally->reads_ok : tally->reads_failed);
  }
}

sim::Task<void> run_section(OpContext* ctx, api::ClientApi* c, Key key,
                            int64_t start_us, Tally* tally, uint64_t op) {
  BenchSpan section(ctx, "bench.section", c->site(), op, 0);
  obs::SpanId sid = section.id();
  bool ok = false;
  int64_t t = ctx->now_us();
  Result<LockRef> ref = Result<LockRef>::Err(OpStatus::Timeout);
  {
    BenchSpan s(ctx, "bench.create", c->site(), op, sid);
    ref = co_await c->create_lock_ref(key);
  }
  lap(ctx, tally, &Tally::create, t);
  if (!ref.ok()) note_failure(key, "createLockRef", ref.status());
  if (ref.ok()) {
    LockRef lr = ref.value();
    Status acq = OpStatus::Timeout;
    {
      BenchSpan s(ctx, "bench.acquire", c->site(), op, sid);
      acq = co_await c->acquire_lock_blocking(key, lr);
    }
    lap(ctx, tally, &Tally::acquire, t);
    if (!acq.ok()) {
      note_failure(key, "acquireLock", acq.status());
      co_await c->remove_lock_ref(key, lr);
    } else {
      Result<Value> got = Result<Value>::Err(OpStatus::Timeout);
      {
        BenchSpan s(ctx, "bench.get", c->site(), op, sid);
        got = co_await c->critical_get(key, lr);
      }
      lap(ctx, tally, &Tally::get, t);
      ctx->check.on_critical_get(key, got);
      Value v = ctx->check.next_value(key);
      Status put = OpStatus::Timeout;
      if (got.ok() || got.status() == OpStatus::NotFound) {
        BenchSpan s(ctx, "bench.put", c->site(), op, sid);
        put = co_await c->critical_put(key, lr, v);
      }
      lap(ctx, tally, &Tally::put, t);
      ctx->check.on_put(key, v, put.ok());
      Status rel = OpStatus::Timeout;
      {
        BenchSpan s(ctx, "bench.release", c->site(), op, sid);
        rel = co_await c->release_lock(key, lr);
      }
      lap(ctx, tally, &Tally::release, t);
      ok = put.ok() && rel.ok();
      if (!put.ok()) note_failure(key, "criticalPut", put.status());
      if (!rel.ok()) note_failure(key, "releaseLock", rel.status());
    }
  }
  if (ctx->spans != nullptr) ctx->sim->set_trace_ctx(sid);
  if (tally != nullptr) {
    tally->section.add(start_us,
                       ok ? ctx->now_us() - start_us : Series::kFailed);
    ++(ok ? tally->sections_ok : tally->sections_failed);
  }
  if (sid != 0) ++ctx->spans->sections;
}

}  // namespace

sim::Task<void> run_op(OpContext* ctx, api::ClientApi* c, Key key, bool read,
                       int64_t start_us, Tally* tally) {
  uint64_t op = ctx->next_op++;
  ++ctx->inflight;
  if (read) {
    co_await run_read(ctx, c, std::move(key), start_us, tally, op);
  } else {
    co_await run_section(ctx, c, std::move(key), start_us, tally, op);
  }
  --ctx->inflight;
}

// ---- Span analysis ----------------------------------------------------------------

namespace {

const char* layer_of(const char* name) {
  if (std::strncmp(name, "music.", 6) == 0) return "core";
  if (std::strncmp(name, "lock.", 5) == 0) return "lockstore";
  if (std::strncmp(name, "store.", 6) == 0) return "datastore";
  if (std::strncmp(name, "rpc.", 4) == 0) return "rpc";
  return "client";  // bench.*, cluster.*, client.*
}

}  // namespace

std::map<std::string, double> self_ms_per_section(const BenchSpans& spans,
                                                  bool wall) {
  const std::vector<obs::Span>& all = spans.tracer.spans();
  // Spans are stored by id (1-based, parents before children).  On the
  // wall clock only stamped spans are timed; an unstamped span is
  // transparent and its children count toward its nearest stamped ancestor.
  size_t n = all.size();
  std::vector<int64_t> begin(n), end(n);
  std::vector<uint8_t> visible(n, 0), in_section(n, 0);
  std::vector<size_t> owner(n, SIZE_MAX);  // nearest visible ancestor-or-self
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const obs::Span& s = all[i];
    auto it = spans.stamps.find(s.id);
    if (!wall && s.finished()) {
      visible[i] = 1;
      begin[i] = s.begin_us * 1000;
      end[i] = s.end_us * 1000;
    } else if (wall && it != spans.stamps.end()) {
      visible[i] = 1;
      begin[i] = it->second.wall_begin_ns;
      end[i] = it->second.wall_end_ns;
    }
    size_t parent = s.parent != 0 && s.parent <= n ? s.parent - 1 : SIZE_MAX;
    if (parent != SIZE_MAX) {
      in_section[i] = in_section[parent];
    } else if (std::strcmp(s.name, "bench.section") == 0) {
      in_section[i] = 1;
    }
    size_t up = parent != SIZE_MAX ? owner[parent] : SIZE_MAX;
    if (visible[i] != 0) {
      if (up != SIZE_MAX) children[up].push_back(i);
      owner[i] = i;
    } else {
      owner[i] = up;
    }
  }
  std::map<std::string, double> self_ns = {
      {"client", 0}, {"core", 0}, {"lockstore", 0}, {"datastore", 0},
      {"rpc", 0}};
  for (size_t i = 0; i < n; ++i) {
    if (in_section[i] == 0 || visible[i] == 0) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      int64_t b = std::max(begin[c], begin[i]);
      int64_t e = std::min(end[c], end[i]);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (auto [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self_ns[layer_of(all[i].name)] +=
        static_cast<double>(end[i] - begin[i] - covered);
  }
  std::map<std::string, double> out;
  double sections =
      spans.sections > 0 ? static_cast<double>(spans.sections) : 1.0;
  for (auto& [layer, ns] : self_ns) out[layer] = ns / 1e6 / sections;
  return out;
}

bool write_trace_events(const BenchSpans& spans, int pid,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<obs::Span>& all = spans.tracer.spans();
  // Every span carries the op id of its bench ancestor.
  std::vector<uint64_t> op(all.size(), 0);
  for (size_t i = 0; i < all.size(); ++i) {
    const obs::Span& s = all[i];
    auto it = spans.stamps.find(s.id);
    if (it != spans.stamps.end() && it->second.op != 0) {
      op[i] = it->second.op;
    } else if (s.parent != 0 && s.parent <= all.size()) {
      op[i] = op[s.parent - 1];
    }
    if (!s.finished()) continue;
    std::fprintf(f,
                 "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,"
                 "\"tid\":%d,\"ts\":%lld,\"dur\":%lld,\"args\":{\"op\":%llu",
                 s.name, layer_of(s.name), pid, s.site,
                 static_cast<long long>(s.begin_us),
                 static_cast<long long>(s.duration_us()),
                 static_cast<unsigned long long>(op[i]));
    if (it != spans.stamps.end()) {
      std::fprintf(f, ",\"wall_begin_us\":%.3f,\"wall_dur_us\":%.3f",
                   static_cast<double>(it->second.wall_begin_ns) / 1e3,
                   static_cast<double>(it->second.wall_end_ns -
                                       it->second.wall_begin_ns) /
                       1e3);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace music::e2e
