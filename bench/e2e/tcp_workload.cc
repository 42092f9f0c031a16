// tcp-loopback: three musicd children on 127.0.0.1 and one generator
// thread in this process, open-loop except for the read-throughput phase.
// The generator's core::MusicClient enters at site 0 (as the REST gateway
// does) over three TcpTransport connections, through a bench-side
// forwarding Transport that counts what the net layer carries.  No delay is
// injected: latency here is processor time plus loopback.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "e2e.h"
#include "net/event_loop.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "sim/future.h"
#include "wire/codec.h"

namespace music::e2e {
namespace {

constexpr uint64_t kWorldSeed = 1;
constexpr int kSites = 3;
/// musicd's construction order gives its MUSIC replicas node ids 3..5.
constexpr net::PeerId kMusicNodeBase = 3;
constexpr net::PeerId kClientNodeBase = 100;
/// Sections take these keys in rotation (reads pick any), so in-flight
/// sections never share a key: the latency point measures the fleet, not
/// lock convoys.
constexpr int64_t kKeys = 5000;
/// The latency points.  Sections at a third of the fleet's capacity: at
/// two thirds (2000/s) a section's p99 moved 14-33% between runs, at
/// 1000/s 4-6%.  Reads at 8000/s, two thirds of what the generator can
/// issue: the less the processes sleep between reads, the less a read
/// waits for one to wake.  read_p50 moved 20-38% between runs at 2000/s,
/// 2% at 5000/s and 1% at 8000/s; read_p99 12% at 5000/s and 5% at 8000/s.
constexpr double kSectionRate = 1000;
constexpr double kReadRate = 8000;
/// The latency points run in this many turns each, and their percentiles
/// are taken per window of this length (README.md, "tcp latency").
constexpr int kRounds = 10;
constexpr int64_t kWindowUs = 100'000;
/// Closed-loop readers of the read-throughput phase: enough to keep the
/// generator process busy.
constexpr int kReaders = 16;

// ---- The fleet ---------------------------------------------------------------

/// Ports the kernel hands out for 127.0.0.1:0, released for the children to
/// bind (a concurrent process could take one first; start() then fails and
/// the caller retries with fresh ports).
std::vector<uint16_t> free_ports(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
      if (fd >= 0) close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(a.sin_port));
  }
  for (int fd : fds) close(fd);
  return ports;
}

std::string join(const std::array<uint16_t, kSites>& p) {
  return std::to_string(p[0]) + "," + std::to_string(p[1]) + "," +
         std::to_string(p[2]);
}

/// Three musicd processes, one per site.  Stopped (SIGTERM, then SIGKILL
/// after 3 s) and reaped on destruction.
class Fleet {
 public:
  Fleet() = default;
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  bool start(const std::string& musicd) {
    std::vector<uint16_t> ports = free_ports(2 * kSites);
    if (ports.size() != 2 * kSites) return false;
    for (int s = 0; s < kSites; ++s) {
      store_ports_[s] = ports[s];
      music_ports_[s] = ports[kSites + s];
    }
    std::string sp = join(store_ports_), mp = join(music_ports_);
    for (int s = 0; s < kSites; ++s) {
      pid_t pid = fork();
      if (pid < 0) return false;
      if (pid == 0) {
        // Die with the bench, whatever kills it.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        int devnull = open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
          dup2(devnull, STDOUT_FILENO);
          dup2(devnull, STDERR_FILENO);
        }
        std::string site = std::to_string(s);
        execl(musicd.c_str(), "musicd", "--site", site.c_str(),
              "--store-ports", sp.c_str(), "--music-ports", mp.c_str(),
              static_cast<char*>(nullptr));
        _exit(127);
      }
      pids_[s] = pid;
    }
    return true;
  }

  /// True while every child is running.
  bool alive() {
    for (pid_t& pid : pids_) {
      if (pid <= 0) return false;
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return false;
      }
    }
    return true;
  }

  void stop() {
    for (pid_t pid : pids_) {
      if (pid > 0) kill(pid, SIGTERM);
    }
    int64_t deadline = wall_ns() + 3'000'000'000;
    for (pid_t& pid : pids_) {
      while (pid > 0) {
        int status = 0;
        pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid || r < 0) {
          pid = -1;
        } else if (wall_ns() > deadline) {
          kill(pid, SIGKILL);
          waitpid(pid, &status, 0);
          pid = -1;
        } else {
          usleep(2000);
        }
      }
    }
  }

  pid_t pid(int s) const { return pids_[s]; }
  uint16_t music_port(int s) const { return music_ports_[s]; }

 private:
  std::array<pid_t, kSites> pids_{-1, -1, -1};
  std::array<uint16_t, kSites> store_ports_{}, music_ports_{};
};

// ---- The forwarding transport ---------------------------------------------------

/// What the bench sees of the net layer.  The codec fields are filled only
/// in traced runs, by encoding and decoding copies of the forwarded frames.
struct RpcStats {
  uint64_t requests = 0, reads = 0, polls = 0, grants = 0;
  bool record_rtt = false;
  Series rtt;
  bool codec = false;
  BenchSpans* spans = nullptr;  // wall stamps of the rpc spans (traced runs)
  uint64_t frames = 0, frame_bytes = 0;
  int64_t encode_ns = 0, decode_ns = 0;
};

template <typename Msg>
void time_codec(RpcStats& st, const Msg& msg,
                std::string (*encode)(uint64_t, const Msg&, uint8_t, uint16_t),
                std::optional<Msg> (*parse)(std::string_view)) {
  int64_t t0 = wall_ns();
  std::string frame = encode(1, msg, wire::kWireVersionMax, 0);
  int64_t t1 = wall_ns();
  wire::FrameView fv;
  bool ok = wire::peel_frame(frame.data(), frame.size(), fv) ==
                wire::FrameStatus::Ok &&
            parse(fv.payload).has_value();
  int64_t t2 = wall_ns();
  if (!ok) return;
  ++st.frames;
  st.frame_bytes += frame.size();
  st.encode_ns += t1 - t0;
  st.decode_ns += t2 - t1;
}

/// Forwards client-seam calls to the real TcpTransport, counting requests
/// by kind and timing each round trip on the host clock.  In traced runs it
/// also opens an "rpc.request" span under the calling client span.
class CountingTransport final : public net::Transport {
 public:
  CountingTransport(sim::Simulation& sim, net::Transport& inner, RpcStats& st)
      : sim_(sim), inner_(inner), st_(st) {}

  sim::Future<wire::Response> invoke(net::PeerId self, net::PeerId peer,
                                     wire::Request req,
                                     size_t overhead_bytes) override {
    ++st_.requests;
    bool acquire = req.op == wire::Request::Op::AcquireLock;
    if (acquire) ++st_.polls;
    if (req.op == wire::Request::Op::GetEventual) ++st_.reads;
    if (st_.codec) {
      time_codec<wire::Request>(st_, req, wire::encode_request,
                                wire::parse_request);
    }
    obs::SpanId span = 0;
    if (obs::Tracer* t = sim_.tracer()) {
      span = t->begin("rpc.request", sim_.now(), sim_.trace_ctx(), 0, peer);
    }
    sim::Promise<wire::Response> done(sim_);
    RpcStats* st = &st_;
    sim::Simulation* sim = &sim_;
    int64_t t0 = wall_ns();
    inner_.invoke(self, peer, std::move(req), overhead_bytes)
        .on_value([done, st, sim, t0, acquire, span](const wire::Response& r) {
          if (st->record_rtt) st->rtt.add(t0 / 1000, (wall_ns() - t0) / 1000);
          if (acquire && r.status == OpStatus::Ok) ++st->grants;
          if (st->codec) {
            time_codec<wire::Response>(*st, r, wire::encode_response,
                                       wire::parse_response);
          }
          if (span != 0 && sim->tracer() != nullptr) {
            sim->tracer()->end(span, sim->now());
            if (st->spans != nullptr) {
              st->spans->stamps[span] = BenchSpans::Stamp{0, t0, wall_ns()};
            }
          }
          done.set_value(r);
        });
    return done.future();
  }

  sim::Future<wire::StoreReply> store_call(
      net::PeerId self, net::PeerId peer, wire::StoreRequest msg, size_t bytes,
      size_t reply_bytes, size_t overhead_bytes, sim::MsgKind kind,
      sim::MsgKind reply_kind) override {
    return inner_.store_call(self, peer, std::move(msg), bytes, reply_bytes,
                             overhead_bytes, kind, reply_kind);
  }
  bool peer_up(net::PeerId peer) const override {
    return inner_.peer_up(peer);
  }
  bool reachable(net::PeerId self, net::PeerId peer) const override {
    return inner_.reachable(self, peer);
  }

 private:
  sim::Simulation& sim_;
  net::Transport& inner_;
  RpcStats& st_;
};

// ---- One connected session ---------------------------------------------------------

/// The bench side of one fleet: event loop, transport, and one client per
/// site (site 0's carries the workload; the others only prove readiness).
struct Session {
  sim::Simulation sim{kWorldSeed};
  net::EventLoop loop{sim};
  net::TcpTransport tcp{loop};
  RpcStats rpc;
  CountingTransport counting{sim, tcp, rpc};
  std::vector<std::unique_ptr<core::MusicClient>> clients;

  explicit Session(const Fleet& fleet, core::ClientConfig cfg = {}) {
    for (int s = 0; s < kSites; ++s) {
      tcp.route(kMusicNodeBase + s, "127.0.0.1", fleet.music_port(s));
    }
    for (int site = 0; site < kSites; ++site) {
      std::vector<net::PeerId> peers{kMusicNodeBase + site};
      for (int s = 0; s < kSites; ++s) {
        if (s != site) peers.push_back(kMusicNodeBase + s);
      }
      clients.push_back(std::make_unique<core::MusicClient>(
          sim, counting, peers, cfg, site, kClientNodeBase + site));
    }
  }
};

/// Spawns a fleet and waits until every connection is up and a section
/// succeeds at each site.  Probe sections use fresh keys, one attempt per
/// call and a short request timeout: one sent before musicd's own routes
/// connected is abandoned and retried on a new key rather than waited out.
bool bring_up(Fleet& fleet, std::unique_ptr<Session>& session,
              const std::string& musicd) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    session.reset();
    fleet.stop();
    if (!fleet.start(musicd)) continue;
    core::ClientConfig probe_cfg;
    probe_cfg.request_timeout = sim::ms(100);
    probe_cfg.max_attempts = 1;
    auto probe = std::make_unique<Session>(fleet, probe_cfg);
    OpContext ctx;
    ctx.sim = &probe->sim;
    ctx.wall_clock = true;
    int64_t deadline = wall_ns() + 10'000'000'000;
    int ready = 0;
    for (int n = 0; ready < kSites && wall_ns() < deadline && fleet.alive();
         ++n) {
      bool up = true;
      for (int s = 0; s < kSites; ++s) {
        up = up && probe->tcp.peer_up(kMusicNodeBase + s);
      }
      if (!up) {
        probe->loop.poll_once(5);
        continue;
      }
      Tally t;
      std::string key = "ready/" + std::to_string(ready) + "/" +
                        std::to_string(n);
      sim::spawn(probe->sim,
                 run_op(&ctx, probe->clients[static_cast<size_t>(ready)].get(),
                        key, false, ctx.now_us(), &t));
      while (ctx.inflight > 0 && wall_ns() < deadline) {
        probe->loop.poll_once(5);
      }
      if (t.sections_ok == 1) ++ready;
    }
    if (ready == kSites) {
      session = std::make_unique<Session>(fleet);
      // The measured session's own three connections.
      while (wall_ns() < deadline) {
        bool up = true;
        for (int s = 0; s < kSites; ++s) {
          up = up && session->tcp.peer_up(kMusicNodeBase + s);
        }
        if (up) return true;
        session->loop.poll_once(5);
      }
    }
  }
  session.reset();
  return false;
}

// ---- The open-loop generator --------------------------------------------------------

/// What one or more phases added up to.
struct PhaseResult {
  double secs = 0.0;
  Tally tally;
  Series lag;                // how late each arrival was issued
  int64_t unfinished = 0;    // ops still in flight after a drain
  uint64_t in_time = 0;      // ops completed before the phase's end
  // Costs over the phases and their drains.
  double self_cpu_s = 0.0;
  uint64_t events = 0, allocs = 0;
  double wall_s = 0.0;
  std::array<ProcSample, kSites> musicd{};
  uint64_t requests = 0, reads = 0, polls = 0, grants = 0;
  uint64_t attempts = 0, retries = 0;
};

/// Poisson arrivals at a fixed rate, issued from a timerfd on the session's
/// event loop so they are not held to the loop's millisecond sim timers.
/// A phase issues only sections (keys in rotation) or only eventual reads
/// (keys drawn uniformly); an op's latency runs from its due time.  The
/// arrivals of a phase are conditioned on their count: exactly rate x secs
/// of them, spread as a Poisson process's are given that count, so a
/// phase's offered load does not depend on the seed.  The generator also
/// runs the closed loop of the read-throughput phase.
class Generator {
 public:
  Generator(Session& s, OpContext& ctx, uint64_t seed, int64_t keys)
      : s_(s), ctx_(ctx), rng_(seed * 0x9E3779B97F4A7C15ull + 0x7C9),
        keys_(keys),
        tfd_(timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
    s_.loop.add_fd(tfd_, EPOLLIN, [this](uint32_t) { on_timer(); });
  }
  ~Generator() {
    s_.loop.del_fd(tfd_);
    close(tfd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// A record for phases to add to.  An op the drain gave up on still
  /// points at its phase's tally, so every record lives as long as the
  /// generator.
  PhaseResult& record() { return phases_.emplace_back(); }

  /// Adds to `p` section arrivals at `rate` for `secs`, then the drain.
  void sections(double rate, double secs, const Fleet& fleet, PhaseResult& p) {
    mode_ = Mode::Sections;
    run_phase(rate, secs, fleet, p);
  }

  /// Adds to `p` eventual reads at `rate` for `secs`, then the drain.
  void reads(double rate, double secs, const Fleet& fleet, PhaseResult& p) {
    mode_ = Mode::Reads;
    run_phase(rate, secs, fleet, p);
  }

  /// The warm-up: one section on every key at `rate`, so every table row
  /// and Paxos slot exists before anything is timed.
  const PhaseResult& sweep(double rate, const Fleet& fleet) {
    mode_ = Mode::Sweep;
    PhaseResult& p = record();
    run_phase(rate, static_cast<double>(keys_) / rate + 1.0, fleet, p);
    return p;
  }

  /// Closed loop: `readers` clients each issuing eventual reads back to
  /// back for `secs`.  PhaseResult::in_time counts the reads completed
  /// within them.
  const PhaseResult& closed_reads(int readers, double secs,
                                  const Fleet& fleet) {
    mode_ = Mode::Reads;
    PhaseResult& p = record();
    p.secs = secs;
    snapshot(p, fleet, -1);
    int64_t start = wall_ns();
    int64_t end = start + static_cast<int64_t>(secs * 1e9);
    for (int i = 0; i < readers; ++i) sim::spawn(s_.sim, reader(this, end, &p));
    while (wall_ns() < end) s_.loop.poll_once(10);
    p.in_time = p.tally.reads_ok;
    finish(p, start, fleet);
    return p;
  }

 private:
  enum class Mode { Sweep, Sections, Reads };

  static sim::Task<void> reader(Generator* g, int64_t end_ns, PhaseResult* p) {
    while (wall_ns() < end_ns) {
      Key key = "t/k";
      key += std::to_string(g->rng_.uniform_int(0, g->keys_ - 1));
      co_await run_op(&g->ctx_, g->s_.clients[0].get(), std::move(key), true,
                      wall_ns() / 1000, &p->tally);
    }
  }

  void run_phase(double rate, double secs, const Fleet& fleet,
                 PhaseResult& p) {
    p.secs += secs;
    phase_ = &p;
    // Arrival offsets: the first n of n + 1 exponential gaps, scaled so the
    // n + 1 of them span the phase.
    auto n = static_cast<size_t>(std::llround(rate * secs));
    offsets_ns_.clear();
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += rng_.exponential(1.0);
      offsets_ns_.push_back(sum);
    }
    double span = sum + rng_.exponential(1.0);
    for (double& o : offsets_ns_) o *= secs * 1e9 / span;
    next_ = 0;
    snapshot(p, fleet, -1);
    int64_t start = wall_ns();
    start_ns_ = start;
    p.tally.set_windows(start / 1000, kWindowUs);
    issuing_ = true;
    arm();
    while (issuing_) s_.loop.poll_once(10);
    finish(p, start, fleet);
    phase_ = nullptr;
  }

  /// Lets the ops in flight finish (5 s at most; the rest count as failed)
  /// and adds the phase's counters to `p`.
  void finish(PhaseResult& p, int64_t start, const Fleet& fleet) {
    int64_t drain_end = wall_ns() + 5'000'000'000;
    while (ctx_.inflight > 0 && wall_ns() < drain_end) s_.loop.poll_once(5);
    p.unfinished += ctx_.inflight;
    (mode_ == Mode::Reads ? p.tally.reads_failed : p.tally.sections_failed) +=
        static_cast<uint64_t>(ctx_.inflight);
    p.wall_s += static_cast<double>(wall_ns() - start) / 1e9;
    snapshot(p, fleet, +1);
  }

  /// Adds (sign +1) or subtracts (-1) the cumulative counters, so after
  /// both calls the fields hold the phase's deltas.
  void snapshot(PhaseResult& p, const Fleet& fleet, int sign) {
    auto acc = [sign](auto& field, auto v) { field += sign * v; };
    acc(p.self_cpu_s, self_cpu_s());
    acc(p.events, s_.sim.events_run());
    acc(p.allocs, allocs_now());
    for (int s = 0; s < kSites; ++s) {
      ProcSample ps;
      read_proc(fleet.pid(s), ps);
      acc(p.musicd[s].user_s, ps.user_s);
      acc(p.musicd[s].sys_s, ps.sys_s);
      acc(p.musicd[s].ctxsw, ps.ctxsw);
    }
    acc(p.requests, s_.rpc.requests);
    acc(p.reads, s_.rpc.reads);
    acc(p.polls, s_.rpc.polls);
    acc(p.grants, s_.rpc.grants);
    const core::ClientStats& cs = s_.clients[0]->stats();
    acc(p.attempts, cs.attempts);
    acc(p.retries, cs.retries);
  }

  /// Due time of the next arrival.
  int64_t due_ns() const {
    return start_ns_ + static_cast<int64_t>(offsets_ns_[next_]);
  }

  void arm() {
    if (next_ >= offsets_ns_.size()) {
      issuing_ = false;
      return;
    }
    int64_t due = due_ns();
    itimerspec its{};
    its.it_value.tv_sec = due / 1'000'000'000;
    its.it_value.tv_nsec = due % 1'000'000'000;
    timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
  }

  void on_timer() {
    uint64_t expirations = 0;
    [[maybe_unused]] ssize_t n = read(tfd_, &expirations, sizeof expirations);
    if (phase_ == nullptr || !issuing_) return;
    int64_t now = wall_ns();
    for (; next_ < offsets_ns_.size() && due_ns() <= now; ++next_) {
      if (mode_ == Mode::Sweep && sections_ >= keys_) {
        issuing_ = false;
        return;
      }
      int64_t due = due_ns();
      phase_->lag.add(due / 1000, (now - due) / 1000);
      bool read = mode_ == Mode::Reads;
      Key key = "t/k";
      key += std::to_string(read ? rng_.uniform_int(0, keys_ - 1)
                                 : sections_++ % keys_);
      sim::spawn(s_.sim, run_op(&ctx_, s_.clients[0].get(), std::move(key),
                                read, due / 1000, &phase_->tally));
    }
    arm();
  }

  Session& s_;
  OpContext& ctx_;
  sim::Rng rng_;
  int64_t keys_;  // sections rotate over these, reads draw from them
  int tfd_;
  std::deque<PhaseResult> phases_;  // stable addresses
  PhaseResult* phase_ = nullptr;
  Mode mode_ = Mode::Sections;
  int64_t start_ns_ = 0;
  std::vector<double> offsets_ns_;  // arrivals of the phase, from start_ns_
  size_t next_ = 0;                 // the next arrival to issue
  int64_t sections_ = 0;  // sections issued: the key rotation
  bool issuing_ = false;
};

/// Per-layer metrics of one phase (the section latency point).
void report_layers(const PhaseResult& p, MetricSet& out) {
  const Tally& t = p.tally;
  double ops = static_cast<double>(t.ops());
  double sections = static_cast<double>(t.sections_ok + t.sections_failed);
  double musicd_cpu = 0.0;
  for (int s = 0; s < kSites; ++s) {
    std::string pre = "musicd.s" + std::to_string(s);
    out.set(pre + ".user_us_per_op", per(p.musicd[s].user_s * 1e6, ops), "us");
    out.set(pre + ".sys_us_per_op", per(p.musicd[s].sys_s * 1e6, ops), "us");
    musicd_cpu += p.musicd[s].user_s + p.musicd[s].sys_s;
  }
  out.set("musicd.s0.ctxsw_per_op",
          per(static_cast<double>(p.musicd[0].ctxsw), ops), "count");
  out.set("sim.events_per_op", per(static_cast<double>(p.events), ops),
          "count");
  out.set("sim.events_per_wall_s", per(static_cast<double>(p.events), p.wall_s),
          "1/s");
  out.set("mem.allocs_per_op", per(static_cast<double>(p.allocs), ops),
          "count");
  out.set("cpu.us_per_op", per((p.self_cpu_s + musicd_cpu) * 1e6, ops), "us");
  out.set("gen.cpu_us_per_op", per(p.self_cpu_s * 1e6, ops), "us");
  out.set("gen.lag_p99_ms", p.lag.percentile_ms(99), "ms");
  out.set("rpc.per_section",
          per(static_cast<double>(p.requests - p.reads), sections), "count");
  out.set("core.polls_per_section", per(static_cast<double>(p.polls), sections),
          "count");
  out.set("core.grant_ratio",
          per(static_cast<double>(p.grants), static_cast<double>(p.polls)),
          "ratio");
  out.set("client.create_p50_ms", t.create.percentile_ms(50), "ms");
  out.set("client.acquire_p50_ms", t.acquire.percentile_ms(50), "ms");
  out.set("client.get_p50_ms", t.get.percentile_ms(50), "ms");
  out.set("client.put_p50_ms", t.put.percentile_ms(50), "ms");
  out.set("client.release_p50_ms", t.release.percentile_ms(50), "ms");
  out.set("client.acquire_p99_ms", t.acquire.percentile_ms(99), "ms");
  out.set("client.attempts_per_op", per(static_cast<double>(p.attempts), ops),
          "count");
  out.set("client.retries_per_op", per(static_cast<double>(p.retries), ops),
          "count");
}

}  // namespace

bool run_tcp_workload(const Options& opt, MetricSet& out) {
  signal(SIGPIPE, SIG_IGN);
  bool traced = !opt.trace_path.empty();
  // Phase lengths, after a warm-up sweep of every key: the section and the
  // read latency points (in kRounds turns each) and the read-throughput
  // phase: 12, 8 and 4 s at the default --seconds of 25.
  double scale = opt.seconds / 25;
  double latency_s = opt.smoke ? 1.0 : 12 * scale;
  double read_s = opt.smoke ? 0.5 : 8 * scale;
  double throughput_s = opt.smoke ? 0.5 : 4 * scale;

  // Set-up: spawn until every route is up and a section succeeds at each
  // site, repeated; the median is reported and the last fleet measured.
  // The previous fleet is stopped before the clock starts.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  Fleet fleet;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    fleet.stop();
    int64_t t0 = wall_ns();
    if (!bring_up(fleet, session, opt.musicd)) {
      std::fprintf(stderr, "bench_e2e: musicd fleet did not come up (%s)\n",
                   opt.musicd.c_str());
      return false;
    }
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  out.set("setup_s", median(setup_s), "s");

  OpContext ctx;
  ctx.sim = &session->sim;
  ctx.wall_clock = true;
  // Destroyed before the session whose event loop it registers with.
  auto gen = std::make_unique<Generator>(*session, ctx, opt.seed,
                                         opt.smoke ? kKeys / 5 : kKeys);
  uint64_t attempted = 0, failed = 0;
  auto count = [&](const PhaseResult& p) {
    attempted += p.tally.ops();
    failed += p.tally.failed();
  };
  count(gen->sweep(2500, fleet));

  // The two latency points take turns, so each samples the whole run's
  // stretches of host load rather than a block of its own.
  PhaseResult& lat = gen->record();
  PhaseResult& rd = gen->record();
  double section_slice_s = (traced ? latency_s / 2 : latency_s) / kRounds;
  for (int i = 0; i < kRounds; ++i) {
    session->rpc.record_rtt = true;
    gen->sections(kSectionRate, section_slice_s, fleet, lat);
    session->rpc.record_rtt = false;
    gen->reads(kReadRate, read_s / kRounds, fleet, rd);
  }
  count(lat);
  count(rd);
  const Tally& t = lat.tally;
  out.set("section_p50_ms", t.section.quiet_ms(50), "ms");
  out.set("section_p99_ms", t.section.quiet_ms(99), "ms");
  out.set("read_p50_ms", rd.tally.read.quiet_ms(50), "ms");
  out.set("read_p99_ms", rd.tally.read.quiet_ms(99), "ms");
  // The throughput an open loop delivers: the offered rate while the fleet
  // keeps up, less when it falls behind or ops fail.  A check of the run;
  // the fleet's capacity is max_rate_per_s.
  out.set("sections_per_s", static_cast<double>(t.sections_ok) / lat.wall_s,
          "1/s");
  // Capacity by the utilization law: each musicd runs one thread, so the
  // fleet saturates when its busiest process has a core's worth of CPU
  // time per second.  Sections completed per CPU second of that process is
  // the rate where that happens.  Measured, the fleet near that rate is
  // bistable, so an SLO ladder or a closed loop only samples host stalls
  // (README.md, "Capacity").
  double busiest_cpu_s = 0.0;
  for (const ProcSample& m : lat.musicd) {
    busiest_cpu_s = std::max(busiest_cpu_s, m.user_s + m.sys_s);
  }
  out.set("max_rate_per_s",
          per(static_cast<double>(t.sections_ok), busiest_cpu_s), "1/s");
  report_layers(lat, out);
  out.set("client.read_p50_ms", rd.tally.read_call.percentile_ms(50), "ms");
  // Memory after a fixed amount of work: musicd holds every pending
  // request's timeout timer, so its peak grows with the ops it has served
  // and the later phases, whose op counts vary, would blur the comparison.
  double rss = 0.0;
  for (int s = 0; s < kSites; ++s) rss += peak_rss_mb(fleet.pid(s));
  out.set("peak_rss_mb", rss, "MB");
  out.set("rpc.rtt_p50_us", session->rpc.rtt.percentile_ms(50) * 1000, "us");
  out.set("rpc.rtt_p99_us", session->rpc.rtt.percentile_ms(99) * 1000, "us");

  if (!traced) {
    // Read throughput: closed-loop readers keep the generator process, which
    // runs the client library, busy; the fleet is at a fifth of a core.
    const PhaseResult& cr = gen->closed_reads(kReaders, throughput_s, fleet);
    count(cr);
    out.set("ops_per_wall_s", static_cast<double>(cr.in_time) / cr.secs,
            "1/s");
  } else {
    // The traced half of the section latency point, after the turns: the
    // tracer on the bench's loop and the codec timed on copies of every
    // forwarded frame.
    BenchSpans spans;
    ctx.spans = &spans;
    session->rpc.codec = true;
    session->rpc.spans = &spans;
    session->sim.set_tracer(&spans.tracer);
    PhaseResult& tp = gen->record();
    gen->sections(kSectionRate, latency_s / 2, fleet, tp);
    session->sim.set_tracer(nullptr);
    session->rpc.codec = false;
    session->rpc.spans = nullptr;
    ctx.spans = nullptr;
    count(tp);
    std::map<std::string, double> self = self_ms_per_section(spans, true);
    out.set("trace.client.self_ms_per_section", self["client"], "ms");
    out.set("trace.rpc.self_ms_per_section", self["rpc"], "ms");
    double sections =
        static_cast<double>(tp.tally.sections_ok + tp.tally.sections_failed);
    const RpcStats& r = session->rpc;
    out.set("wire.bytes_per_section",
            per(static_cast<double>(r.frame_bytes), sections), "B");
    out.set("wire.encode_ns_per_frame",
            per(static_cast<double>(r.encode_ns), static_cast<double>(r.frames)),
            "ns");
    out.set("wire.decode_ns_per_frame",
            per(static_cast<double>(r.decode_ns), static_cast<double>(r.frames)),
            "ns");
    double untraced = per(lat.self_cpu_s, static_cast<double>(lat.tally.ops()));
    double with = per(tp.self_cpu_s, static_cast<double>(tp.tally.ops()));
    out.set("trace.overhead_frac", per(with, untraced) - 1.0, "ratio");
    out.set("trace.spans", static_cast<double>(spans.tracer.spans().size()),
            "count");
    if (!write_trace_events(spans, opt.index, opt.trace_path)) return false;
  }

  double failed_frac =
      per(static_cast<double>(failed), static_cast<double>(attempted));
  out.set("failed_frac", failed_frac, "ratio");
  out.set("ok_frac", 1.0 - failed_frac, "ratio");
  out.set("ops.attempted", static_cast<double>(attempted), "count");
  out.set("ops.failed", static_cast<double>(failed), "count");
  out.set("check.violations", static_cast<double>(ctx.check.violations()),
          "count");
  bool fleet_ok = fleet.alive();
  gen.reset();
  session.reset();
  fleet.stop();
  if (!fleet_ok) {
    std::fprintf(stderr, "bench_e2e: a musicd child died during the run\n");
    return false;
  }
  return true;
}

}  // namespace music::e2e
