// bench_e2e: one command for the repository's end-to-end benchmark.
//
//   bench_e2e --seed N [--workload W|all] [--trace FILE] [--smoke]
//             [--seconds S] [--out FILE] [--musicd PATH]
//
// Runs the selected workloads one after another, each in its own child
// process (never two at once), prints every metric as "workload/name value
// unit", writes one result JSON with host metadata (default BENCH_e2e.json)
// and exits non-zero if a workload failed to run or any correctness check
// fails.  With --trace the run is the traced one: per-layer span metrics are
// added and the spans of every workload are merged into FILE as a Chrome
// trace.  bench/e2e/README.md defines every metric.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.h"

#ifndef MUSIC_E2E_MUSICD
#define MUSIC_E2E_MUSICD "musicd"
#endif
#ifndef MUSIC_E2E_BUILD_TYPE
#define MUSIC_E2E_BUILD_TYPE "unknown"
#endif
#ifndef MUSIC_E2E_GIT_SHA
#define MUSIC_E2E_GIT_SHA "unknown"
#endif

namespace {

using music::e2e::MetricSet;
using music::e2e::Options;

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --seed N [--workload W|all] [--trace FILE] "
               "[--smoke] [--seconds S] [--out FILE] [--musicd PATH]\n"
               "workloads:");
  for (const std::string& w : music::e2e::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

struct Outcome {
  std::string workload;
  bool ran = false;
  double wall_s = 0.0;
  MetricSet metrics;
};

/// Child side: runs one workload and writes "name\tvalue\tunit" lines, then
/// "ok\t1|0", to `fd`.
[[noreturn]] void child_main(const Options& opt, int fd) {
  MetricSet m;
  bool ok = opt.workload == "tcp-loopback"
                ? music::e2e::run_tcp_workload(opt, m)
                : music::e2e::run_sim_workload(opt, m);
  std::string text;
  char buf[512];
  for (const MetricSet::Entry& e : m.entries()) {
    std::snprintf(buf, sizeof buf, "%s\t%.17g\t%s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    text += buf;
  }
  text += ok ? "ok\t1\n" : "ok\t0\n";
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  close(fd);
  std::fflush(nullptr);
  _exit(ok ? 0 : 1);
}

Outcome run_child(const Options& opt) {
  Outcome o;
  o.workload = opt.workload;
  int fds[2];
  if (pipe(fds) != 0) return o;
  std::fflush(nullptr);
  int64_t t0 = music::e2e::wall_ns();
  music::e2e::HostTicks h0 = music::e2e::host_ticks();
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return o;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive an interrupted bench
    close(fds[0]);
    child_main(opt, fds[1]);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  o.wall_s = static_cast<double>(music::e2e::wall_ns() - t0) / 1e9;
  // Other guests' load on the host, which slows every host-clock metric.
  music::e2e::HostTicks h1 = music::e2e::host_ticks();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t a = line.find('\t');
    size_t b = line.find('\t', a + 1);
    if (a == std::string::npos) continue;
    std::string name = line.substr(0, a);
    if (name == "ok") {
      o.ran = line.substr(a + 1) == "1";
      continue;
    }
    if (b == std::string::npos) continue;
    o.metrics.set(name, std::strtod(line.c_str() + a + 1, nullptr),
                  line.substr(b + 1));
  }
  o.metrics.set("host.steal_frac",
                 music::e2e::per(static_cast<double>(h1.steal - h0.steal),
                                 static_cast<double>(h1.total - h0.total)),
                 "ratio");
  o.ran = o.ran && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

#if defined(__GNUC__) && !defined(__clang__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;  // clang's names itself
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool write_result(const std::string& path, const Options& opt,
                  const std::vector<Outcome>& outcomes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"e2e\",\n  \"host\": {\n");
  std::fprintf(f, "    \"nproc\": %ld,\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(f, "    \"cpu_model\": %s,\n", json_string(cpu_model()).c_str());
  std::fprintf(f, "    \"compiler\": %s,\n", json_string(kCompiler).c_str());
  std::fprintf(f, "    \"build_type\": %s,\n",
               json_string(MUSIC_E2E_BUILD_TYPE).c_str());
  std::fprintf(f, "    \"git_sha\": %s,\n",
               json_string(MUSIC_E2E_GIT_SHA).c_str());
  std::fprintf(f, "    \"seed\": %llu,\n",
               static_cast<unsigned long long>(opt.seed));
  std::fprintf(f, "    \"seconds\": %g,\n", opt.seconds);
  std::fprintf(f, "    \"smoke\": %s,\n", opt.smoke ? "true" : "false");
  std::fprintf(f, "    \"traced\": %s\n  },\n  \"workloads\": {",
               opt.trace_path.empty() ? "false" : "true");
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    std::fprintf(f, "%s\n    %s: {\n      \"ran\": %s,\n      \"wall_s\": %.3f,\n"
                 "      \"metrics\": {",
                 i == 0 ? "" : ",", json_string(o.workload).c_str(),
                 o.ran ? "true" : "false", o.wall_s);
    const auto& entries = o.metrics.entries();
    for (size_t j = 0; j < entries.size(); ++j) {
      std::fprintf(f, "%s\n        %s: {\"value\": %.17g, \"unit\": %s}",
                   j == 0 ? "" : ",", json_string(entries[j].name).c_str(),
                   entries[j].value, json_string(entries[j].unit).c_str());
    }
    std::fprintf(f, "\n      }\n    }");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

/// Merges the per-workload event files into one Chrome trace.
bool merge_trace(const std::string& path, const std::vector<Outcome>& outcomes,
                 const std::vector<int>& indices) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::fprintf(f,
                 "%s\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                 "\"args\":{\"name\":%s}}",
                 first ? "" : ",", indices[i],
                 json_string(outcomes[i].workload).c_str());
    first = false;
    std::string part = path + "." + outcomes[i].workload;
    std::ifstream in(part);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) std::fprintf(f, ",\n%s", line.c_str());
    }
    std::remove(part.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.musicd = MUSIC_E2E_MUSICD;
  std::string workload = "all";
  std::string out_path = "BENCH_e2e.json";
  std::string trace_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--out" && has_value) {
      out_path = argv[++i];
    } else if (a == "--musicd" && has_value) {
      opt.musicd = argv[++i];
    } else {
      return usage();
    }
  }
  const std::vector<std::string>& names = music::e2e::workload_names();
  std::vector<int> selected;
  for (size_t i = 0; i < names.size(); ++i) {
    if (workload == "all" || workload == names[i]) {
      selected.push_back(static_cast<int>(i));
    }
  }
  if (!have_seed || selected.empty() || !(opt.seconds > 0)) return usage();

  std::vector<Outcome> outcomes;
  bool ok = true;
  for (int idx : selected) {
    Options o = opt;
    o.workload = names[static_cast<size_t>(idx)];
    o.index = idx;
    if (!trace_path.empty()) o.trace_path = trace_path + "." + o.workload;
    Outcome r = run_child(o);
    if (!r.ran) {
      std::fprintf(stderr, "bench_e2e: workload %s failed to run\n",
                   o.workload.c_str());
      ok = false;
    }
    if (r.metrics.get("check.violations") > 0) {
      std::fprintf(stderr, "bench_e2e: workload %s: %.0f correctness "
                   "violations\n", o.workload.c_str(),
                   r.metrics.get("check.violations"));
      ok = false;
    }
    for (const MetricSet::Entry& e : r.metrics.entries()) {
      std::printf("%s/%s %.6g %s\n", r.workload.c_str(), e.name.c_str(),
                  e.value, e.unit.c_str());
    }
    std::fflush(stdout);
    outcomes.push_back(std::move(r));
  }
  if (!write_result(out_path, opt, outcomes)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
    ok = false;
  }
  if (!trace_path.empty()) {
    if (merge_trace(trace_path, outcomes, selected)) {
      std::printf("bench_e2e: wrote trace %s\n", trace_path.c_str());
    } else {
      ok = false;
    }
  }
  std::printf("bench_e2e: wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
