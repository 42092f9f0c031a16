// bench_scenarios: runs declarative scenario specs (scenarios/*.scn) as a
// cell-grid sweep — the eval-harness half of the scenario matrix.  The same
// binary doubles as the ctest family: --ctest caps the grid (1 seed, short
// windows) so `ctest -L scenario` stays tier-1 fast while the nightly job
// runs specs as written.
//
//   bench_scenarios [options] FILE.scn | DIR ...
//     --ctest            reduced grid: seeds<=1, warmup<=1s, measure<=3s
//     --threads N        worker threads (default MUSIC_BENCH_THREADS or all)
//     --seeds N          cap seeds per grid point
//     --base-seed N      override the spec's base_seed (ctest seed axis)
//     --warmup-sec S     cap warmup (fractional ok)
//     --measure-sec S    cap the measurement window
//     --max-cells N      truncate the expanded grid
//     --par-sites N      run music/mscp cells under PDES with N site-lane
//                        workers (opt-in; changes checksums vs classic but
//                        is worker-count invariant)
//     --out-dir D        where <scenario>.csv / <scenario>.html land
//     --trace-out P      write the run's Chrome trace_event JSON to P
//     --metrics-out P    write the run's counters/histograms to P: CSV when
//                        P ends in .csv, JSON otherwise
//
// The two export flags trace one world, so they need one spec whose
// effective grid (after the caps and --max-cells) is exactly one cell, and
// the classic kernel (no --par-sites).
//
// MUSIC_SCENARIO_SEEDS overrides the seed cap (like MUSIC_FAULT_SEEDS for
// the fault matrix).  Exit: 0 all cells ok, 1 cell failures (oracle
// violation or world error) or a failed export write, 2 spec parse/usage
// errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/report.h"
#include "scenario/run.h"
#include "scenario/spec.h"

namespace music {
namespace {

struct Args {
  bool ctest = false;
  size_t threads = 0;
  int seeds = 0;
  uint64_t base_seed = 0;  // 0 = spec's own
  double warmup_sec = -1.0;
  double measure_sec = -1.0;
  size_t max_cells = 0;
  size_t par_sites = 0;
  std::string out_dir = ".";
  std::string trace_out;
  std::string metrics_out;
  std::vector<std::string> inputs;

  bool exports() const { return !trace_out.empty() || !metrics_out.empty(); }
};

void usage() {
  std::fprintf(stderr,
               "usage: bench_scenarios [--ctest] [--threads N] [--seeds N] "
               "[--base-seed N]\n"
               "                       [--warmup-sec S] [--measure-sec S] "
               "[--max-cells N]\n"
               "                       [--par-sites N] [--out-dir D] "
               "[--trace-out P] [--metrics-out P]\n"
               "                       FILE.scn|DIR ...\n");
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::atof(argv[++i]);
      return true;
    };
    double v = 0;
    if (arg == "--ctest") {
      a->ctest = true;
    } else if (arg == "--threads" && next(&v)) {
      a->threads = static_cast<size_t>(v);
    } else if (arg == "--seeds" && next(&v)) {
      a->seeds = static_cast<int>(v);
    } else if (arg == "--base-seed" && next(&v)) {
      a->base_seed = static_cast<uint64_t>(v);
    } else if (arg == "--warmup-sec" && next(&v)) {
      a->warmup_sec = v;
    } else if (arg == "--measure-sec" && next(&v)) {
      a->measure_sec = v;
    } else if (arg == "--max-cells" && next(&v)) {
      a->max_cells = static_cast<size_t>(v);
    } else if (arg == "--par-sites" && next(&v)) {
      a->par_sites = static_cast<size_t>(v);
    } else if (arg == "--out-dir" && i + 1 < argc) {
      a->out_dir = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      a->trace_out = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      a->metrics_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    } else {
      a->inputs.push_back(arg);
    }
  }
  if (a->exports() && a->par_sites > 0) {
    std::fprintf(stderr, "--trace-out/--metrics-out need the classic kernel "
                         "(tracing is unsupported under --par-sites)\n");
    return false;
  }
  return !a->inputs.empty();
}

/// FILE args pass through; DIR args expand to their *.scn files, sorted.
std::vector<std::string> collect_specs(const std::vector<std::string>& inputs) {
  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(in, ec)) {
      std::vector<std::string> found;
      for (const auto& e : std::filesystem::directory_iterator(in, ec)) {
        if (e.path().extension() == ".scn") found.push_back(e.path().string());
      }
      std::sort(found.begin(), found.end());
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(in);
    }
  }
  return files;
}

scn::RunOptions make_options(const Args& a) {
  scn::RunOptions opt;
  opt.threads = a.threads != 0 ? a.threads : bench::bench_threads();
  opt.max_seeds = a.seeds;
  if (a.warmup_sec >= 0) {
    opt.max_warmup = static_cast<sim::Duration>(a.warmup_sec * 1e6);
    if (opt.max_warmup == 0) opt.max_warmup = 1;  // 0 means "no cap"
  }
  if (a.measure_sec >= 0) {
    opt.max_measure = static_cast<sim::Duration>(a.measure_sec * 1e6);
  }
  opt.max_cells = a.max_cells;
  opt.par_sites = a.par_sites;
  if (a.ctest) {
    // Reduced grid for the tier-1 ctest family; explicit flags still win.
    if (opt.max_seeds == 0) opt.max_seeds = 1;
    if (opt.max_warmup == 0) opt.max_warmup = sim::sec(1);
    if (opt.max_measure == 0) opt.max_measure = sim::sec(3);
  }
  if (const char* env = std::getenv("MUSIC_SCENARIO_SEEDS")) {
    int v = std::atoi(env);
    if (v > 0) opt.max_seeds = v;
  }
  return opt;
}

/// Writes the traced cell's Chrome trace and metrics dump (empty path =
/// skip).  False when a write failed.
bool write_exports(const Args& a, const obs::Tracer& tracer,
                   const obs::MetricsRegistry& metrics) {
  bool ok = true;
  if (!a.trace_out.empty()) {
    ok = obs::write_file(a.trace_out, obs::chrome_trace_json(tracer)) && ok;
    std::printf("   trace: %zu spans (%llu dropped) -> %s\n",
                tracer.spans().size(),
                static_cast<unsigned long long>(tracer.dropped_spans()),
                a.trace_out.c_str());
  }
  if (!a.metrics_out.empty()) {
    const std::string& p = a.metrics_out;
    bool csv = p.size() >= 4 && p.compare(p.size() - 4, 4, ".csv") == 0;
    ok = obs::write_file(p, csv ? obs::metrics_csv(metrics)
                                : obs::metrics_json(metrics)) &&
         ok;
    std::printf("   metrics: %s -> %s\n", csv ? "csv" : "json", p.c_str());
  }
  return ok;
}

int run_one(const std::string& path, const Args& args,
            const scn::RunOptions& opt) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  scn::Diag diag;
  auto spec = scn::ScenarioSpec::parse(buf.str(), &diag);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s:%d:%d: %s\n", path.c_str(), diag.line, diag.col,
                 diag.message.c_str());
    return 2;
  }
  if (args.base_seed != 0) spec->base_seed = args.base_seed;
  std::string invalid = scn::validate(*spec);
  if (!invalid.empty()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), invalid.c_str());
    return 2;
  }

  // Run against the reduced spec so the report's cell list matches the
  // cells that actually ran (run_sweep reduces identically).
  scn::ScenarioSpec effective = scn::reduced(*spec, opt);
  std::vector<scn::Cell> cells = scn::expand(effective);
  size_t grid = cells.size();
  if (opt.max_cells > 0 && cells.size() > opt.max_cells) {
    cells.resize(opt.max_cells);
  }
  if (args.exports() && cells.size() != 1) {
    std::fprintf(stderr,
                 "%s: --trace-out/--metrics-out need a grid of exactly one "
                 "cell, this one has %zu (try --max-cells 1)\n",
                 path.c_str(), cells.size());
    return 2;
  }
  std::printf("== %s: %zu cells (%s)\n", effective.name.c_str(), grid,
              path.c_str());
  if (cells.size() < grid) {
    std::printf("   grid truncated to first %zu cells (--max-cells)\n",
                cells.size());
  }
  bench::WallTimer timer;
  std::vector<scn::CellOutcome> outs;
  bool exported = true;
  if (args.exports()) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    tracer.set_registry(&metrics);
    outs.push_back(scn::run_cell(cells[0], 0, &tracer));
    exported = write_exports(args, tracer, metrics);
  } else {
    outs = scn::run_sweep(effective, opt);
  }

  int rc = 0;
  for (const scn::CellOutcome& o : outs) {
    std::printf("  %-32s %-4s %8llu ops %9.1f ops/s %8.2f ms  %5.1f wan/op\n",
                o.label.c_str(), o.ok ? "ok" : "FAIL",
                static_cast<unsigned long long>(o.run.completed),
                o.run.throughput(), o.run.latency.mean_ms(), o.wan_per_op());
    if (!o.ok) {
      rc = 1;
      std::fprintf(stderr, "FAIL %s: %s\n", o.label.c_str(), o.error.c_str());
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::string base = args.out_dir + "/" + effective.name;
  bool wrote = obs::write_file(base + ".csv", scn::sweep_csv(effective, outs));
  wrote = obs::write_file(base + ".html", scn::sweep_html(effective, outs)) &&
          wrote;
  size_t ok_cells = 0;
  for (const auto& o : outs) ok_cells += o.ok ? 1 : 0;
  std::printf("   %zu/%zu cells ok in %.1fs -> %s.{csv,html}%s\n", ok_cells,
              outs.size(), timer.elapsed_sec(), base.c_str(),
              wrote ? "" : " (write failed)");
  if (!exported && rc == 0) rc = 1;
  return rc;
}

}  // namespace
}  // namespace music

int main(int argc, char** argv) {
  music::Args args;
  if (!music::parse_args(argc, argv, &args)) {
    music::usage();
    return 2;
  }
  auto files = music::collect_specs(args.inputs);
  if (files.empty()) {
    std::fprintf(stderr, "no .scn files found\n");
    return 2;
  }
  if (args.exports() && files.size() != 1) {
    std::fprintf(stderr, "--trace-out/--metrics-out need exactly one spec "
                         "file, got %zu\n", files.size());
    return 2;
  }
  auto opt = music::make_options(args);
  int rc = 0;
  for (const std::string& f : files) {
    int r = music::run_one(f, args, opt);
    if (r > rc) rc = r;
  }
  return rc;
}
