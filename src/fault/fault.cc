#include "fault/fault.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <utility>

namespace music::fault {
namespace {

std::string join_sites(const std::set<int>& s) {
  std::string out;
  for (int v : s) {
    if (!out.empty()) out += ",";
    out += std::to_string(v);
  }
  return out;
}

std::string link_str(const FaultSpec& f) {
  std::string out = std::to_string(f.from_site);
  out += f.bidirectional ? "<>" : ">";
  out += std::to_string(f.to_site);
  return out;
}

std::string time_str(sim::Duration d) {
  if (d % sim::sec(1) == 0) return std::to_string(d / sim::sec(1)) + "s";
  if (d % sim::ms(1) == 0) return std::to_string(d / sim::ms(1)) + "ms";
  return std::to_string(d) + "us";
}

std::string float_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Splits a clause on whitespace into tokens.
std::vector<std::string_view> tokenize(std::string_view clause) {
  std::vector<std::string_view> toks;
  size_t i = 0;
  while (i < clause.size()) {
    while (i < clause.size() &&
           std::isspace(static_cast<unsigned char>(clause[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < clause.size() &&
           !std::isspace(static_cast<unsigned char>(clause[i]))) {
      ++i;
    }
    if (i > start) toks.push_back(clause.substr(start, i - start));
  }
  return toks;
}

bool parse_double(std::string_view s, double* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_int(std::string_view s, int* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// "2s" / "150ms" / "300us" -> Duration.
bool parse_time(std::string_view s, sim::Duration* out) {
  sim::Duration unit;
  std::string_view num;
  if (s.size() > 2 && s.substr(s.size() - 2) == "ms") {
    unit = sim::ms(1);
    num = s.substr(0, s.size() - 2);
  } else if (s.size() > 2 && s.substr(s.size() - 2) == "us") {
    unit = 1;
    num = s.substr(0, s.size() - 2);
  } else if (s.size() > 1 && s.back() == 's') {
    unit = sim::sec(1);
    num = s.substr(0, s.size() - 1);
  } else {
    return false;
  }
  double v;
  if (!parse_double(num, &v) || v < 0) return false;
  *out = static_cast<sim::Duration>(v * static_cast<double>(unit));
  return true;
}

/// "0,2" -> {0, 2}.
bool parse_sites(std::string_view s, std::set<int>* out) {
  while (!s.empty()) {
    size_t comma = s.find(',');
    std::string_view part = s.substr(0, comma);
    int v;
    if (!parse_int(part, &v) || v < 0) return false;
    out->insert(v);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return !out->empty();
}

/// "0>1" (directed) or "0<>1" (both ways).
bool parse_link(std::string_view s, FaultSpec* spec) {
  size_t arrow = s.find("<>");
  size_t arrow_len = 2;
  if (arrow == std::string_view::npos) {
    arrow = s.find('>');
    arrow_len = 1;
  }
  if (arrow == std::string_view::npos) return false;
  int from, to;
  if (!parse_int(s.substr(0, arrow), &from) ||
      !parse_int(s.substr(arrow + arrow_len), &to)) {
    return false;
  }
  if (from < 0 || to < 0 || from == to) return false;
  spec->from_site = from;
  spec->to_site = to;
  spec->bidirectional = arrow_len == 2;
  return true;
}

/// A clause-level parse failure: the message plus the offending token
/// (a view into the script, so the caller can compute line/column).  An
/// empty `where` blames the whole clause.
struct ClauseError {
  std::string message;
  std::string_view where;
};

bool fail(ClauseError* err, std::string msg, std::string_view where = {}) {
  if (err) {
    err->message = std::move(msg);
    err->where = where;
  }
  return false;
}

/// Parses one clause into `spec`.
bool parse_clause(std::string_view clause, FaultSpec* spec, ClauseError* err) {
  auto toks = tokenize(clause);
  if (toks.size() < 3 || toks[0] != "at") {
    return fail(err, "expected \"at TIME spec\"",
                toks.empty() ? clause : toks[0]);
  }
  sim::Duration at;
  if (!parse_time(toks[1], &at)) {
    return fail(err, "bad time \"" + std::string(toks[1]) + "\"", toks[1]);
  }
  spec->at = at;

  // Peel a trailing "for TIME" so the spec grammar below doesn't see it.
  size_t n = toks.size();
  if (n >= 2 && toks[n - 2] == "for") {
    if (!parse_time(toks[n - 1], &spec->duration)) {
      return fail(err, "bad duration \"" + std::string(toks[n - 1]) + "\"",
                  toks[n - 1]);
    }
    n -= 2;
  }

  std::string_view verb = toks[2];
  if (verb == "partition") {
    if (n != 4) return fail(err, "partition wants SIDES (\"0|1,2\")", verb);
    std::string_view sides = toks[3];
    size_t bar = sides.find('|');
    if (bar == std::string_view::npos ||
        !parse_sites(sides.substr(0, bar), &spec->side_a) ||
        !parse_sites(sides.substr(bar + 1), &spec->side_b)) {
      return fail(err, "bad sides \"" + std::string(sides) + "\"", sides);
    }
    spec->kind = FaultKind::Partition;
    return true;
  }
  if (verb == "blackhole") {
    if (n != 4 || !parse_link(toks[3], spec)) {
      return fail(err, "blackhole wants LINK (\"0>1\" or \"0<>1\")",
                  n >= 4 ? toks[3] : verb);
    }
    spec->kind = FaultKind::Blackhole;
    return true;
  }
  if (verb == "gray") {
    if (n != 8 || !parse_link(toks[3], spec) || toks[4] != "loss" ||
        !parse_double(toks[5], &spec->loss) || toks[6] != "delay") {
      return fail(err, "gray wants \"LINK loss FLOAT delay TIME\"", verb);
    }
    sim::Duration d;
    if (!parse_time(toks[7], &d)) {
      return fail(err, "bad delay \"" + std::string(toks[7]) + "\"", toks[7]);
    }
    spec->delay_ms = sim::to_ms(d);
    if (spec->loss < 0 || spec->loss > 1) {
      return fail(err, "loss must be in [0,1]", toks[5]);
    }
    spec->kind = FaultKind::GrayLink;
    return true;
  }
  if (verb == "spike") {
    if (n != 6 || !parse_link(toks[3], spec) || toks[4] != "delay") {
      return fail(err, "spike wants \"LINK delay TIME\"", verb);
    }
    sim::Duration d;
    if (!parse_time(toks[5], &d)) {
      return fail(err, "bad delay \"" + std::string(toks[5]) + "\"", toks[5]);
    }
    spec->delay_ms = sim::to_ms(d);
    spec->kind = FaultKind::LatencySpike;
    return true;
  }
  if (verb == "dup") {
    if (n != 6 || !parse_link(toks[3], spec) || toks[4] != "prob" ||
        !parse_double(toks[5], &spec->dup_prob) || spec->dup_prob < 0 ||
        spec->dup_prob > 1) {
      return fail(err, "dup wants \"LINK prob FLOAT\" in [0,1]", verb);
    }
    spec->kind = FaultKind::Duplication;
    return true;
  }
  if (verb == "crash") {
    if (n < 5 || (toks[3] != "store" && toks[3] != "music") ||
        !parse_int(toks[4], &spec->replica) || spec->replica < 0) {
      return fail(err, "crash wants \"(store|music) INT [amnesia]\"", verb);
    }
    spec->kind =
        toks[3] == "store" ? FaultKind::CrashStore : FaultKind::CrashMusic;
    if (n == 6) {
      if (toks[5] != "amnesia") {
        return fail(err, "unknown crash flag \"" + std::string(toks[5]) + "\"",
                    toks[5]);
      }
      spec->amnesia = true;
    } else if (n != 5) {
      return fail(err, "trailing tokens after crash spec", toks[5]);
    }
    return true;
  }
  if (verb == "restart") {
    if (n < 4 || !parse_int(toks[3], &spec->site) || spec->site < 0) {
      return fail(err, "restart wants \"SITE [version INT] [amnesia]\"", verb);
    }
    spec->kind = FaultKind::Restart;
    size_t i = 4;
    if (i < n && toks[i] == "version") {
      if (i + 1 >= n || !parse_int(toks[i + 1], &spec->version) ||
          spec->version < 1) {
        return fail(err, "restart version wants a positive INT",
                    i + 1 < n ? toks[i + 1] : verb);
      }
      i += 2;
    }
    if (i < n && toks[i] == "amnesia") {
      spec->amnesia = true;
      ++i;
    }
    if (i != n) {
      return fail(err, "trailing tokens after restart spec", toks[i]);
    }
    return true;
  }
  return fail(err, "unknown fault \"" + std::string(verb) + "\"", verb);
}

/// 1-based line/column of byte `offset` within `script`.
void locate(std::string_view script, size_t offset, int* line, int* col) {
  *line = 1;
  *col = 1;
  for (size_t i = 0; i < offset && i < script.size(); ++i) {
    if (script[i] == '\n') {
      ++*line;
      *col = 1;
    } else {
      ++*col;
    }
  }
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::Partition: return "partition";
    case FaultKind::Blackhole: return "blackhole";
    case FaultKind::GrayLink: return "gray_link";
    case FaultKind::LatencySpike: return "latency_spike";
    case FaultKind::Duplication: return "duplication";
    case FaultKind::CrashStore: return "crash_store";
    case FaultKind::CrashMusic: return "crash_music";
    case FaultKind::Restart: return "restart";
  }
  return "unknown";
}

std::string FaultSpec::describe() const {
  std::string out;
  switch (kind) {
    case FaultKind::Partition:
      out = "partition {" + join_sites(side_a) + "}|{" + join_sites(side_b) +
            "}";
      break;
    case FaultKind::Blackhole:
      out = "blackhole " + link_str(*this);
      break;
    case FaultKind::GrayLink:
      out = "gray " + link_str(*this) + " loss=" + float_str(loss) +
            " delay=" + float_str(delay_ms) + "ms";
      break;
    case FaultKind::LatencySpike:
      out = "spike " + link_str(*this) + " delay=" + float_str(delay_ms) +
            "ms";
      break;
    case FaultKind::Duplication:
      out = "dup " + link_str(*this) + " prob=" + float_str(dup_prob);
      break;
    case FaultKind::CrashStore:
    case FaultKind::CrashMusic:
      out = kind == FaultKind::CrashStore ? "crash store " : "crash music ";
      out += std::to_string(replica);
      if (amnesia) out += " (amnesia)";
      break;
    case FaultKind::Restart:
      out = "restart site " + std::to_string(site);
      if (version > 0) out += " version=" + std::to_string(version);
      if (amnesia) out += " (amnesia)";
      break;
  }
  if (duration > 0) {
    out += " for ";
    out += time_str(duration);
  }
  return out;
}

std::string ParseDiag::str() const {
  std::string out = "line ";
  out += std::to_string(line);
  out += ", col ";
  out += std::to_string(col);
  out += ": ";
  out += message;
  return out;
}

std::optional<Schedule> Schedule::parse(std::string_view script,
                                        ParseDiag* diag) {
  Schedule s;
  std::string_view rest = script;
  while (!rest.empty()) {
    size_t sep = rest.find_first_of(";\n");
    std::string_view clause = rest.substr(0, sep);
    if (!tokenize(clause).empty()) {
      FaultSpec spec;
      ClauseError err;
      if (!parse_clause(clause, &spec, &err)) {
        if (diag) {
          // Blame the offending token when it points into the script,
          // otherwise the start of the clause.
          std::string_view where = err.where.empty() ? clause : err.where;
          size_t offset = static_cast<size_t>(where.data() - script.data());
          locate(script, offset, &diag->line, &diag->col);
          diag->message = std::move(err.message);
        }
        return std::nullopt;
      }
      s.specs_.push_back(std::move(spec));
    }
    if (sep == std::string_view::npos) break;
    rest.remove_prefix(sep + 1);
  }
  if (s.specs_.empty()) {
    if (diag) {
      diag->line = 1;
      diag->col = 1;
      diag->message = "empty schedule";
    }
    return std::nullopt;
  }
  return s;
}

std::optional<Schedule> Schedule::parse(std::string_view script,
                                        std::string* error) {
  ParseDiag diag;
  auto s = parse(script, &diag);
  if (!s.has_value() && error != nullptr) *error = diag.str();
  return s;
}

std::string Schedule::describe() const {
  std::string out;
  for (const FaultSpec& s : specs_) {
    out += "at ";
    out += time_str(s.at);
    out += " ";
    out += s.describe();
    out += "\n";
  }
  return out;
}

}  // namespace music::fault
