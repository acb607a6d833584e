// obsq — query and check flight-recorder artifacts.
//
// Post-hoc companion to the in-process observability stack: the bench
// harnesses export a deterministic event log (--events-out, obs/events.h)
// and a Chrome trace (--trace-out, obs/trace.h); obsq loads either or both
// and answers three kinds of question (obs/analyze.h):
//
//   obsq --check  [--events FILE] [--trace FILE]
//       Run every invariant that applies to the given artifacts — log
//       completeness, hint balance, replica-set reads, drain emptiness,
//       repair completion, span nesting. Prints the summary counters and
//       each violation; exits 0 only when everything holds. This is the CI
//       gate: ablation_faults' kill/drain/partition legs export their logs
//       and CI fails if any replication invariant is violated.
//
//   obsq --paths  --trace FILE [--top N]
//       Per-request critical paths: for each trace, the chain of widest
//       spans root-to-leaf with duration and self time per hop. `--top N`
//       keeps the N longest requests (default 10, 0 = all).
//
//   obsq --series --events FILE [--bucket SECONDS]
//       Replication time-series in `--bucket`-second rows (default 1.0):
//       parked-hint backlog, reads served and failovers per bucket.
//
// Exit codes: 0 ok, 1 invariant violation, 2 usage or unreadable/corrupt
// input (a malformed artifact is always a hard error — a truncated or
// hand-edited log must never pass as "checked").
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.h"

namespace {

using namespace evostore;

int usage() {
  std::fprintf(stderr,
               "usage: obsq --check  [--events FILE] [--trace FILE]\n"
               "       obsq --paths  --trace FILE [--top N]\n"
               "       obsq --series --events FILE [--bucket SECONDS]\n");
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Load helpers: exit(2)-style hard failure is signalled by returning false
// after printing the parse error — corrupt input must never check clean.
bool load_events(const std::string& path, obs::EventLogFile* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "obsq: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!obs::parse_event_log(text, out, &error)) {
    std::fprintf(stderr, "obsq: %s: corrupt event log: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

bool load_trace(const std::string& path, std::vector<obs::SpanInfo>* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "obsq: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!obs::parse_chrome_trace(text, out, &error)) {
    std::fprintf(stderr, "obsq: %s: corrupt trace: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

int run_check(const std::string& events_path, const std::string& trace_path) {
  obs::EventLogFile events;
  std::vector<obs::SpanInfo> spans;
  if (!events_path.empty() && !load_events(events_path, &events)) return 2;
  if (!trace_path.empty() && !load_trace(trace_path, &spans)) return 2;

  obs::InvariantReport report = obs::check_invariants(events, spans);
  std::printf("events: %zu retained, %" PRIu64 " recorded, %" PRIu64
              " dropped\n",
              events.events.size(), events.recorded, events.dropped);
  std::printf("hints:  %" PRIu64 " recorded = %" PRIu64 " replayed + %" PRIu64
              " superseded + %" PRIu64 " moved\n",
              report.hints_recorded, report.hints_replayed,
              report.hints_superseded, report.hints_moved);
  std::printf("reads:  %" PRIu64 " served, %" PRIu64 " failovers\n",
              report.reads_served, report.read_failovers);
  std::printf("checked: %" PRIu64 " drain(s), %" PRIu64 " repair(s), %" PRIu64
              " span(s)\n",
              report.drains_checked, report.repairs_checked,
              report.spans_checked);
  if (!report.ok()) {
    for (const std::string& v : report.violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
    std::printf("check: FAIL (%zu violation(s))\n", report.violations.size());
    return 1;
  }
  std::printf("check: ok\n");
  return 0;
}

int run_paths(const std::string& trace_path, size_t top) {
  std::vector<obs::SpanInfo> spans;
  if (!load_trace(trace_path, &spans)) return 2;
  auto paths = obs::critical_paths(spans, top);
  if (paths.empty()) {
    std::printf("no complete spans\n");
    return 0;
  }
  for (const auto& p : paths) {
    std::printf("trace %" PRIu64 " — %s, %.3f us total\n", p.trace_id,
                p.root.c_str(), p.total_us);
    for (size_t i = 0; i < p.steps.size(); ++i) {
      const auto& s = p.steps[i];
      std::printf("  %*s%-24s node %-4u %10.3f us  (self %.3f us)\n",
                  static_cast<int>(2 * i), "", s.name.c_str(), s.node,
                  s.dur_us, s.self_us);
    }
  }
  return 0;
}

int run_series(const std::string& events_path, double bucket) {
  obs::EventLogFile events;
  if (!load_events(events_path, &events)) return 2;
  if (bucket <= 0) {
    std::fprintf(stderr, "obsq: --bucket must be > 0\n");
    return 2;
  }
  auto rows = obs::time_series(events, bucket);
  std::printf("%12s %12s %10s %10s\n", "t", "hint_backlog", "reads",
              "failovers");
  for (const auto& r : rows) {
    std::printf("%12.3f %12" PRId64 " %10" PRIu64 " %10" PRIu64 "\n",
                r.bucket_start, r.hint_backlog, r.reads_served,
                r.read_failovers);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false, paths = false, series = false;
  std::string events_path, trace_path;
  size_t top = 10;
  double bucket = 1.0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obsq: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--check") == 0) {
      check = true;
    } else if (std::strcmp(a, "--paths") == 0) {
      paths = true;
    } else if (std::strcmp(a, "--series") == 0) {
      series = true;
    } else if (std::strcmp(a, "--events") == 0) {
      events_path = value(a);
    } else if (std::strcmp(a, "--trace") == 0) {
      trace_path = value(a);
    } else if (std::strcmp(a, "--top") == 0) {
      top = static_cast<size_t>(std::atoll(value(a)));
    } else if (std::strcmp(a, "--bucket") == 0) {
      bucket = std::atof(value(a));
    } else {
      std::fprintf(stderr, "obsq: unknown flag %s\n", a);
      return usage();
    }
  }
  if (static_cast<int>(check) + static_cast<int>(paths) +
          static_cast<int>(series) !=
      1) {
    return usage();
  }
  if (check) {
    if (events_path.empty() && trace_path.empty()) return usage();
    return run_check(events_path, trace_path);
  }
  if (paths) {
    if (trace_path.empty()) return usage();
    return run_paths(trace_path, top);
  }
  if (events_path.empty()) return usage();
  return run_series(events_path, bucket);
}
