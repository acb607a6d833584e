// Benchmark driver: runs one workload for a given seed and run length,
// checks its outputs, prints every metric by name with unit and sample count,
// and ends with one JSON result line.
//
//   perfbench_driver --workload lcp-fanout --seed 1 --seconds 10 --trace 0
//                    [--out-dir DIR]
//
// Untraced rounds repeat set-up and the timed phase until the run length is
// used up; host metrics are medians over rounds, simulated metrics must be
// identical in every round. --trace 1 adds one traced round (spans, metrics
// registry, timed decorators) whose simulated digest must equal the
// untraced one, and one round on the next seed whose digest must differ.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kMinRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void print_json_metric(const char* name, double value, const char* unit,
                       bool* first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // ---- Untraced rounds ----
  SpanLog no_spans;
  std::vector<RoundOut> rounds;
  double measured = 0;
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         measured < args.seconds) {
    RoundOptions options;
    options.verify = rounds.empty();
    options.spans = &no_spans;
    rounds.push_back(workload->round(options));
    for (double s : rounds.back().setup_s) measured += s;
    measured += rounds.back().wall_s;
  }

  OpCount ops;
  std::vector<double> walls;
  std::vector<double> setups;
  const RoundOut& first = rounds.front();
  for (const RoundOut& r : rounds) {
    ops.merge(r.ops);
    walls.push_back(r.wall_s);
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
    if (r.digest != first.digest) {
      std::fprintf(stderr, "determinism: round digest %016llx != %016llx\n",
                   static_cast<unsigned long long>(r.digest),
                   static_cast<unsigned long long>(first.digest));
      ops.check(false);
    }
  }
  const double wall_s = median(walls);
  const double setup_s = median(setups) + workload->gen_host_s();
  const double rss = peak_rss_mb();

  std::printf("workload %s seed %llu: %zu rounds, %zu set-ups\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rounds.size(),
              setups.size());
  print_metric("wall_s", wall_s, "s", walls.size());
  std::printf("    per round:");
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\n");
  print_metric("setup_s", setup_s, "s", setups.size());
  print_metric("peak_rss_mb", rss, "MiB", 1);
  print_metric("failed_frac", ops.failed_frac(), "frac", ops.attempted);
  for (const auto& [name, m] : first.sim) {
    print_metric(name, m.value, m.unit, m.samples);
  }
  std::printf("  sim digest %016llx\n",
              static_cast<unsigned long long>(first.digest));

  // ---- Traced round, and the seed check ----
  std::map<std::string, double> layers;
  if (args.trace) {
    SpanLog spans;
    spans.enable();
    RoundOptions options;
    options.traced = true;
    options.verify = true;
    options.spans = &spans;
    RoundOut traced = workload->round(options);
    ops.merge(traced.ops);
    if (traced.digest != first.digest) {
      std::fprintf(stderr, "determinism: traced digest %016llx != %016llx\n",
                   static_cast<unsigned long long>(traced.digest),
                   static_cast<unsigned long long>(first.digest));
      ops.check(false);
    }
    RoundOptions plain;
    plain.spans = &no_spans;
    RoundOut other = make_workload(args.workload, args.seed + 1)->round(plain);
    ops.merge(other.ops);
    const bool seed_moves = other.digest != first.digest;
    std::printf("  seed %llu digest %016llx (%s)\n",
                static_cast<unsigned long long>(args.seed + 1),
                static_cast<unsigned long long>(other.digest),
                seed_moves ? "differs, as it must" : "SAME: seed is ignored");
    ops.check(seed_moves);

    layers = std::move(traced.layers);
    layers["sim.host_ns_per_event"] = wall_s * 1e9 / layers["sim.events"];
    layers["workload.gen_host_s"] = workload->gen_host_s();
    layers["obs.trace_overhead_frac"] = traced.wall_s / wall_s - 1;
    std::printf("per-layer (traced round):\n");
    for (const auto& def : kLayerMetrics) {
      print_metric(def.name, layers[def.name], def.unit, 1);
    }
    if (layers.size() != kLayerMetrics.size()) {
      std::fprintf(stderr, "internal: a layer metric is not in kLayerMetrics\n");
      ops.check(false);
    }
    std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json";
    if (spans.write_json(path)) {
      std::printf("  %zu spans -> %s\n", spans.spans().size(), path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ops.check(false);
    }
  }

  const bool correct = ops.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));
  bool first_metric = true;
  if (args.trace) {
    for (const auto& def : kLayerMetrics) {
      print_json_metric(def.name, layers[def.name], def.unit, &first_metric);
    }
  } else {
    print_json_metric("wall_s", wall_s, "s", &first_metric);
    print_json_metric("setup_s", setup_s, "s", &first_metric);
    print_json_metric("peak_rss_mb", rss, "MiB", &first_metric);
    for (const char* name : {"sim_s", "op_p50_ms", "op_tail_ms"}) {
      const SimMetric& m = first.sim.at(name);
      print_json_metric(name, m.value, m.unit, &first_metric);
    }
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
