#!/usr/bin/env python3
"""EvoStore benchmark: builds the driver from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload lcp-fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 20] [--trace 1]
    python3 perfbench/run.py --self-test

One workload: prints the driver's report (every metric by name, unit and
sample count) and, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are BENCHMARK.json's `end_to_end` list, with --trace 1 its `per_layer` list.
Exits non-zero when an output is wrong or the build fails.

The driver is built in Release mode under $CARGO_TARGET_DIR (default
`.bench_build`) in the repository root; span files of traced runs go to
its `traces/` subdirectory. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configure and build `target`; returns its path or None.

    Configuring every time is cheap and makes CMake refuse a build tree
    that was generated from another checkout's sources.
    """
    out = build_dir()
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4", "--target", target],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def check_result(line, spec, trace):
    """Problems with the driver's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, wrong unit %s" % (missing, extra, wrong))
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def run_workload(driver, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None)."""
    traces = os.path.join(os.path.dirname(driver), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", traces]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: no result within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], spec, trace) if lines else ["no output"]
    for p in problems:
        print("%s: %s" % (workload, p), file=sys.stderr)
    if problems:
        print("\n".join(lines[:-1]))
        return 1, None
    print("\n".join(lines))
    return proc.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("repository sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if args.self_test:
        test = build("perfbench_selftest")
        return 1 if test is None else subprocess.run([test]).returncode

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        workloads = names
    elif args.workload in names:
        workloads = [args.workload]
    else:
        parser.error("--workload must be one of %s (or pass --all)" % names)
    seconds = args.seconds or spec["run_seconds"]

    driver = build("perfbench_driver")
    if driver is None:
        return 1
    status = 0
    summary = {}
    for w in workloads:
        code, line = run_workload(driver, spec, w, args.seed, seconds,
                                  args.trace == 1)
        status = status or code
        if line is not None:
            summary[w] = json.loads(line)
    if args.all:
        print(json.dumps(summary, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
