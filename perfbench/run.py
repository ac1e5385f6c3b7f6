#!/usr/bin/env python3
"""Build and run ActorProf's benchmark (see perfbench/METRICS.md).

One run:
    python3 perfbench/run.py --workload case_study --seed 1 --seconds 20 --trace 0

builds perfbench/ (and with it the library sources of src/) into
.bench_build/ at the root of the checkout, runs one workload and relays the
program's output. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Steadiness self-check:
    python3 perfbench/run.py --selfcheck [--runs 10] [--workload NAME ...]

runs each workload --runs times, each with another seed, and prints for
every end-to-end metric its median, quartiles and spread (the distance
between the quartiles as a share of the median) next to the bound recorded
in BENCHMARK.json. It exits 1 if a spread other than setup_s's is at or
above its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. Build chatter goes to
    stderr so stdout carries only the benchmark's output."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def declared_metrics():
    """Metric names BENCHMARK.json declares, by trace mode (None without
    the file)."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def run_once(workload, seed, seconds, trace):
    """Run the built benchmark; returns (stdout text, parsed result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(BUILD / "traces")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    expected = declared_metrics()
    if expected is not None and sorted(result["metrics"]) != sorted(
            expected[trace]):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                 sorted(set(result["metrics"]) ^ set(expected[trace])))
    return proc.stdout, result


def selfcheck(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        values = {}
        failed = attempted = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            _, result = run_once(workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        print("%s: %d runs, error_rate %.3g (%d of %d checks failed)" %
              (workload, args.runs, failed / max(attempted, 1), failed,
               attempted))
        print("  %-22s %14s %14s %14s %8s %6s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "ok"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            fits = m["name"] == "setup_s" or spread < m["bound"]
            ok = ok and fits and failed == 0
            print("  %-22s %14.6g %14.6g %14.6g %8.4f %6.3f %8s" %
                  (m["name"], med, q1, q3, spread, m["bound"],
                   ("yes" if spread < m["bound"] / 3 else "<bound")
                   if fits else "NO"))
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    build()
    if args.selfcheck:
        return selfcheck(args)
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload")
    out, _ = run_once(args.workload[0], args.seed, args.seconds or 10,
                      args.trace)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
