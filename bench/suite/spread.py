#!/usr/bin/env python3
"""Run-to-run spread of the benchmark of record.

    python3 bench/suite/spread.py [--workload <name> ...] [--runs 5] [--sets 1]
                                  [--first-seed 1] [--seconds <s>] [--trace 0|1]

Runs each workload --runs times through run.py, one seed per run, and prints
per metric the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median. A metric is flagged when its spread exceeds
10% or its BENCHMARK.json bound. With --sets N the whole series is repeated
N times on fresh seeds (set k runs seeds first-seed + k * runs ...), every
workload of a set before the next set, and each later set's median is
compared with the first set's: a shift in the worse direction by more than
the bound is flagged. Exits non-zero if any run fails, or any end-to-end
metric is flagged against its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT)
    wall = time.monotonic() - start
    last = done.stdout.decode(errors="replace").rstrip("\n").split("\n")[-1]
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}: {last}")
    result = json.loads(last)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect answers")
    return result, wall


def run_set(workload, seeds, seconds, trace):
    """Metric name -> values over the runs, plus walls and failures."""
    values, walls, failed = {}, [], 0
    for seed in seeds:
        result, wall = run_once(workload, seed, seconds, trace)
        walls.append(wall)
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, walls, failed


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2 or args.sets < 1:
        parser.error("--runs must be at least 2 and --sets at least 1")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in metrics}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets = {}  # (set, workload) -> (values, walls, failed, seeds)
    for k in range(args.sets):
        for workload in workloads:
            seeds = [args.first_seed + k * args.runs + i for i in range(args.runs)]
            sets[k, workload] = run_set(workload, seeds, args.seconds, args.trace) + (seeds,)

    flagged = False
    for workload in workloads:
        for k in range(args.sets):
            values, walls, failed, seeds = sets[k, workload]
            print(f"== {workload} set {k + 1}: {args.runs} runs, seeds {seeds[0]}.."
                  f"{seeds[-1]}, {args.seconds:g} s, wall {min(walls):.1f}-"
                  f"{max(walls):.1f} s, failed {failed}")
            print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
                  f"{'bound':>6} {'shift':>8}")
            for name, series in values.items():
                median = statistics.median(series)
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(median) if median else 0.0
                bound = bounds.get(name)
                flags = []
                if spread > 0.10:
                    flags.append(">10%")
                if bound is not None and spread > bound:
                    flags.append(">bound")
                    flagged = True
                shift = ""
                if k > 0:
                    first = statistics.median(sets[0, workload][0][name])
                    worse = (median - first) / abs(first) if first else 0.0
                    if not lower_is_better[name]:
                        worse = -worse
                    shift = f"{worse:8.2%}"
                    if bound is not None and worse > bound:
                        flags.append("worse>bound")
                        flagged = True
                print(f"{name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                      f"{'' if bound is None else f'{bound:.3g}':>6} {shift:>8} "
                      f"{' '.join(flags)}")
    sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
