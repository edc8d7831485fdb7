#!/usr/bin/env python3
"""Runs one workload of the SimSub benchmark of record.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds simsub_bench from the repository's sources on first use (CMake,
Release; bench/suite/CMakeLists.txt includes the root CMake project as it
is) into $CARGO_TARGET_DIR (default .bench_build) under the repository
root, runs the workload, and relays its output. The last line of standard
output is the run's JSON result; with --trace 1 the span file is written to
<build dir>/traces/<workload>-seed<n>.json. Exits non-zero when the sources
are missing, the build fails, an answer mismatches, or the result does not
name exactly the metrics BENCHMARK.json lists.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_root):
    """Configures (once) and builds simsub_bench; returns its path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root, "suite")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "--target", "simsub_bench",
                  "--parallel", BUILD_JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "simsub_bench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"SimSub sources not found under {ROOT}", 2)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    workdir = os.path.join(build_root, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--workdir={workdir}"]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command.append(f"--trace={os.path.join(traces, f'{args.workload}-seed{args.seed}.json')}")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body), flush=True)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail(f"simsub_bench exited with {done.returncode} and no JSON result",
             done.returncode or 1)
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    print(last, flush=True)
    if done.returncode != 0:
        fail(f"simsub_bench exited with {done.returncode}", done.returncode)


if __name__ == "__main__":
    main()
