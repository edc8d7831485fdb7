#!/usr/bin/env python3
"""Bench-regression gate for the checked-in BENCH_*.json results.

Compares the speedup ratios of freshly measured bench runs against a
checked-in baseline and fails (exit 1) when any ratio regressed by more than
the threshold. Only RATIOS are compared — e.g. scalar-vs-SoA, or async-vs-
sequential from the same run on the same machine — so the gate is portable
across CI runner generations, unlike absolute ns/op numbers.

The gate is suite-aware: every BENCH json names its suite in the top-level
"bench" field, and SUITES below lists the gated ratios and identity bits per
suite. Currently gated:
  * "kernels"        (bench_kernels): SoA kernel speedups + the
                     start-row and pruned==unpruned engine identities;
  * "service_mixed"  (bench_service_mixed): mixed-spec async-vs-sequential
                     speedup + the async==sequential identity;
  * "loadgen"        (bench_loadgen): overload shed fraction + the
                     remote==local, shedding-engaged, and p99-within-
                     deadline bits from the open-loop socket bench.
The baseline and every fresh run must come from the same suite; mixing
suites is rejected, as is a quick/full workload mismatch or a SIMSUB_ISA
dispatch-tier mismatch (config.isa): kernel ratios measured under one SIMD
tier are not comparable to another, so CI pins SIMSUB_ISA=avx2 for its bench
runs and the checked-in baselines record the tier they were measured under.

Noise handling:
  * the baseline and the fresh runs must use the same workload config
    (the `config.quick` flag) — quick-mode ratios are not comparable to
    full-workload ones, so CI gates against the *_quick.json baselines;
  * --fresh may be given several times; each ratio takes the best value
    across the runs (run the cheap quick bench twice and single-run noise
    mostly cancels), while every identity bit must hold in EVERY run;
  * the threshold is deliberately generous (25%): a real regression (lost
    autovectorization, broken pruning cascade, a serialized worker pool)
    lands far below it.

Usage:
  check_bench.py --baseline BENCH_kernels_quick.json \
      --fresh build/q1.json --fresh build/q2.json
  check_bench.py --baseline BENCH_service_mixed_quick.json \
      --fresh build/BENCH_service_mixed_quick.json
  check_bench.py --self-test --baseline BENCH_kernels.json

--self-test exercises the gate itself: the baseline must pass against an
identical copy, and must demonstrably FAIL against a synthetically regressed
copy (every speedup scaled to 50%). CI runs the real comparison; ctest runs
the self-test so the gate cannot silently rot.
"""

import argparse
import copy
import json
import sys

# Per-suite gate definition. "ratios" are (json path, human label) pairs,
# all "bigger is better"; "identities" are boolean paths that must be true
# in every fresh run; "ceilings" are (json path, human label, max) triples —
# absolute smaller-is-better bounds that must hold in EVERY fresh run (a
# count-like metric whose healthy value is ~0 has no ratio to compare).
SUITES = {
    "kernels": {
        "ratios": [
            (("distance_row", "speedup"), "distance row SoA speedup"),
            (("squared_distance_row", "speedup"),
             "squared distance row SoA speedup"),
            (("dtw_extend", "speedup"), "DTW extend SoA speedup"),
            (("dtw_start", "speedup"), "DTW start row two-pass speedup"),
            (("dtw_suffix", "speedup"), "DTW suffix multi-row speedup"),
            (("engine_topk", "speedup"), "engine top-k pruning speedup"),
            # batched/sequential seconds from the same run, i.e. the
            # batched-vs-one-at-a-time qps-per-core ratio — portable across
            # runner speeds like every other gated ratio.
            (("batched", "speedup"), "multi-query batched qps/core ratio"),
        ],
        "identities": [
            (("dtw_start", "identical_to_scalar"),
             "dispatched start rows identical to scalar"),
            (("engine_topk", "pruned_identical_to_unpruned"),
             "pruned results identical to unpruned"),
            (("batched", "identical_to_sequential"),
             "batched results identical to sequential"),
        ],
    },
    "service_mixed": {
        "ratios": [
            (("speedup",), "mixed-spec async-vs-sequential speedup"),
        ],
        "identities": [
            (("identical_to_sequential",),
             "async results identical to sequential"),
        ],
    },
    # Open-loop socket serving (bench_loadgen). Deliberately dimensionless:
    # at 2x-capacity offered load a working admission controller must shed
    # >= ~half the requests (a broken one sheds none and the ratio craters),
    # and the served p99 staying inside the deadline is the bounded-tail
    # property the shedding exists to provide — both hold on any runner
    # speed, unlike absolute-latency ratios.
    "loadgen": {
        "ratios": [
            (("overload_shed_ratio",),
             "overload shed fraction (admission control engaged)"),
        ],
        "identities": [
            (("identical_to_local",),
             "remote results identical to in-process service"),
            (("overload_shed_occurred",),
             "2x-capacity overload produced load shedding"),
            (("overload_p99_within_deadline",),
             "served p99 under overload stays inside the deadline"),
        ],
        # A healthy loopback run needs ~no transport retries; a client that
        # quietly chews through its retry budget (flaky framing, broken
        # reconnect) shows up here long before it breaks a ratio.
        "ceilings": [
            (("retries_per_request",),
             "client transport retries per request", 0.1),
        ],
    },
}


def lookup(doc, path):
    value = doc
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def suite_of(doc, fallback="kernels"):
    # Pre-suite kernel baselines carry "bench": "kernels" already; the
    # fallback only covers hand-rolled files with no bench field.
    return doc.get("bench", fallback)


def merge_best(suite, fresh_docs):
    """Folds several runs into one doc with the best value per gated ratio;
    identity bits are AND-ed (they must hold in every run)."""
    merged = copy.deepcopy(fresh_docs[0])
    for doc in fresh_docs[1:]:
        for path, _ in suite["ratios"]:
            a = lookup(merged, path)
            b = lookup(doc, path)
            if a is not None and b is not None and b > a:
                lookup(merged, path[:-1])[path[-1]] = b
        for path, _ in suite["identities"]:
            if lookup(doc, path) is not True:
                parent = lookup(merged, path[:-1])
                if isinstance(parent, dict):
                    parent[path[-1]] = False
                # else: merged lacks the section entirely; check() reports
                # the missing identity as its own failure.
        for path, _, _ in suite.get("ceilings", []):
            # Worst (largest) value across runs: a ceiling must hold in
            # every run, and checking the max once is the same test.
            a = lookup(merged, path)
            b = lookup(doc, path)
            if a is not None and b is not None and b > a:
                lookup(merged, path[:-1])[path[-1]] = b
    return merged


def check(baseline, fresh, threshold):
    """Returns a list of failure strings (empty = gate passes)."""
    failures = []
    base_suite = suite_of(baseline)
    fresh_suite = suite_of(fresh)
    if base_suite != fresh_suite:
        failures.append(
            f"suite mismatch: baseline is '{base_suite}', fresh is "
            f"'{fresh_suite}' — gate each bench against its own baseline")
        return failures
    if base_suite not in SUITES:
        failures.append(f"unknown bench suite '{base_suite}' — add it to "
                        "SUITES in tools/check_bench.py")
        return failures
    suite = SUITES[base_suite]
    base_quick = lookup(baseline, ("config", "quick"))
    fresh_quick = lookup(fresh, ("config", "quick"))
    if base_quick != fresh_quick:
        failures.append(
            f"config mismatch: baseline quick={base_quick}, fresh "
            f"quick={fresh_quick} — quick and full workloads have different "
            "expected ratios; gate against the matching baseline file")
        return failures
    base_isa = lookup(baseline, ("config", "isa"))
    fresh_isa = lookup(fresh, ("config", "isa"))
    if base_isa != fresh_isa:
        failures.append(
            f"config mismatch: baseline isa={base_isa}, fresh "
            f"isa={fresh_isa} — kernel ratios are only comparable within one "
            "SIMSUB dispatch tier; pin SIMSUB_ISA (CI pins avx2) or "
            "regenerate the baseline on the new tier")
        return failures
    print(f"suite: {base_suite}")
    print(f"{'ratio':<40} {'baseline':>9} {'fresh':>9} {'rel':>7}  verdict")
    for path, label in suite["ratios"]:
        base = lookup(baseline, path)
        new = lookup(fresh, path)
        if base is None:
            failures.append(f"baseline is missing {'.'.join(path)}")
            continue
        if new is None:
            failures.append(f"fresh results are missing {'.'.join(path)}")
            continue
        rel = new / base if base > 0 else float("inf")
        ok = rel >= 1.0 - threshold
        print(f"{label:<40} {base:>8.2f}x {new:>8.2f}x {rel:>6.0%}  "
              f"{'ok' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(
                f"{label} regressed: {base:.2f}x -> {new:.2f}x "
                f"({rel:.0%} of baseline, floor is {1.0 - threshold:.0%})")
    for path, label in suite["identities"]:
        if lookup(fresh, path) is not True:
            failures.append(
                f"{'.'.join(path)} is not true in every fresh run — "
                f"{label} was violated")
    for path, label, limit in suite.get("ceilings", []):
        value = lookup(fresh, path)
        if value is None:
            failures.append(f"fresh results are missing {'.'.join(path)}")
            continue
        ok = value <= limit
        print(f"{label:<40} {'<=':>9}{limit:>8.2f} {value:>8.2f}   "
              f"{'ok' if ok else 'EXCEEDED'}")
        if not ok:
            failures.append(
                f"{label} exceeded its ceiling: {value:.3f} > {limit:.3f}")
    return failures


def self_test(baseline, threshold):
    suite_name = suite_of(baseline)
    if suite_name not in SUITES:
        print(f"self-test FAILED: unknown suite '{suite_name}'")
        return 1
    suite = SUITES[suite_name]
    ok_failures = check(baseline, copy.deepcopy(baseline), threshold)
    if ok_failures:
        print("self-test FAILED: baseline does not pass against itself:")
        for f in ok_failures:
            print(f"  {f}")
        return 1

    regressed = copy.deepcopy(baseline)
    for path, _ in suite["ratios"]:
        parent = lookup(regressed, path[:-1])
        parent[path[-1]] = parent[path[-1]] * 0.5
    print("\ninjecting a 50% regression into every ratio:")
    bad_failures = check(baseline, regressed, threshold)
    if len(bad_failures) != len(suite["ratios"]):
        print("self-test FAILED: injected regression was not caught "
              f"({len(bad_failures)}/{len(suite['ratios'])} ratios flagged)")
        return 1

    broken = copy.deepcopy(baseline)
    for path, _ in suite["identities"]:
        lookup(broken, path[:-1])[path[-1]] = False
    if len(check(baseline, broken, threshold)) != len(suite["identities"]):
        print("self-test FAILED: violated identity bit was not caught")
        return 1

    ceilings = suite.get("ceilings", [])
    if ceilings:
        exceeded = copy.deepcopy(baseline)
        for path, _, limit in ceilings:
            lookup(exceeded, path[:-1])[path[-1]] = 2.0 * limit + 1.0
        print("\npushing every ceiling metric past its limit:")
        if len(check(baseline, exceeded, threshold)) != len(ceilings):
            print("self-test FAILED: exceeded ceiling was not caught")
            return 1

    mismatched = copy.deepcopy(baseline)
    mismatched["config"]["quick"] = not mismatched["config"].get("quick")
    if not check(baseline, mismatched, threshold):
        print("self-test FAILED: config mismatch was not rejected")
        return 1

    wrong_isa = copy.deepcopy(baseline)
    wrong_isa["config"]["isa"] = (
        "baseline" if wrong_isa["config"].get("isa") != "baseline" else "avx2")
    if not check(baseline, wrong_isa, threshold):
        print("self-test FAILED: ISA tier mismatch was not rejected")
        return 1
    print(f"\nself-test OK ({suite_name}): identical copy passes, injected "
          f"regression trips all {len(suite['ratios'])} ratios, broken "
          f"identity, exceeded ceiling ({len(ceilings)}), config mismatch "
          "and ISA mismatch rejected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON (suite and workload "
                             "must match the fresh runs: the *_quick.json "
                             "baselines for --quick runs)")
    parser.add_argument("--fresh", action="append", default=[],
                        help="freshly measured BENCH json (repeatable; best "
                             "value per ratio wins)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated relative regression (default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate passes an identical copy and "
                             "fails an injected regression")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)

    if args.self_test:
        return self_test(baseline, args.threshold)

    if not args.fresh:
        parser.error("--fresh is required unless --self-test is given")
    fresh_docs = []
    for path in args.fresh:
        with open(path) as f:
            fresh_docs.append(json.load(f))
    suite = SUITES.get(suite_of(baseline), SUITES["kernels"])
    failures = check(baseline, merge_best(suite, fresh_docs), args.threshold)
    if failures:
        print("\nbench-regression gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
