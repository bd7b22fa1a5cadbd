#!/usr/bin/env python3
"""Compare BENCH_convergence.json records of two builds (baseline vs
candidate — in CI: the default portable-lane build vs the `simd`-feature
build), several records per build.

Fails (exit 1) if, for any workload present in every record:
  * `score_hash` differs between any two records — the builds (or two
    runs of one build) disagree bitwise, which breaks the engine's core
    contract; or
  * the candidate's kernel throughput regresses more than the allowed
    fraction (default 10%) against the baseline. Throughput is the warm
    full sweep's pairs per second, `pairs_evaluated.sweep` over
    `wall_clock_s.warm_sweep`, and each side reads the median over its
    records. A test-mode sweep lasts about 0.1 ms, and a whole process
    can run slow (every repeat of one record reading 2x), so one record
    per build is not enough to compare; give each side three records,
    taken alternately with the other side's.

Usage: check_kernel_parity.py --baseline B.json [B.json ...]
                              --candidate C.json [C.json ...]
                              [--max-regression 0.10]
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        record = json.load(f)
    return {w["workload"]: w for w in record["workloads"]}


def sweep_pps(workload):
    seconds = workload["wall_clock_s"]["warm_sweep"]
    pairs = workload["pairs_evaluated"]["sweep"]
    return pairs / seconds if seconds > 0 else 0.0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--baseline", nargs="+", required=True)
    parser.add_argument("--candidate", nargs="+", required=True)
    parser.add_argument("--max-regression", type=float, default=0.10)
    args = parser.parse_args()
    baseline = [load(p) for p in args.baseline]
    candidate = [load(p) for p in args.candidate]

    shared = sorted(set.intersection(*(set(r) for r in baseline + candidate)))
    if not shared:
        sys.exit("no workload common to every record")

    failures = []
    for name in shared:
        hashes = {r[name]["score_hash"] for r in baseline + candidate}
        if len(hashes) > 1:
            failures.append(
                f"{name}: bitwise divergence — score_hash values {sorted(hashes)}"
            )
        b_all = [sweep_pps(r[name]) for r in baseline]
        c_all = [sweep_pps(r[name]) for r in candidate]
        b_pps, c_pps = statistics.median(b_all), statistics.median(c_all)
        if b_pps > 0 and c_pps < (1.0 - args.max_regression) * b_pps:
            failures.append(
                f"{name}: kernel throughput regressed "
                f"{100.0 * (1.0 - c_pps / b_pps):.1f}% in the median "
                f"({b_pps:.3e} -> {c_pps:.3e} pairs/s, "
                f"allowed {100.0 * args.max_regression:.0f}%)"
            )
        status = "agrees" if len(hashes) == 1 else "DIVERGES"
        listed = lambda xs: ", ".join(f"{x:.3e}" for x in xs)
        print(
            f"{name}: score_hash {status} across {len(b_all) + len(c_all)} records, "
            f"kernel pps median {b_pps:.3e} [{listed(b_all)}] -> "
            f"{c_pps:.3e} [{listed(c_all)}]"
        )

    if failures:
        sys.exit("\n".join(["KERNEL PARITY FAILURES:"] + failures))
    print(f"kernel parity ok across {len(shared)} workload(s)")


if __name__ == "__main__":
    main()
