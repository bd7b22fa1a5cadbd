#!/usr/bin/env python3
"""Compare two BENCH_convergence.json records (baseline vs candidate —
in CI: the default portable-lane build vs the `simd`-feature build).

Fails (exit 1) if, for any workload present in both records:
  * `score_hash` differs — the builds disagree bitwise, which breaks the
    engine's core contract; or
  * the candidate's kernel throughput regresses more than the allowed
    fraction (default 10%) against the baseline. Throughput is the warm
    full sweep's pairs per second, `pairs_evaluated.sweep` over
    `wall_clock_s.warm_sweep`: the evaluations of one sweep run over the
    best of the bench's repeats, so one scheduling hiccup in a short
    test-mode run does not halve it.

Usage: check_kernel_parity.py BASELINE.json CANDIDATE.json [max_regression]
"""

import json
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
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    baseline = load(sys.argv[1])
    candidate = load(sys.argv[2])
    max_regression = float(sys.argv[3]) if len(sys.argv) > 3 else 0.10

    shared = sorted(baseline.keys() & candidate.keys())
    if not shared:
        sys.exit("no common workloads between the two records")

    failures = []
    for name in shared:
        b, c = baseline[name], candidate[name]
        if b["score_hash"] != c["score_hash"]:
            failures.append(
                f"{name}: bitwise divergence — score_hash {b['score_hash']} "
                f"(baseline) vs {c['score_hash']} (candidate)"
            )
        b_pps = sweep_pps(b)
        c_pps = sweep_pps(c)
        if b_pps > 0 and c_pps < (1.0 - max_regression) * b_pps:
            failures.append(
                f"{name}: kernel throughput regressed "
                f"{100.0 * (1.0 - c_pps / b_pps):.1f}% "
                f"({b_pps:.3e} -> {c_pps:.3e} pairs/s, "
                f"allowed {100.0 * max_regression:.0f}%)"
            )
        print(
            f"{name}: score_hash {c['score_hash']} ok, "
            f"kernel pps {b_pps:.3e} -> {c_pps:.3e}"
        )

    if failures:
        sys.exit("\n".join(["KERNEL PARITY FAILURES:"] + failures))
    print(f"kernel parity ok across {len(shared)} workload(s)")


if __name__ == "__main__":
    main()
