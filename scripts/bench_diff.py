#!/usr/bin/env python3
"""Diff two BENCH_scalar.json snapshots and print per-metric ratios.

Usage: bench_diff.py BASELINE.json FRESH.json

Prints one row per metric (ratio = fresh / baseline) and a WARNING line for
every shared metric that regressed by more than the threshold. Most metrics
are costs (lower is better): a ratio above the threshold is a regression.
The throughputs in HIGHER_IS_BETTER regress when the ratio falls below
1 / threshold instead. Always exits 0 — container benchmarks jitter by
+-10%, so the perf trajectory warns instead of failing CI; a genuine
regression shows up as the same warning on every run.

The committed BENCH_baseline.json at the repo root is the reference
snapshot; refresh it (and the README tables) whenever a PR intentionally
moves the numbers.
"""

import json
import sys

THRESHOLD = 1.15

# Throughputs and ratios where a larger value is the improvement.
HIGHER_IS_BETTER = frozenset({
    "mutation_ops_s",
    "replay_ops_s",
    "net_grant_revoke_ops",
    "index_churn_ratio",
})


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1]) as f:
            base = json.load(f)
        with open(sys.argv[2]) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot load inputs: {e}", file=sys.stderr)
        return 2

    width = max((len(k) for k in list(base) + list(fresh)), default=6)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  {'ratio':>7}")
    warnings = []
    for key in sorted(set(base) | set(fresh)):
        b, n = base.get(key), fresh.get(key)
        if b is None or n is None:
            present = "fresh" if b is None else "baseline"
            value = n if b is None else b
            print(f"{key:<{width}}  (only in {present}: {value:.2f})")
            continue
        ratio = n / b if b else float("inf")
        # How many times worse than the baseline: > 1 is a regression.
        if key in HIGHER_IS_BETTER:
            worse = b / n if n else float("inf")
        else:
            worse = ratio
        flag = "  <-- regression" if worse > THRESHOLD else ""
        print(f"{key:<{width}}  {b:12.2f}  {n:12.2f}  {ratio:7.3f}{flag}")
        if worse > THRESHOLD:
            warnings.append(
                f"bench_diff: WARNING: {key} regressed {worse:.2f}x "
                f"({b:.2f} -> {n:.2f})")
    for w in warnings:
        print(w, file=sys.stderr)
    if not warnings:
        print(f"bench_diff: no metric regressed beyond {THRESHOLD}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
