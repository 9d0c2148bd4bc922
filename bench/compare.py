#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of records written by
`bench/run.py --out`. For each (workload, metric) the table gives both
medians with their quartiles, the pairs AFTER won (runs paired by seed;
ties count for neither side) and a verdict:

- improved: AFTER won at least nine tenths of the pairs and the medians
  differ by more than BEFORE's own quartile spread;
- worse: AFTER's median is worse by more than the metric's bound, and
  BEFORE's spread is within the bound (or every AFTER run is worse than
  every BEFORE run);
- unresolved: BEFORE's spread is wider than the bound and neither side
  beats the other on every run;
- unchanged: otherwise, and always when every pair reads exactly the same
  (a deterministic count that did not move).

Bounds come from BENCHMARK.json; a metric it does not gate has bound 0, so
any move of a deterministic count is a verdict and noisy ungated timings
read as unresolved unless the runs separate completely.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, str], dict[int, tuple[float, str]]]:
    """(workload, metric) -> seed -> (value, better)."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        env = rec["env"]
        for name, m in rec["metrics"].items():
            out.setdefault((env["workload"], name), {})[env["seed"]] = (m["value"], m["better"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float) -> tuple[str, int]:
    sign = 1.0 if higher_is_better else -1.0
    q1a, med_a, q3a = quartiles(a)
    med_b = quartiles(b)[1]
    base = abs(med_a) or 1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and all(x == y for x, y in pairs):
        return "unchanged", wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > q3a - q1a:
        return "improved", wins
    spread = (q3a - q1a) / base
    worse_by = sign * (med_a - med_b) / base
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (x - y) > 0 for x in a for y in b)
    if worse_by > bound:
        return ("worse" if spread <= bound or all_worse else "unresolved"), wins
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    before, after = load(argv[0]), load(argv[1])
    print(f"{'workload':<15} {'metric':<52} {'before median [q1, q3]':>32} "
          f"{'after median [q1, q3]':>32} {'won':>6}  verdict")
    for key in sorted(set(before) & set(after)):
        workload, metric = key
        seeds = sorted(set(before[key]) & set(after[key]))
        a = [v for v, _ in before[key].values()]
        b = [v for v, _ in after[key].values()]
        higher = next(iter(before[key].values()))[1] == "higher"
        pairs = [(before[key][s][0], after[key][s][0]) for s in seeds]
        word, wins = verdict(a, b, pairs, higher, bounds.get(metric, 0.0))
        qa, qb = quartiles(a), quartiles(b)
        print(f"{workload:<15} {metric:<52} {qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}] "
              f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}] {wins:>3}/{len(pairs):<2}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
