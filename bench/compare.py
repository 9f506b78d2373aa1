"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines that ``run.py --out FILE`` appended.  One row per
workload and metric gives each side's median and quartiles, the ratio of the
medians (change / base) and a verdict against the metric's bound from
BENCHMARK.json: "worse" or "better" beyond the bound, "within" it, or
"unresolved" when either side's quartile spread, as a share of its median,
is wider than the bound; unresolved turns into "better" when every run of the
change beats every run of the base.  Per-layer metrics have no bound; their
rows show the ratio only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import SPEC

BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str) -> dict[tuple[str, str], list[float]]:
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        for name, metric in record["metrics"].items():
            runs[(record["workload"], name)].append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(name: str, base: list[float], change: list[float]) -> str:
    spec = BOUNDS.get(name)
    if spec is None:
        return ""
    bound, lower = spec["bound"], spec["better"] == "lower"
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    better_all = max(change) < min(base) if lower else min(change) > max(base)
    if bm == 0 or cm == 0 or (b3 - b1) / bm > bound or (c3 - c1) / cm > bound:
        return "better" if better_all else "unresolved"
    worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':14s} {'metric':38s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s} {'ratio':>7s}  verdict")
    for key in sorted(base.keys() & change.keys(), key=lambda k: (k[0], k[1] not in BOUNDS, k[1])):
        b, c = quartiles(base[key]), quartiles(change[key])
        ratio = f"{c[1] / b[1]:7.3f}" if b[1] else "    n/a"
        cells = [" / ".join(f"{v:.4g}" for v in side) + f" (n={len(runs)})" for side, runs in ((b, base[key]), (c, change[key]))]
        print(f"{key[0]:14s} {key[1]:38s} {cells[0]:>32s} {cells[1]:>32s} {ratio}  {verdict(key[1], base[key], change[key])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
