#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files or folders of them (``.perfbench/results``
by default holds every run).  For each workload, traced or not, and each
metric of BENCHMARK.json, prints both sides' median and quartiles and a
verdict for NEW against OLD:

worse       the median got worse by more than the metric's bound; for a
            per-layer metric (no bound), by more than OLD's quartile
            distance with NEW losing nine pairs in ten
unresolved  OLD's own quartile distance exceeds the bound, and not every
            NEW run beats every OLD run
improved    better by more than OLD's quartile distance, winning nine
            pairs in ten (pairs in run order)
unchanged   otherwise
missing     a side reports the metric's wrap target as gone
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MISSING = -1.0


def load_results(path: str) -> dict:
    """{(workload, trace): {metric: [values in run order]}}"""
    files = sorted(glob.glob(os.path.join(path, "**", "*.json"), recursive=True)) \
        if os.path.isdir(path) else [path]
    out: dict = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        if "workload" not in record or "metrics" not in record:
            continue
        metrics = out.setdefault((record["workload"], record["trace"]), {})
        for key, entry in record["metrics"].items():
            metrics.setdefault(key, []).append(entry["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better: str, bound: float | None) -> str:
    if MISSING in old or MISSING in new:
        return "missing"
    sign = 1.0 if better == "higher" else -1.0
    o1, o_med, o3 = quartiles(old)
    _, n_med, _ = quartiles(new)
    spread = o3 - o1
    gain = sign * (n_med - o_med)
    pairs = list(zip(old, new))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    all_better = (min(new) > max(old)) if sign > 0 else (max(new) < min(old))
    scale = abs(o_med) or 1.0
    if bound is not None:
        if gain < -bound * scale:
            return "worse"
        if spread > bound * scale and not all_better:
            return "unresolved"
    elif gain < 0 and -gain > spread and losses >= 0.9 * len(pairs):
        return "worse"
    if gain > spread and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(old: dict, new: dict, spec: dict) -> list[tuple]:
    defs = [(m, m.get("bound")) for m in spec["end_to_end"]] + \
           [(m, None) for m in spec["per_layer"]]
    rows = []
    for key in sorted(set(old) & set(new)):
        for metric, bound in defs:
            a = old[key].get(metric["name"])
            b = new[key].get(metric["name"])
            if not a or not b:
                continue
            rows.append((key[0], key[1], metric["name"], metric["unit"],
                         quartiles(a), quartiles(b),
                         verdict(a, b, metric["better"], bound)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    old, new = load_results(argv[0]), load_results(argv[1])
    rows = compare(old, new, spec)
    if not rows:
        print("no workload appears in both result sets", file=sys.stderr)
        return 1
    fmt = "{:<17} {:>1} {:<42} {:>33} {:>33}  {}"
    print(fmt.format("workload", "t", "metric", "old median [q1, q3]",
                     "new median [q1, q3]", "verdict"))
    for wl, trace, name, unit, (a1, am, a3), (b1, bm, b3), v in rows:
        print(fmt.format(wl, trace, f"{name} ({unit})",
                         f"{am:.4g} [{a1:.4g}, {a3:.4g}]",
                         f"{bm:.4g} [{b1:.4g}, {b3:.4g}]", v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
