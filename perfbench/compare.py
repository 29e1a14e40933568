#!/usr/bin/env python3
"""Compare two sets of benchmark results written by repeat.py.

    python3 perfbench/compare.py perfbench/out/base.jsonl perfbench/out/new.jsonl

For each workload and metric it prints the median of each file, the
ratio new/base, and each side's quartiles across its runs.  A metric whose
median moved the wrong way by more than its bound in BENCHMARK.json is
marked WORSE; a metric whose quartile spread is wider than its bound is
marked unresolved, since the runs cannot tell a change of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path) -> dict:
    """{(workload, metric): [values]} plus failed shares under (workload, "failed")."""
    out = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        result = row["result"]
        for name, metric in result["metrics"].items():
            out[(row["workload"], name)].append(metric["value"])
        out[(row["workload"], "failed/attempted")].append(
            result["failed"] / result["attempted"])
        out[(row["workload"], "correct")].append(float(result["correct"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def bounds(bench) -> dict:
    return {m["name"]: m for m in bench["end_to_end"]}


def print_spreads(data, bench) -> None:
    limits = bounds(bench)
    print(f"{'workload':14s} {'metric':20s} {'n':>3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for (workload, name), values in sorted(data.items()):
        q1, med, q3 = quartiles(values)
        bound = limits.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread(values) > bound / 3:
            flag = "  > bound/3"
        print(f"{workload:14s} {name:20s} {len(values):3d} {q1:12.6g} {med:12.6g} "
              f"{q3:12.6g} {spread(values):7.3f} "
              f"{'' if bound is None else bound:>6}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    limits = bounds(bench)
    base, new = load(args.base), load(args.new)
    print(f"{'workload':14s} {'metric':20s} {'base':>12s} {'new':>12s} {'ratio':>7s}"
          f"   base q1..q3 / new q1..q3")
    for key in sorted(set(base) | set(new)):
        workload, name = key
        if key not in base or key not in new:
            print(f"{workload:14s} {name:20s} only in {'new' if key in new else 'base'}")
            continue
        b, n = quartiles(base[key]), quartiles(new[key])
        ratio = n[1] / b[1] if b[1] else float("nan")
        note = ""
        if name in limits:
            m = limits[name]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if max(spread(base[key]), spread(new[key])) > m["bound"]:
                note = "unresolved"
            elif worse > m["bound"]:
                note = "WORSE"
        print(f"{workload:14s} {name:20s} {b[1]:12.6g} {n[1]:12.6g} {ratio:7.3f}"
              f"   {b[0]:.4g}..{b[2]:.4g} / {n[0]:.4g}..{n[2]:.4g}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
