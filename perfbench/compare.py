#!/usr/bin/env python3
"""Compare two checkouts of the repository with alternating pairs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload sim-fio \
        --pairs 10 --seconds 16 [--trace 0]

Each pair runs the benchmark once in each checkout with the same seed,
alternating which side runs first. For every metric the report gives each
side's median and quartiles, how many pairs the change won, and whether a
gain can be claimed: the change must win at least nine tenths of the pairs
(ties count for neither side) and the medians must differ by more than the
parent's own spread (the distance between its quartiles).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{checkout}: outputs failed their checks\n{out.stdout}")
    return res["metrics"]


def better_lower(name):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        if m["name"] == name:
            return m["better"] == "lower"
    return name.endswith(("_ns", "_us", "_s", "_mb", "_pct", "per_op", "per_io"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=100)
    a = ap.parse_args()

    sides = {"parent": [], "change": []}
    for i in range(a.pairs):
        seed = a.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            sides[side].append(run(getattr(a, side), a.workload, seed, a.seconds, a.trace))
        print(f"pair {i + 1}/{a.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)

    print(f"{'metric':32} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'wins':>6}  verdict")
    for name in sides["parent"][0]:
        p = [m[name]["value"] for m in sides["parent"]]
        c = [m[name]["value"] for m in sides["change"]]
        lower = better_lower(name)
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        verdict = "gain" if wins >= 0.9 * a.pairs and gain > pq[2] - pq[0] else "no claim"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{name:32} {fmt(pq):>30} {fmt(cq):>30} {wins:>3}/{a.pairs}  {verdict}")


if __name__ == "__main__":
    main()
