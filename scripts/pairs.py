#!/usr/bin/env python3
"""Compare two checkouts over alternating pairs of benchmark runs.

    python3 scripts/pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

once in PARENT and once in CHANGE, the parent first in even pairs and the
change first in odd ones, so that a slow spell of the machine hits both
sides alike.  For every end-to-end metric that BENCHMARK.json names it
prints each side's median and quartiles (inclusive method) over the pairs,
the number of pairs the change won (ties count for neither side), and
whether the rule for claiming a gain holds: the change wins at least nine
tenths of the pairs, and its median beats the parent's by more than the
parent's interquartile range.  A run that reports failed instances or
`"correct": false` is named.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [sys.executable, "perfbench/run.py"]
SECONDS = 10
METRICS = tuple((m["name"], m["unit"], m["better"]) for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"])
SIDES = ("parent", "change")


def _run(path: Path, args: list) -> dict:
    """The final JSON line of one benchmark run in the checkout at path."""
    out = subprocess.run(COMMAND + args, cwd=path, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile) of values."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list, change: list, better: str) -> dict:
    """Quartiles of each side, the change's wins and whether the claim rule holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    qp, qc = _quartiles(parent), _quartiles(change)
    gap = sign * (qp[1] - qc[1])                     # > 0 when the change's median is better
    iqr = qp[2] - qp[0]
    return {"parent": qp, "change": qc, "wins": wins, "pairs": len(parent), "gap": gap,
            "iqr": iqr, "holds": 10 * wins >= 9 * len(parent) and gap > iqr}


def pairs(parent, change, workload: str, count: int, seed: int) -> dict:
    """Run count alternating pairs and print every pair and each metric's verdict."""
    paths = dict(zip(SIDES, (Path(parent).resolve(), Path(change).resolve())))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
            "--trace", "0"]
    values = {side: {name: [] for name, _, _ in METRICS} for side in SIDES}
    for k in range(count):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        results = {side: _run(paths[side], args) for side in order}
        for side in SIDES:
            result = results[side]
            if result.get("failed") or not result.get("correct", True):
                print(f"pair {k + 1}: the {side} run failed {result.get('failed')} "
                      f"instances, correct={result.get('correct')}")
            for name, _, _ in METRICS:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"pair {k + 1}/{count} ({order[0]} first): " + ", ".join(
            f"{name} {values['parent'][name][-1]:.6g} -> {values['change'][name][-1]:.6g}"
            for name, _, _ in METRICS), flush=True)
    verdicts = {}
    for name, unit, better in METRICS:
        v = verdicts[name] = verdict(values["parent"][name], values["change"][name], better)
        print(f"{name} ({unit}, {better} is better), {workload} seed {seed}:")
        for side in SIDES:
            lo, mid, hi = v[side]
            print(f"  {side:6s} median {mid:.6g}, quartiles {lo:.6g} .. {hi:.6g}")
        moved = v["change"][1] - v["parent"][1]
        rel = f" (median {moved / abs(v['parent'][1]):+.1%})" if v["parent"][1] else ""
        print(f"  the change won {v['wins']} of {v['pairs']} pairs; its median is better by "
              f"{v['gap']:.6g}{rel} against a parent IQR of {v['iqr']:.6g}: the rule "
              f"{'holds' if v['holds'] else 'does not hold'}")
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, required=True, help="number of pairs to run")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    pairs(args.parent, args.change, args.workload, args.pairs, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
