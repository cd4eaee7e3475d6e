#!/usr/bin/env python3
"""Compare a parent and a change with this benchmark, in alternating pairs.

    python3 perfbench/compare.py --parent DIR --change DIR [--workloads W ...]
        [--heldout] [--claim METRIC@WORKLOAD ...]

Each DIR is the root of a checkout holding this same perfbench directory.
It always runs ten pairs, the fewest the rule below can judge.  Pair i runs
both sides on seed base+i for the run length of BENCHMARK.json, the parent
first on even i and the change first on odd i.  The base is the default
seed, or the held-out seed with --heldout.  A claim must name an end-to-end
metric of BENCHMARK.json and a workload being compared.

A claimed metric is met when the change wins at least nine tenths of the
pairs (ties count for neither) and the medians differ, in the better
direction, by more than the parent's interquartile range.  Every other
metric is "ok" when the change's median is no worse than the parent's by
more than the metric's bound, "REGRESSED" when it is, and "unresolved" when
either side's spread (IQR over median) exceeds the bound, unless every
change run is better than every parent run ("better").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]
PAIRS = 10


def bench_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "perfbench").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def collect(parent: Path, change: Path, workloads, base: int) -> list[dict]:
    rows = []
    for i in range(PAIRS):
        sides = (("parent", parent), ("change", change))
        if i % 2:
            sides = sides[::-1]
        for workload in workloads:
            for side, root in sides:
                result = run(root, workload, base + i, SPEC["run_seconds"])
                rows.append({"side": side, "pair": i, "workload": workload,
                             "seed": base + i, "result": result})
                print(f"pair {i} {workload} {side}: correct={result['correct']}",
                      file=sys.stderr, flush=True)
    return rows


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric: dict, parent: list, change: list, claimed: bool) -> str:
    """The rule in the module docstring, for one metric on one workload."""
    lower = metric["better"] == "lower"

    def better(c, p):
        return c < p if lower else c > p

    med_p, med_c = statistics.median(parent), statistics.median(change)
    gain = med_p - med_c if lower else med_c - med_p  # > 0: the change is better
    if claimed:
        wins = sum(better(c, p) for p, c in zip(parent, change))
        met = wins >= 0.9 * len(parent) and gain > iqr(parent)
        return "claim met" if met else "claim NOT met"
    if all(better(c, p) for c in change for p in parent):
        return "better"
    if max(iqr(parent) / abs(med_p), iqr(change) / abs(med_c)) > metric["bound"]:
        return "unresolved"
    if -gain / abs(med_p) > metric["bound"]:
        return "REGRESSED"
    return "ok"


def report(rows: list[dict], claims: set[tuple[str, str]]) -> bool:
    """One row per workload; returns False on a regression or a failed claim."""
    good = True
    workloads = list(dict.fromkeys(r["workload"] for r in rows))
    metrics = SPEC["end_to_end"]
    print(f"{'workload':<12} " + " ".join(f"{m['name']:>22}" for m in metrics))
    details = []
    for workload in workloads:
        mine = [r for r in rows if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["side"], r["pair"]): r["result"] for r in mine}
        failures = [f"{s}/{p}" for (s, p), res in by.items() if not res["correct"]]
        cells = []
        for metric in metrics:
            name = metric["name"]
            parent = [by["parent", p]["metrics"][name]["value"] for p in pairs]
            change = [by["change", p]["metrics"][name]["value"] for p in pairs]
            claimed = (name, workload) in claims
            v = verdict(metric, parent, change, claimed)
            good = good and v not in ("REGRESSED", "claim NOT met")
            med_p, med_c = statistics.median(parent), statistics.median(change)
            cells.append(f"{v} {100 * (med_c - med_p) / med_p:+.1f}%")
            for side, values in (("parent", parent), ("change", change)):
                q1, med, q3 = statistics.quantiles(values, n=4)
                details.append(f"  {workload} {name} {side}: median {med:.6g} "
                               f"quartiles {q1:.6g} {q3:.6g}")
        if failures:
            good = False
            cells.append(f"incorrect runs: {', '.join(failures)}")
        print(f"{workload:<12} " + " ".join(f"{c:>22}" for c in cells))
    print("\n".join(details))
    return good


def parse_claim(text: str) -> tuple[str, str]:
    metric, sep, workload = text.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected METRIC@WORKLOAD, got {text!r}")
    return metric, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--heldout", action="store_true",
                        help=f"seeds from the held-out seed {inputs.HELDOUT_SEED}")
    parser.add_argument("--claim", type=parse_claim, action="append", default=[])
    args = parser.parse_args(argv)
    for metric, workload in args.claim:
        if metric not in METRICS:
            parser.error(f"claim on {metric!r}: the end-to-end metrics are {METRICS}")
        if workload not in args.workloads:
            parser.error(f"claim on {workload!r}: the workloads compared are {args.workloads}")
    if bench_digest(args.parent) != bench_digest(args.change):
        parser.error("the two checkouts hold different benchmark code")
    base = inputs.HELDOUT_SEED if args.heldout else inputs.DEFAULT_SEED
    rows = collect(args.parent.resolve(), args.change.resolve(), args.workloads, base)
    return 0 if report(rows, set(args.claim)) else 1


if __name__ == "__main__":
    sys.exit(main())
