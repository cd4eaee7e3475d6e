#!/usr/bin/env python3
"""Regenerate the simulation study comparing the two Bayes factor routes.

For every (cell size, effect variance g) condition this runs the configured
number of trials, prints per-effect five-number summaries of log BF10 for
both the BIC route and the Monte Carlo default-prior oracle, and reports
their decision consistency.  Conditions with the same cell size share a
seed, so the g = 0, 0.05, 0.2 runs are coupled and the evidence ordering is
visible trial by trial.  Results files compatible with `bicbf report` are
written next to a config file per condition.

The full study (three cell sizes, 1000 trials, 10000 oracle draws per
Bayes factor) takes on the order of ten minutes on one core; pass --quick
for a reduced smoke run, or --jobs to parallelize.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from bicbf import (
    GPriorSpec,
    SimulationConfig,
    run_simulation,
    summarize,
    write_config,
    write_records,
)

G_VALUES = (0.0, 0.05, 0.2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="study-results",
                        help="directory for results and config files")
    parser.add_argument("--cell-sizes", type=int, nargs="+", default=[20, 50, 80],
                        help="cell sizes to run (default: 20 50 80)")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--mc-samples", type=int, default=10_000,
                        help="oracle draws per Bayes factor")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--oracle-seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="100 trials, 1000 oracle draws: a fast smoke run")
    return parser.parse_args(argv)


def print_condition(summaries) -> None:
    header = ("effect", "route", "min", "q1", "median", "q3", "max", "consistency")
    print("  {:<7} {:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}".format(*header))
    for effect in ("A", "B", "AB"):
        summary = summaries[effect]
        for route, five in (("bic", summary.bic), ("default", summary.default)):
            cells = " ".join(f"{v:8.2f}" for v in five.as_tuple())
            print(f"  {effect:<7} {route:<8} {cells} {summary.consistency:>12.3f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    trials = 100 if args.quick else args.trials
    mc_samples = 1000 if args.quick else args.mc_samples
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for cell_n in args.cell_sizes:
        base = SimulationConfig(
            cell_n=cell_n, g=0.0, trials=trials, seed=args.seed,
            oracle=GPriorSpec(mc_samples=mc_samples, seed=args.oracle_seed),
        )
        for g in G_VALUES:
            config = replace(base, g=g)
            tag = f"cell{cell_n}_g{g:g}"
            start = time.perf_counter()
            records = run_simulation(config, n_jobs=args.jobs)
            elapsed = time.perf_counter() - start
            write_records(records, out_dir / f"results_{tag}.csv")
            write_config(config, out_dir / f"config_{tag}.txt")
            print(f"cell_n={cell_n} g={g:g} ({trials} trials, {elapsed:.1f} s)")
            print_condition(summarize(records))
            print()
    print(f"results written to {out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
