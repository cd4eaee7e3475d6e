#!/usr/bin/env python3
"""Regenerate the simulation study comparing the two Bayes factor routes.

For every (cell size, effect variance g) condition this runs the configured
number of trials and prints the condition's table as `bicbf report` does:
per-effect trial counts and five-number summaries of log BF10 for both the
BIC route and the default-prior oracle, and their decision consistency.
Conditions with the same cell size share a seed, so the g = 0, 0.05, 0.2
runs are coupled and the evidence ordering is visible trial by trial.
Results files compatible with `bicbf report` are written next to a config
file per condition.

The full study (three cell sizes, 1000 trials) runs in one process, in
about 1 s on one core of a 2-vCPU x86-64 host; pass --quick for a
100-trial smoke run.  In one process the g = 0.05 and 0.2 runs of a cell
size reuse the g = 0 run's draws, so they draw nothing.  The nine
conditions are independent, so with more cores they may run as separate
`bicbf simulate` calls, but each such call draws its own.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import bicbf.cli
from bicbf import SimulationConfig, run_simulation, write_config, write_records

G_VALUES = (0.0, 0.05, 0.2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="study-results",
                        help="directory for results and config files")
    parser.add_argument("--cell-sizes", type=int, nargs="+", default=[20, 50, 80],
                        help="cell sizes to run (default: 20 50 80)")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--quick", action="store_true",
                        help="100 trials: a fast smoke run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    trials = 100 if args.quick else args.trials
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for cell_n in args.cell_sizes:
        base = SimulationConfig(cell_n=cell_n, g=0.0, trials=trials, seed=args.seed)
        for g in G_VALUES:
            config = replace(base, g=g)
            tag = f"cell{cell_n}_g{g:g}"
            start = time.perf_counter()
            records = run_simulation(config)
            elapsed = time.perf_counter() - start
            results = out_dir / f"results_{tag}.csv"
            write_records(records, results)
            write_config(config, out_dir / f"config_{tag}.txt")
            print(f"cell_n={cell_n} g={g:g} ({trials} trials, {elapsed:.1f} s)")
            code = bicbf.cli.main(["report", str(results)])
            if code:
                return code
            print()
    print(f"results written to {out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
