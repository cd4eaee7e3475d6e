#!/usr/bin/env python3
"""Check the Monte Carlo default-prior oracle against direct quadrature.

For a 2x2 design the tested main effect carries a single contrast column,
so its marginal Bayes factor is a one-dimensional integral of the
conditional Bayes factor against the Inverse-Gamma(1/2, r^2/2) prior on g.
This script draws random datasets, evaluates that integral with adaptive
quadrature, runs the Monte Carlo estimator on the same designs, and prints
both with their relative difference.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np
from scipy import integrate
from scipy.stats import invgamma

from bicbf import (
    DEFAULT_PRIOR_SCALE,
    FactorialDataset,
    GPriorSpec,
    conditional_bf10,
    default_bf10,
    fit_two_way,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", type=int, default=10)
    parser.add_argument("--mc-samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7000,
                        help="first dataset seed; consecutive seeds follow")
    parser.add_argument("--scale", type=float, default=DEFAULT_PRIOR_SCALE,
                        help="prior scale r")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    r_sq = args.scale * args.scale
    print(f"{'seed':>6} {'cell_n':>6} {'quadrature':>12} {'monte carlo':>12} "
          f"{'se(log)':>9} {'rel diff':>9}")
    worst = 0.0
    for seed in range(args.seed, args.seed + args.datasets):
        rng = np.random.default_rng(seed)
        cell_n = int(rng.integers(3, 7))
        y = 0.5 * rng.normal(size=(2, 2, 1)) + rng.normal(size=(2, 2, cell_n))
        data = FactorialDataset(2, 2, cell_n, y)
        table = fit_two_way(data)

        def integrand(g):
            return conditional_bf10(table, ("A",), g) * invgamma.pdf(g, a=0.5, scale=r_sq / 2)

        quad, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
        mc = default_bf10(
            data, "A", GPriorSpec(scale=args.scale, mc_samples=args.mc_samples, seed=13)
        )
        bf = math.exp(mc.log_bf)
        rel = (bf - quad) / quad
        worst = max(worst, abs(rel))
        print(f"{seed:>6} {cell_n:>6} {quad:>12.6f} {bf:>12.6f} "
              f"{mc.standard_error:>9.5f} {rel:>+9.5f}")
    print(f"largest |rel diff|: {worst:.5f}")
    return 0 if worst < 0.02 else 1


if __name__ == "__main__":
    sys.exit(main())
