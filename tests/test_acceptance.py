"""Acceptance gate: reference-value reproduction and randomized property suites.

Each criterion is one test so a verbose run shows one pass/fail line per
criterion.  The simulation fixtures are module-scoped and shared; the seeds
are pinned, so every quantity asserted here is deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import invgamma

from bicbf import (
    DEFAULT_PRIOR_SCALE,
    BayesFactorValue,
    FactorialDataset,
    SimulationConfig,
    bf01_from_delta_bic,
    bf01_from_f,
    bf01_from_partial_eta_sq,
    bf01_from_t,
    bic_bf_for_effect,
    classify,
    conditional_bf10,
    default_bf10,
    delta_bic_10,
    fit_two_way,
    invert,
    parse_stat,
    render_stat,
    run_simulation,
    summarize,
)
from conftest import random_dataset

# Consistency references for cell_n=50: effect -> {g: value}.  The AB
# values at g = 0.05 and g = 0.2 are the population rates of the documented
# design (alpha, tau, gamma i.i.d. N(0, g), unit noise, 2x3 grid, r =
# sqrt(2)/2) as derived by scripts/consistency_reference.py at its default
# seed (10 000 datasets x 4000 draws, standard error about 0.004).  The
# other seven entries agree with that derivation within the +-0.05 band.
REFERENCE_CONSISTENCY = {
    "A": {0.0: 0.985, 0.05: 0.984, 0.2: 0.987},
    "B": {0.0: 0.980, 0.05: 0.927, 0.2: 0.952},
    "AB": {0.0: 0.990, 0.05: 0.839, 0.2: 0.877},
}

# Five-number reference for the null-condition BIC log BF10 of effect A
# (max excluded: an extreme order statistic is too variable to pin down).
REFERENCE_NULL_FIVE = {"min": -2.85, "q1": -2.80, "median": -2.59, "q3": -2.17}


@pytest.fixture(scope="module")
def null_run_1000():
    config = SimulationConfig(
        cell_n=50, g=0.0, trials=1000, seed=2026,
    )
    return run_simulation(config)


@pytest.fixture(scope="module")
def alt_run_1000():
    config = SimulationConfig(
        cell_n=50, g=0.2, trials=1000, seed=2026,
    )
    return run_simulation(config)


@pytest.fixture(scope="module")
def desk_runs():
    """The three-condition study at desk scale; returns (summaries, elapsed)."""
    base = SimulationConfig(
        cell_n=50, g=0.0, trials=300, seed=2026,
    )
    start = time.perf_counter()
    summaries = {
        g: summarize(run_simulation(replace(base, g=g)))
        for g in (0.0, 0.05, 0.2)
    }
    return summaries, time.perf_counter() - start


def test_criterion_1_reported_f_example():
    assert bf01_from_f(2.584, 1, 17, 18).bf == pytest.approx(1.187, abs=0.0005)


def test_criterion_2_reported_t_example():
    assert bf01_from_t(2.0, 71, 73).bf == pytest.approx(1.16, abs=0.005)


def test_criterion_3_null_floor_and_sample_min(null_run_1000):
    # With N = 300 the BIC log BF10 of a df1=1 effect cannot fall below
    # -0.5*ln(300) = -2.852; a thousand null trials should come close.
    values = [r.log_bf10_bic for r in null_run_1000 if r.effect == "A"]
    floor = -0.5 * math.log(300)
    assert all(v >= floor - 1e-12 for v in values)
    assert -2.852 <= min(values) <= -2.80


def test_criterion_4_null_and_alternative_five_numbers(null_run_1000, alt_run_1000):
    summary = summarize(null_run_1000)["A"].bic
    got = {"min": summary.minimum, "q1": summary.q1, "median": summary.median,
           "q3": summary.q3}
    for key, want in REFERENCE_NULL_FIVE.items():
        assert got[key] == pytest.approx(want, abs=0.15), (
            f"null {key}: got {got[key]:.3f}, want {want} +- 0.15"
        )
    alt_median = summarize(alt_run_1000)["A"].bic.median
    assert alt_median == pytest.approx(6.76, abs=1.0), (
        f"g=0.2 median: got {alt_median:.3f}, want 6.76 +- 1.0"
    )


def test_criterion_5_consistency_reproduction(desk_runs):
    summaries, elapsed = desk_runs
    assert elapsed < 600, f"desk-scale study took {elapsed:.0f} s, budget 600 s"
    measured = {
        (effect, g): summaries[g][effect].consistency
        for effect in ("A", "B", "AB")
        for g in (0.0, 0.05, 0.2)
    }
    out_of_band = {
        key: (value, REFERENCE_CONSISTENCY[key[0]][key[1]])
        for key, value in measured.items()
        if abs(value - REFERENCE_CONSISTENCY[key[0]][key[1]]) > 0.05
    }
    detail = ", ".join(
        f"{effect} g={g}: got {got:.3f} want {want:.3f}"
        for (effect, g), (got, want) in sorted(out_of_band.items())
    )
    assert not out_of_band, f"consistency outside +-0.05 band: {detail}"


def test_criterion_6_oracle_matches_quadrature():
    r_sq = DEFAULT_PRIOR_SCALE**2
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        cell_n = int(rng.integers(3, 7))
        y = 0.5 * rng.normal(size=(2, 2, 1)) + rng.normal(size=(2, 2, cell_n))
        data = FactorialDataset(2, 2, cell_n, y)
        table = fit_two_way(data)

        def integrand(g):
            return conditional_bf10(table, ("A",), g) * invgamma.pdf(g, a=0.5, scale=r_sq / 2)

        want, err = integrate.quad(integrand, 0.0, np.inf, limit=200)
        assert err < 1e-6 * want
        got = default_bf10(data, "A")
        assert math.exp(got.log_bf) == pytest.approx(want, rel=1e-6), (
            f"dataset {seed}: oracle {math.exp(got.log_bf):.9f} vs quadrature {want:.9f}"
        )


def test_criterion_7a_route_equivalence():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        f = float(rng.uniform(0.0, 100.0))
        df1 = int(rng.integers(1, 7))
        df2 = int(rng.integers(2, 401))
        n = df1 + df2 + 1
        via_f = bf01_from_f(f, df1, df2, n).log_bf
        eta = f * df1 / (f * df1 + df2)
        via_eta = bf01_from_partial_eta_sq(eta, n, df1).log_bf
        via_sse = bf01_from_delta_bic(
            delta_bic_10(float(df2), f * df1 + df2, n, df1)
        ).log_bf
        assert via_eta == pytest.approx(via_f, rel=1e-10, abs=1e-12)
        assert via_sse == pytest.approx(via_f, rel=1e-10, abs=1e-12)


def test_criterion_7b_t_and_f_agree_exactly():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        t = float(rng.normal(0.0, 5.0))
        df2 = int(rng.integers(1, 201))
        n = int(rng.integers(2, 501))
        assert bf01_from_t(t, df2, n).log_bf == bf01_from_f(t * t, 1, df2, n).log_bf


def test_criterion_7c_sum_of_squares_partition():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        a = int(rng.integers(2, 5))
        b = int(rng.integers(2, 5))
        cell_n = int(rng.integers(2, 6))
        y = rng.normal(size=(a, b, 1)) + rng.normal(size=(a, b, cell_n))
        table = fit_two_way(FactorialDataset(a, b, cell_n, y))
        parts = table.ss("A") + table.ss("B") + table.ss("AB") + table.ss_error
        assert parts == pytest.approx(table.ss_total, rel=1e-8)


def test_criterion_7d_shift_and_scale_invariance():
    rng = np.random.default_rng(74)
    for case in range(1000):
        a = int(rng.integers(2, 4))
        b = int(rng.integers(2, 4))
        cell_n = int(rng.integers(2, 5))
        y = rng.normal(size=(a, b, 1)) + rng.normal(size=(a, b, cell_n))
        shift = float(rng.uniform(-50.0, 50.0))
        scale = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
        base = FactorialDataset(a, b, cell_n, y)
        moved = FactorialDataset(a, b, cell_n, y * scale + shift)
        t0, t1 = fit_two_way(base), fit_two_way(moved)
        g = float(rng.uniform(0.05, 5.0))
        for effect in ("A", "B", "AB"):
            assert t1.f(effect) == pytest.approx(t0.f(effect), rel=1e-10, abs=1e-12)
            lb0 = bic_bf_for_effect(t0, effect).log_bf
            lb1 = bic_bf_for_effect(t1, effect).log_bf
            assert lb1 == pytest.approx(lb0, abs=1e-9)
        c0 = conditional_bf10(t0, ("A",), g)
        c1 = conditional_bf10(t1, ("A",), g)
        assert math.log(c1) == pytest.approx(math.log(c0), abs=1e-9)
        if case % 20 == 0:
            d0 = default_bf10(base, "AB").log_bf
            d1 = default_bf10(moved, "AB").log_bf
            assert d1 == pytest.approx(d0, abs=1e-9)


def test_criterion_7e_invert_is_an_involution():
    rng = np.random.default_rng(75)
    for _ in range(1000):
        value = BayesFactorValue(
            float(rng.normal(0.0, 4.0)), str(rng.choice(["01", "10"]))
        )
        assert invert(invert(value)) == value
        # Inversion restates identical evidence, so its classification is
        # unchanged; flipping the log with the direction kept reverses the
        # favored hypothesis at the same strength.
        assert classify(invert(value)) == classify(value)
        if value.log_bf != 0.0:
            original = classify(value)
            negated = classify(BayesFactorValue(-value.log_bf, value.direction))
            assert negated.favored != original.favored
            assert negated.category == original.category


def test_criterion_7f_classification_boundaries():
    category_at = {1.0: "weak", 3.0: "weak", 20.0: "positive", 150.0: "strong"}
    category_above = {1.0: "weak", 3.0: "positive", 20.0: "strong",
                      150.0: "very strong"}
    rng = np.random.default_rng(76)
    for _ in range(1000):
        bound = float(rng.choice([1.0, 3.0, 20.0, 150.0]))
        sign = int(rng.choice([-1, 1]))
        direction = str(rng.choice(["01", "10"]))
        log_bf = sign * math.log(bound)
        at = classify(BayesFactorValue(log_bf, direction))
        assert at.category == category_at[bound]
        nudged = math.nextafter(abs(log_bf), math.inf)
        above = classify(BayesFactorValue(sign * nudged, direction))
        assert above.category == category_above[bound]
        if log_bf == 0.0:
            assert at.favored == "H0"
        else:
            toward_numerator = log_bf > 0
            wants_h0 = toward_numerator == (direction == "01")
            assert at.favored == ("H0" if wants_h0 else "H1")


def test_criterion_7g_parser_round_trip():
    rng = np.random.default_rng(77)

    def gap():
        return " " * int(rng.integers(0, 3))

    def cased(ch):
        return ch.upper() if rng.random() < 0.5 else ch.lower()

    for _ in range(1000):
        kind = str(rng.choice(["F", "t"]))
        decimals = int(rng.integers(0, 6))
        if kind == "F":
            df1 = int(rng.integers(1, 13))
            statistic = float(np.round(rng.gamma(2.0, 1.5), decimals))
        else:
            df1 = None
            statistic = float(np.round(rng.normal(0.0, 3.0), decimals))
        df2 = int(rng.integers(1, 501))
        parts = [cased(kind), gap(), "("]
        if kind == "F":
            parts += [gap(), str(df1), gap(), ","]
        parts += [gap(), str(df2), gap(), ")", gap(), "=", gap(), repr(statistic)]
        if rng.random() < 0.5:
            cmp = str(rng.choice(["=", "<", ">"]))
            p_val = float(np.round(rng.random(), int(rng.integers(1, 5))))
            parts += [gap(), ",", gap(), cased("p"), gap(), cmp, gap(), repr(p_val)]
        n_val = None
        if rng.random() < 0.5:
            n_val = int(rng.integers(2, 1001))
            parts += [gap(), ",", gap(), cased("n"), gap(), "=", gap(), str(n_val)]
        text = "".join(parts)

        stat = parse_stat(text).stat
        assert stat.kind == kind
        assert stat.statistic == statistic  # exact float capture
        assert (stat.df1, stat.df2, stat.n) == (df1, df2, n_val)
        assert parse_stat(render_stat(stat)).stat == stat


def test_criterion_7h_determinism():
    config = SimulationConfig(
        cell_n=4, g=0.1, trials=167, seed=31,
    )
    records = run_simulation(config)
    assert len(records) == 501
    assert run_simulation(config) == records
    # a trial's records depend only on the config and its trial number
    assert run_simulation(replace(config, trials=50)) == records[:150]


def test_criterion_8_median_ordering(desk_runs):
    summaries, _ = desk_runs
    for effect in ("A", "B", "AB"):
        for route in ("bic", "default"):
            medians = [
                getattr(summaries[g][effect], route).median for g in (0.0, 0.05, 0.2)
            ]
            assert medians[0] <= medians[1] <= medians[2], (
                f"{effect}/{route} medians not monotone in g: {medians}"
            )
