"""g-prior Bayes factors: dense-matrix oracle, limits, quadrature accuracy."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject
from scipy import integrate, optimize
from scipy.linalg import helmert
from scipy.special import betaln, log_expit, logsumexp
from scipy.stats import invgamma

import bicbf

from bicbf import (
    DEFAULT_PRIOR_SCALE,
    EFFECTS,
    DegenerateDataError,
    DomainError,
    FactorialDataset,
    GPriorSpec,
    SimulationConfig,
    bic_bf_for_effect,
    conditional_bf10,
    default_bf10,
    fit_two_way,
)
from bicbf.anova import _bic_log_bf10, _fit_block
from bicbf.gprior import (
    _LATTICES,
    _LOG_TAU_MIN,
    _PRIOR_SCALES,
    _RULE,
    _STENCIL,
    MODEL_PAIRS,
    _evaluate,
    _lagrange_matrix,
    _lattice,
    _log_conditional_bf10,
    _log_g_grid,
    _outer_rule,
    _outer_spacing,
    _setup,
)
from bicbf.simulate import generate_dataset, run_simulation
from conftest import block_of, random_dataset, random_tables, study_tables, table_of


def contrasts(levels: int) -> np.ndarray:
    """(levels, levels-1) basis of the sum-to-zero subspace, orthonormal columns."""
    return helmert(levels, full=False).T


def dense_design(data: FactorialDataset, effects) -> tuple[np.ndarray, list[np.ndarray]]:
    """Centered response and one contrast block per effect, in the listed order.

    The interaction block is the row-wise product of the two main-effect
    blocks.
    """
    a, b, cell_n = data.a_levels, data.b_levels, data.cell_n
    y = data.y.reshape(-1)  # (i, j, k) order
    qa = contrasts(a)[np.repeat(np.arange(a), b * cell_n)]
    qb = contrasts(b)[np.tile(np.repeat(np.arange(b), cell_n), a)]
    blocks = {
        "A": qa,
        "B": qb,
        "AB": (qa[:, :, None] * qb[:, None, :]).reshape(y.shape[0], -1),
    }
    return y - y.mean(), [blocks[e] for e in effects]


def dense_log_bf10(data: FactorialDataset, effects, g) -> float:
    """Reference evaluation that actually forms the N x N covariance."""
    y, blocks = dense_design(data, effects)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    x = np.hstack(blocks)
    col_g = np.repeat(g, [block.shape[1] for block in blocks])
    big = np.eye(y.shape[0]) + (x * col_g) @ x.T
    _, logdet = np.linalg.slogdet(big)
    quad = float(y @ np.linalg.solve(big, y))
    return -0.5 * logdet + 0.5 * (y.shape[0] - 1) * math.log(float(y @ y) / quad)


def exact_log_bf10(y: np.ndarray, effects, g) -> float:
    """Closed-form log BF10 from sums of squares computed exactly from ``y``.

    Every float is a dyadic rational, so Fraction arithmetic gives the sums
    of squares and the quadratic form q of the float data without rounding;
    only the final logarithms round.
    """
    a, b, cell_n = y.shape
    cells = [[[Fraction(float(v)) for v in y[i, j]] for j in range(b)] for i in range(a)]
    cell = [[sum(vals) / cell_n for vals in row] for row in cells]
    a_mean = [sum(row) / b for row in cell]
    b_mean = [sum(cell[i][j] for i in range(a)) / a for j in range(b)]
    grand = sum(a_mean) / a
    ss = {
        "A": b * cell_n * sum((m - grand) ** 2 for m in a_mean),
        "B": a * cell_n * sum((m - grand) ** 2 for m in b_mean),
        "AB": cell_n * sum(
            (cell[i][j] - a_mean[i] - b_mean[j] + grand) ** 2
            for i in range(a) for j in range(b)
        ),
    }
    ss_error = sum(
        (v - cell[i][j]) ** 2 for i in range(a) for j in range(b) for v in cells[i][j]
    )
    ss_total = sum((v - grand) ** 2 for row in cells for vals in row for v in vals)
    norms = {"A": b * cell_n, "B": a * cell_n, "AB": cell_n}
    dfs = {"A": a - 1, "B": b - 1, "AB": (a - 1) * (b - 1)}
    q = ss_error + sum(ss[e] for e in EFFECTS if e not in effects)
    log_det = 0.0
    for effect, g_e in zip(effects, g):
        shrink = 1 + norms[effect] * Fraction(g_e)
        q += ss[effect] / shrink
        log_det += dfs[effect] * math.log(shrink)
    return -0.5 * log_det + 0.5 * (a * b * cell_n - 1) * math.log(ss_total / q)


def quadrature_log_marginal(table, effects, nodes: int = 64) -> float:
    """log of int BF10(g) p(g) dg by a product Gauss-Legendre rule on log g.

    Every block gets the same rule on u = log g over [-12, 30]; the
    Inverse-Gamma(1/2, r^2/2) prior is negligible below and its tail times
    the conditional Bayes factor decays like e^-u above.  The integrand is
    the batched form of ``conditional_bf10``, checked against it below.
    """
    r_sq = DEFAULT_PRIOR_SCALE**2
    lo, hi = -12.0, 30.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    # log of weight * prior density * dg/du, with p(g) = Inverse-Gamma(1/2, r^2/2)
    log_node = (np.log(0.5 * (hi - lo) * w) + 0.5 * math.log(r_sq / 2)
                - math.lgamma(0.5) - 0.5 * u - r_sq / (2 * np.exp(u)))
    grid = np.stack(
        np.meshgrid(*[np.arange(nodes)] * len(effects), indexing="ij"), axis=-1
    ).reshape(-1, len(effects))
    g = np.exp(u)[grid]
    log_bf = _log_conditional_bf10(table, effects, g)
    for row in (0, len(g) // 2, len(g) - 1):
        assert log_bf[row] == pytest.approx(
            math.log(conditional_bf10(table, effects, g[row])), abs=1e-10
        )
    terms = log_bf + log_node[grid].sum(axis=1)
    top = float(np.max(terms))
    return top + math.log(float(np.sum(np.exp(terms - top))))


def assert_main_effect_matches_quadrature(data: FactorialDataset, spec: GPriorSpec) -> None:
    """BF10 of effect A within 1e-6 (relative) of adaptive quadrature.

    Effect A has an empty denominator model, so BF10 is the single integral
    int BF10(g) p(g) dg.
    """
    table = fit_two_way(data)
    r_sq = spec.scale**2

    def integrand(g):
        return conditional_bf10(table, ("A",), g) * invgamma.pdf(g, a=0.5, scale=r_sq / 2)

    want, err = integrate.quad(integrand, 0.0, np.inf, limit=200, epsabs=0.0, epsrel=1e-10)
    assert err < 1e-8 * want
    got = default_bf10(data, "A", spec)
    assert math.exp(got.log_bf) == pytest.approx(want, rel=1e-6)


def log_quad_main_effect(table, effect: str, scale: float) -> float:
    """log of int BF10(g) p(g) dg for a main effect, by adaptive quadrature on u = log g.

    Everything stays in logs, so it holds where the prior of g sits near
    1e-200 or 1e200.  scipy's ``quad`` runs over a window around the
    integrand's peak, located on a fine grid.
    """
    beta = scale * scale / 2

    def log_f(u):
        conditional = _log_conditional_bf10(table, (effect,), np.exp(u)[:, None])
        return 0.5 * math.log(beta / math.pi) - 0.5 * u - beta * np.exp(-u) + conditional

    grid = np.arange(math.log(beta) - 10, math.log(2 * beta) + 120, 0.01)
    values = log_f(grid)
    top, peak = float(values.max()), float(grid[values.argmax()])
    val, _ = integrate.quad(lambda u: math.exp(log_f(np.array([u]))[0] - top), grid[0], grid[-1],
                            points=[peak], limit=400, epsabs=0, epsrel=1e-12)
    return top + math.log(val)


def nested_quad_log_marginal(table, effects, scale: float = DEFAULT_PRIOR_SCALE) -> float:
    """log(Gamma(k) m_M) by adaptive quadrature of the Gamma-identity form.

    m_M = Gamma(k)^-1 int s^(k-1) e^(-s rho) prod_e I_e(s SS_e/SST) ds with
    k = (N-1)/2, as in ``bicbf.gprior``, but every integral goes to scipy's
    adaptive ``quad`` around its located peak instead of a fixed rule.
    """
    beta = scale * scale / 2
    k = (table.n_total - 1) / 2
    rho = (table.ss_error + sum(table.ss(e) for e in EFFECTS if e not in effects)) / table.ss_total

    def log_i(tau, effect):
        c, half_df = table.c(effect), table.df(effect) / 2

        def log_f(u):
            cg = c * math.exp(u)
            return (0.5 * math.log(beta / math.pi) - 0.5 * u - beta * math.exp(-u)
                    - half_df * math.log1p(cg) - tau / (1 + cg))

        peak = max(math.log(2 * beta), math.log(max(tau, 1e-300) / (c * (half_df + 0.5))))
        top = log_f(peak)
        val, _ = integrate.quad(lambda u: math.exp(log_f(u) - top), math.log(beta) - 8,
                                peak + 80, points=[peak], limit=400, epsabs=0, epsrel=1e-12)
        return top + math.log(val)

    def log_f(v):
        s = math.exp(v)
        return k * v - s * rho + sum(
            log_i(s * table.ss(e) / table.ss_total, e) for e in effects)

    mode = optimize.minimize_scalar(lambda v: -log_f(v), options={"xtol": 1e-10},
                                    bracket=(math.log(k) - 1, math.log(k / rho))).x
    top = log_f(mode)
    val, _ = integrate.quad(lambda v: math.exp(log_f(v) - top), mode - 80 / math.sqrt(k),
                            mode + 8, points=[mode], limit=400, epsabs=0, epsrel=1e-12)
    return top + math.log(val)


def table_bf10(table, effect: str, spec: GPriorSpec = GPriorSpec(), rule=_RULE) -> float:
    """log BF10 of ``effect`` by the oracle's rule, from a fitted table."""
    return float(_evaluate(_setup(block_of([table]), effect, spec.scale, rule))[0])


def direct_nested_log_bf10(table, effect, spec: GPriorSpec = GPriorSpec(), rule=_RULE) -> float:
    """log BF10 of ``effect`` by the nested rule with each log I_e taken directly.

    The rule without the lattice: at every outer node, each log I_e is a
    logsumexp over the table's own log-g grid, from 4 below log(r^2/2) to 35
    past the farthest posterior mode of g.  The outer rule and the grid's
    spacing are the oracle's.
    """
    setup = _setup(block_of([table]), effect, spec.scale, rule)
    k, (num, _) = setup.k, MODEL_PAIRS[effect]
    frac = np.array([table.ss(e) / table.ss_total for e in num])
    reach = math.log(k) + math.log(max(np.max(frac / setup.c), 1e-300)) - math.log(setup.rho[0])
    lo = math.log(setup.beta) - rule.g_below
    hi = max(math.log(2.0 * setup.beta), reach) + rule.g_above
    u, log_w = _log_g_grid(setup.beta, setup.g_step, rule,
                           math.ceil((hi - lo) / setup.g_step) + 1)
    shrink = 1.0 / (1.0 + setup.c[:, None] * np.exp(u))
    log_node = log_w + 0.5 * setup.df[:, None] * np.log(shrink)
    v = np.linspace(setup.lo, setup.hi[0], setup.count[0])
    log_i = logsumexp(log_node - (np.exp(v)[:, None] * frac)[:, :, None] * shrink, axis=-1)
    f_num = k * v - np.exp(v) * setup.rho[0] + log_i.sum(axis=1)
    f_den = k * v - np.exp(v) * setup.rho_den[0] + log_i[:, setup.den].sum(axis=1)
    return float(logsumexp(f_num) - logsumexp(f_den))


def near_constant_cells(noise: float) -> FactorialDataset:
    """Cells constant up to ``noise``; the extreme-g datasets below."""
    rng = np.random.default_rng(55)
    y = rng.normal(size=(2, 3, 1)) + noise * rng.normal(size=(2, 3, 4))
    return FactorialDataset(2, 3, 4, y)


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(314)
    y = 0.4 * rng.normal(size=(2, 3, 1)) + rng.normal(size=(2, 3, 5))
    return FactorialDataset(2, 3, 5, y)


class TestContrasts:
    @pytest.mark.parametrize("levels", range(2, 7))
    def test_orthonormal_and_sum_to_zero(self, levels):
        q = contrasts(levels)
        assert q.shape == (levels, levels - 1)
        assert np.allclose(q.T @ q, np.eye(levels - 1), atol=1e-12)
        assert np.allclose(q.sum(axis=0), 0.0, atol=1e-12)

    def test_design_gram_is_block_diagonal_with_known_norms(self):
        data = random_dataset(3, a=2, b=3, cell_n=4)
        _, blocks = dense_design(data, EFFECTS)
        x = np.hstack(blocks)
        # Balanced data: A columns have squared norm b*cell_n, B columns
        # a*cell_n, AB columns cell_n, and distinct columns are orthogonal.
        want = np.diag([12.0, 8.0, 8.0, 4.0, 4.0])
        assert np.allclose(x.T @ x, want, atol=1e-10)
        assert np.allclose(x.sum(axis=0), 0.0, atol=1e-10)
        block = _fit_block(data.y[None])
        norms = {e: block.c(e) for e in EFFECTS}
        assert [norms[e] for e in EFFECTS] == [12, 8, 4]


class TestConditionalAgainstDense:
    def test_single_column_eight_observations(self):
        y = np.array([1.2, -0.4, 0.3, 0.8, -1.1, 0.2, 0.5, -0.9]).reshape(2, 2, 2)
        data = FactorialDataset(2, 2, 2, y)
        table = fit_two_way(data)
        for g in (0.7, 0.05, 3.0):
            got = conditional_bf10(table, ("A",), g)
            want = math.exp(dense_log_bf10(data, ("A",), g))
            assert got == pytest.approx(want, rel=1e-12)

    def test_three_blocks_twelve_observations(self):
        data = random_dataset(21, a=2, b=3, cell_n=2)
        table = fit_two_way(data)
        for g in ((0.7, 0.3, 1.5), (0.01, 0.01, 0.01), (12.0, 0.2, 4.0)):
            got = conditional_bf10(table, ("A", "B", "AB"), g)
            want = math.exp(dense_log_bf10(data, ("A", "B", "AB"), g))
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_designs(self, seed):
        data = random_dataset(seed + 400, cell_n=3)
        rng = np.random.default_rng(seed)
        g = rng.gamma(1.0, 1.0, size=2) + 0.01
        assert conditional_bf10(fit_two_way(data), ("A", "B"), g) == pytest.approx(
            math.exp(dense_log_bf10(data, ("A", "B"), g)), rel=1e-10
        )

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 4)], ids=["2x2", "2x3", "3x4"])
    def test_every_model_on_each_shape(self, shape):
        # On 3x4 every block has several columns and c_A, c_B, c_AB differ.
        a, b = shape
        data = random_dataset(77 + a * b, a=a, b=b, cell_n=3)
        table = fit_two_way(data)
        rng = np.random.default_rng(a * b)
        for size in (1, 2, 3):
            for effects in combinations(EFFECTS, size):
                g = rng.gamma(1.0, 1.0, size=size) + 0.01
                assert math.log(conditional_bf10(table, effects, g)) == pytest.approx(
                    dense_log_bf10(data, effects, g), abs=1e-10
                ), effects


class TestConditionalProperties:
    def test_vanishing_g_gives_unit_bayes_factor(self):
        table = fit_two_way(random_dataset(8))
        g = np.full(3, 1e-10)
        assert conditional_bf10(table, ("A", "B", "AB"), g) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_response_reduces_to_determinant_penalty(self):
        # Zero cell means with a +-1 within-cell pattern: X'y = 0 exactly,
        # so only the shrinkage determinant survives and BF10 < 1.
        y = np.zeros((2, 3, 4))
        y[:, :, 0::2] = 1.0
        y[:, :, 1::2] = -1.0
        table = fit_two_way(FactorialDataset(2, 3, 4, y))
        g = np.array([0.9, 0.4, 2.0])
        col_g = np.repeat(g, [1, 2, 2])
        col_norms = np.array([12.0, 8.0, 8.0, 4.0, 4.0])
        want = float(np.prod(1.0 + col_g * col_norms) ** -0.5)
        got = conditional_bf10(table, ("A", "B", "AB"), g)
        assert got == pytest.approx(want, rel=1e-12)
        assert got < 1.0

    @pytest.mark.parametrize("scale", [2.0**6, 2.0**-4])
    def test_power_of_two_rescaling_is_exact(self, scale):
        data = random_dataset(15, a=2, b=2, cell_n=3)
        scaled = FactorialDataset(2, 2, 3, data.y * scale)
        for g in (0.3, 1.0, 7.5):
            base = conditional_bf10(fit_two_way(data), ("A", "AB"), (g, 2 * g))
            moved = conditional_bf10(fit_two_way(scaled), ("A", "AB"), (g, 2 * g))
            assert moved == base

    def test_empty_design_is_exactly_one(self):
        table = fit_two_way(random_dataset(2))
        assert conditional_bf10(table, (), np.empty(0)) == 1.0

    def test_g_follows_the_listed_effect_order(self):
        table = fit_two_way(random_dataset(4, a=2, b=3))
        assert conditional_bf10(table, ("AB", "A"), (0.3, 2.0)) == pytest.approx(
            conditional_bf10(table, ("A", "AB"), (2.0, 0.3)), rel=1e-14
        )

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    @pytest.mark.parametrize("g", [1e10, 1e14, 1e18])
    def test_extreme_g_matches_exact_sums_of_squares(self, noise, g):
        # Constant (or nearly constant) cells leave q far below SST at large
        # g; the quadratic form must not be obtained by cancellation.
        data = near_constant_cells(noise)
        table = fit_two_way(data)
        got = math.log(conditional_bf10(table, EFFECTS, (g, g, g)))
        assert got == pytest.approx(exact_log_bf10(data.y, EFFECTS, (g, g, g)), abs=1e-9)


class TestValidation:
    def test_spec_rejects_bad_values(self):
        # mc_samples and seed are ignored by the oracle but still validated
        with pytest.raises(DomainError, match="scale"):
            GPriorSpec(scale=0.0)
        with pytest.raises(DomainError, match="scale must be finite and positive, got inf"):
            GPriorSpec(scale=math.inf)
        with pytest.raises(DomainError, match="mc_samples"):
            GPriorSpec(mc_samples=999)
        with pytest.raises(DomainError, match="seed"):
            GPriorSpec(seed=-1)

    @pytest.mark.parametrize("scale", [1e-101, 1e-200, 5e-324, 1.01e100, 1e200, 1.7e308])
    def test_prior_scale_outside_the_supported_range(self, scale):
        # beyond the range the rule's weights leave the double range
        assert _PRIOR_SCALES == (1e-100, 1e100)
        with pytest.raises(DomainError, match=r"scale must lie in \[1e-100, 1e\+100\]"):
            GPriorSpec(scale=scale)

    def test_unknown_effect(self):
        data = random_dataset(0)
        with pytest.raises(DomainError, match="effect"):
            default_bf10(data, "C")
        table = fit_two_way(data)
        with pytest.raises(DomainError, match="unknown effects"):
            conditional_bf10(table, ("A", "Q"), (0.5, 0.5))
        with pytest.raises(DomainError, match="distinct"):
            conditional_bf10(table, ("A", "A"), (0.5, 0.5))

    def test_g_shape_and_sign_checks(self):
        table = fit_two_way(random_dataset(1))
        with pytest.raises(DomainError, match="g components"):
            conditional_bf10(table, ("A", "B"), 0.5)
        with pytest.raises(DomainError, match="positive"):
            conditional_bf10(table, ("A", "B"), (0.5, -0.5))

    def test_a_string_names_one_effect(self):
        # "AB" was read as the effects A and B: a scalar g was refused, and
        # two components gave the A+B model's value
        data = random_dataset(1, a=2, b=3, cell_n=5)
        table = fit_two_way(data)
        got = conditional_bf10(table, "AB", 1.0)
        assert got == conditional_bf10(table, ("AB",), 1.0)
        assert math.log(got) == pytest.approx(dense_log_bf10(data, ("AB",), 1.0), abs=1e-10)
        with pytest.raises(DomainError, match="need 1 g components"):
            conditional_bf10(table, "AB", [1, 1])

    def test_constant_data_rejected(self):
        data = FactorialDataset(2, 2, 2, np.full((2, 2, 2), 0.1))
        with pytest.raises(DegenerateDataError, match="constant response"):
            default_bf10(data, "A")

    def test_zero_response_rejected_in_conditional(self):
        table = fit_two_way(FactorialDataset(2, 2, 2, np.zeros((2, 2, 2))))
        with pytest.raises(DegenerateDataError, match="constant response"):
            conditional_bf10(table, ("A",), 0.5)

    def test_sums_of_squares_beyond_the_double_range_are_named(self):
        # SS_A and SST overflow to inf while SSE is finite: the residual of
        # model A is not zero, and B's window is not negative
        y = generate_dataset(SimulationConfig(cell_n=3, g=0.2, trials=1, seed=1), 0).y.copy()
        y[0] += 1e200
        data = FactorialDataset(2, 3, 3, y)
        table = fit_two_way(data)
        assert math.isinf(table.ss("A")) and math.isinf(table.ss_total)
        assert math.isfinite(table.ss_error) and table.overflowed
        good = fit_two_way(random_dataset(1, a=2, b=3, cell_n=3))
        message = "sums of squares left the double range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for effect in EFFECTS:
                with pytest.raises(DomainError, match=message):
                    bic_bf_for_effect(table, effect)
                with pytest.raises(DomainError, match=message):
                    _bic_log_bf10(block_of([good, table]), effect)
                with pytest.raises(DomainError, match=message):
                    default_bf10(data, effect)
                with pytest.raises(DomainError, match=message):
                    conditional_bf10(table, effect, 1.0)
                with pytest.raises(DomainError, match=message):
                    _setup(block_of([good, table]), effect, DEFAULT_PRIOR_SCALE)
            with pytest.raises(DomainError, match=message):
                conditional_bf10(table, EFFECTS, (1.0, 2.0, 3.0))
            assert conditional_bf10(table, (), ()) == 1.0

    @pytest.mark.parametrize(
        "value, shape", [(0.1, (2, 3, 3)), (0.3, (3, 4, 5)), (1 / 3, (3, 4, 5))]
    )
    def test_constant_nonzero_response_rejected_in_conditional(self, value, shape):
        # Rounding in the means must not leave a tiny SST that passes for data.
        table = fit_two_way(FactorialDataset(*shape, np.full(shape, value)))
        with pytest.raises(DegenerateDataError, match="constant response"):
            conditional_bf10(table, ("A", "B", "AB"), (0.5, 0.5, 0.5))


class TestDefaultBf10:
    def test_reruns_give_the_same_bits(self, small_dataset):
        for effect in ("A", "B", "AB"):
            one = default_bf10(small_dataset, effect)
            two = default_bf10(small_dataset, effect)
            assert one.log_bf.hex() == two.log_bf.hex()
            # the Monte Carlo settings that remain are ignored
            other = default_bf10(small_dataset, effect, GPriorSpec(mc_samples=5000, seed=3), 7)
            assert other.log_bf.hex() == one.log_bf.hex()

    def test_result_fields(self, small_dataset):
        got = default_bf10(small_dataset, "AB")
        assert got.direction == "10"
        assert math.isfinite(got.log_bf)
        assert got.standard_error == 0.0

    def test_default_prior_scale_value(self):
        assert DEFAULT_PRIOR_SCALE == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
        assert GPriorSpec().scale == DEFAULT_PRIOR_SCALE

    def test_power_of_two_rescaling_is_exact(self, small_dataset):
        scaled = FactorialDataset(2, 3, 5, small_dataset.y * 2.0**5)
        for effect in ("A", "B", "AB"):
            assert default_bf10(scaled, effect).log_bf == default_bf10(small_dataset, effect).log_bf

    @pytest.mark.parametrize("seed", [1, 4, 6])
    def test_interaction_is_a_ratio_of_marginal_likelihoods(self, seed):
        # AB compares the full model with A+B, so BF10 is
        # int BF_full p / int BF_A+B p.  On these 2x2 datasets the mean of
        # per-draw ratios BF_full/BF_A+B misses that by 0.03 to 0.3 in log BF.
        data = random_dataset(seed, a=2, b=2, cell_n=3)
        table = fit_two_way(data)
        want = quadrature_log_marginal(
            table, ("A", "B", "AB")
        ) - quadrature_log_marginal(table, ("A", "B"))
        got = default_bf10(data, "AB")
        assert got.log_bf == pytest.approx(want, abs=1e-4)

    def test_matches_quadrature_for_main_effect(self, small_dataset):
        assert_main_effect_matches_quadrature(small_dataset, GPriorSpec())

    @pytest.mark.parametrize("seed", range(7000, 7010))
    def test_matches_quadrature_on_single_contrast_designs(self, seed):
        rng = np.random.default_rng(seed)
        cell_n = int(rng.integers(3, 7))
        y = 0.5 * rng.normal(size=(2, 2, 1)) + rng.normal(size=(2, 2, cell_n))
        assert_main_effect_matches_quadrature(FactorialDataset(2, 2, cell_n, y), GPriorSpec())

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_prior_scale_reaches_the_quadrature(self, small_dataset, scale):
        assert_main_effect_matches_quadrature(small_dataset, GPriorSpec(scale=scale))

    @pytest.mark.parametrize("scale", _PRIOR_SCALES, ids=["smallest", "largest"])
    def test_matches_quadrature_at_the_ends_of_the_prior_scale_range(self, small_dataset, scale):
        # At 1e-100 the prior puts g near 1e-200, where BF10(g) is 1, so
        # log BF10 is 0 (the rule reads -4e-11); at 1e100 it puts g near
        # 1e200, where log BF10 is -231 for A and -462 for B.
        table = fit_two_way(small_dataset)
        for effect in ("A", "B"):
            want = log_quad_main_effect(table, effect, scale)
            got = default_bf10(small_dataset, effect, GPriorSpec(scale=scale)).log_bf
            assert got == pytest.approx(want, abs=1e-8)
            assert math.isfinite(default_bf10(small_dataset, "AB", GPriorSpec(scale=scale)).log_bf)


class TestNullCalibration:
    """E_H0[BF10] = 1, a law rather than another quadrature of the same integrand.

    BF10 of a main effect e depends on the data only through R = SS_e/SST,
    and under the intercept-only model R ~ Beta(df_e/2, (N - 1 - df_e)/2).
    The Bayes factor is a ratio of densities of that invariant, so
    int BF10(R) Beta(R) dR = 1 for every proper prior on g: the identity
    checks the set-up, the lattice and the outer rule, but not the prior
    scale or c_e.
    """

    @pytest.mark.parametrize("scale", [0.5, DEFAULT_PRIOR_SCALE, 1.0])
    @pytest.mark.parametrize("a, b, cell_n", [(2, 3, 50), (2, 2, 3), (4, 5, 3), (3, 3, 10)])
    @pytest.mark.parametrize("effect", ["A", "B"])
    def test_the_null_mean_of_bf10_is_one(self, effect, a, b, cell_n, scale):
        df = (a if effect == "A" else b) - 1
        alpha, beta = df / 2, (a * b * cell_n - 1 - df) / 2

        def integrand(t):
            # t = logit R, so dR = R (1 - R) dt; the rest of SST is error
            log_r, log_rest = float(log_expit(t)), float(log_expit(-t))
            ss = {"A": 0.0, "B": 0.0, effect: math.exp(log_r)}
            table = table_of(a, b, cell_n, ss["A"], ss["B"], 0.0, math.exp(log_rest), 1.0)
            log_bf10 = table_bf10(table, effect, GPriorSpec(scale=scale))
            return math.exp(log_bf10 + alpha * log_r + beta * log_rest - betaln(alpha, beta))

        # a break near the null's mode, and a window whose tails hold below 1e-17;
        # at t = 250 the residual share e^-250 is still inside the oracle's range
        mode = math.log(alpha / beta)
        mean, err = integrate.quad(integrand, -80.0, 250.0, points=[mode], limit=200,
                                   epsabs=1e-13, epsrel=1e-13)
        # a log BF off by at most 1.5e-9 (module docstring) moves the mean by as much
        assert abs(mean - 1.0) <= 1.5e-9 + 2.0 * err, (mean - 1.0, err)


def finer_rule(factor: int = 4):
    """The default rule with every spacing divided by ``factor`` and wider windows."""
    return replace(
        _RULE,
        g_step=_RULE.g_step / factor,
        g_below=_RULE.g_below + 2.0,
        g_above=1.5 * _RULE.g_above,
        s_step=_RULE.s_step / factor,
        s_max_step=_RULE.s_max_step / factor,
        s_edge=2.0 * _RULE.s_edge,
        tau_step=_RULE.tau_step / factor,
    )


class TestQuadratureRule:
    def test_within_bound_of_a_four_times_finer_rule(self):
        fine = finer_rule(4)
        worst = 0.0
        for table in study_tables():
            for effect in ("A", "B", "AB"):
                got = table_bf10(table, effect, GPriorSpec())
                want = table_bf10(table, effect, GPriorSpec(), fine)
                worst = max(worst, abs(got - want))
        assert worst <= 1e-8

    @pytest.mark.parametrize("a, b, cell_n", [(3, 4, 5), (5, 5, 3)], ids=["3x4", "5x5"])
    def test_within_bound_of_a_four_times_finer_rule_across_prior_scales(self, a, b, cell_n):
        # Blocks of up to 16 contrasts and prior scales from 0.05 to 10,
        # beyond the study designs.
        fine = finer_rule(4)
        worst = 0.0
        for seed in range(6):
            for effect_scale in (1.0, 3.0):
                data = random_dataset(seed, a=a, b=b, cell_n=cell_n, effect_scale=effect_scale)
                table = fit_two_way(data)
                for scale in (0.05, DEFAULT_PRIOR_SCALE, 10.0):
                    spec = GPriorSpec(scale=scale)
                    for effect in ("A", "B", "AB"):
                        got = table_bf10(table, effect, spec)
                        want = table_bf10(table, effect, spec, fine)
                        worst = max(worst, abs(got - want))
        assert worst <= 1e-8

    @pytest.mark.parametrize("effect", list(MODEL_PAIRS))
    def test_interaction_within_bound_of_the_direct_rule(self, effect):
        # The lattice's interpolation error, against log I_e taken at every
        # outer node on the table's own log-g grid; for the main effects'
        # pairs as for the interaction's.
        worst = max(abs(table_bf10(table, effect, GPriorSpec())
                        - direct_nested_log_bf10(table, effect)) for table in study_tables())
        assert worst <= 1e-10

    @pytest.mark.parametrize("effect", list(MODEL_PAIRS))
    @pytest.mark.parametrize("scale", [0.05, DEFAULT_PRIOR_SCALE, 10.0])
    @pytest.mark.parametrize("a, b, cell_n", [(3, 4, 5), (5, 5, 3)], ids=["3x4", "5x5"])
    def test_interaction_within_bound_of_the_direct_rule_across_prior_scales(
        self, a, b, cell_n, scale, effect
    ):
        # At r = 0.05 the prior's bulk and its tail trade places within a
        # few hundredths of log tau on the 16-contrast block of 5x5; the
        # lattice step is set by this bound there.
        spec = GPriorSpec(scale=scale)
        worst = 0.0
        for seed in range(6):
            for effect_scale in (1.0, 3.0):
                table = fit_two_way(random_dataset(seed, a=a, b=b, cell_n=cell_n,
                                                   effect_scale=effect_scale))
                got = table_bf10(table, effect, spec)
                worst = max(worst, abs(got - direct_nested_log_bf10(table, effect, spec)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_main_effects_on_near_constant_cells(self, noise):
        # The error variance is (almost) zero, F is huge, but A and B leave
        # the other effects in their residual, which keeps rho_A, rho_B away
        # from zero.
        data = near_constant_cells(noise)
        for effect in ("A", "B"):
            got = default_bf10(data, effect).log_bf
            assert math.isfinite(got)
        assert_main_effect_matches_quadrature(data, GPriorSpec())
        swapped = FactorialDataset(3, 2, 4, np.swapaxes(data.y, 0, 1))
        assert default_bf10(swapped, "A").log_bf == pytest.approx(
            default_bf10(data, "B").log_bf, abs=1e-12)
        assert_main_effect_matches_quadrature(swapped, GPriorSpec())

    def test_interaction_on_near_constant_cells(self):
        # rho of the full model is 4e-19: the posterior of g sits beyond 1e16,
        # far outside the prior's bulk, and the old Monte Carlo read 35
        # where the integral is 291.
        data = near_constant_cells(1e-9)
        table = fit_two_way(data)
        want = nested_quad_log_marginal(table, EFFECTS) - nested_quad_log_marginal(
            table, ("A", "B"))
        got = default_bf10(data, "AB").log_bf
        assert want > 290
        assert got == pytest.approx(want, abs=1e-8)

    def test_exact_fit_of_the_full_model_is_degenerate(self):
        # With zero error variance the full model's marginal likelihood
        # diverges, so BF10 of AB is infinite; say so instead of a number.
        data = near_constant_cells(0.0)
        assert fit_two_way(data).ss_error == 0.0
        with pytest.raises(DegenerateDataError, match="diverges"):
            default_bf10(data, "AB")

    def test_error_variance_beyond_the_double_range_is_degenerate(self):
        # SSE/SST = 1e-200: the posterior of g would peak near 1e200, where
        # the rule's squares leave the double range.  The main effects keep
        # the interaction in their residual and stay computable.
        y = np.empty((2, 2, 2))
        y[0, 0], y[0, 1], y[1, 0], y[1, 1] = [1.0, -1.0], 1e100, -1e100, 3e100
        data = FactorialDataset(2, 2, 2, y)
        with pytest.raises(DegenerateDataError, match="double range"):
            default_bf10(data, "AB")
        assert math.isfinite(default_bf10(data, "A").log_bf)

    def test_near_degenerate_interaction_in_bounded_memory(self):
        # SSE/SST = 1e-121: the outer window spans about 290 in log s, some
        # 1460 nodes over a log-g grid of about 800, evaluated in slices.
        y = np.empty((2, 2, 2))
        y[0, 0], y[0, 1], y[1, 0], y[1, 1] = [1.0, -1.0], 1e60, -1e60, 3e60
        data = FactorialDataset(2, 2, 2, y)
        tracemalloc.start()
        try:
            got = default_bf10(data, "AB").log_bf
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(140.52462567479384, abs=1e-9)
        assert peak < 16 * 2**20


class TestSharedOuterGrid:
    @given(random_tables())
    def test_denominator_window_lies_inside_the_numerators(self, table):
        # Both marginals of a nested pair are summed on the numerator's outer
        # nodes.  That holds the denominator to its own rule because its
        # window starts at the same lo and ends no later, and the shared
        # nodes are no farther apart than its own rule allows.
        for effect, (num, den) in MODEL_PAIRS.items():
            try:
                setup = _setup(block_of([table]), effect, DEFAULT_PRIOR_SCALE)
            except DegenerateDataError:
                reject()
            assert setup.rho_den[0] >= setup.rho[0]
            lo, hi, _ = _outer_rule(setup.k, setup.rho_den)
            assert lo == setup.lo
            assert hi[0] <= setup.hi[0]
            assert setup.step[0] <= _outer_spacing(setup.k)
            assert list(setup.den) == [e in den for e in num]


def desk_records_bits() -> list[str]:
    config = SimulationConfig(cell_n=50, g=0.2, trials=40, seed=1)
    return [r.log_bf10_default.hex() for r in run_simulation(config)]


DESK_RECORDS = """
from bicbf import SimulationConfig, run_simulation
config = SimulationConfig(cell_n=50, g=0.2, trials=40, seed=1)
print(" ".join(r.log_bf10_default.hex() for r in run_simulation(config)))
"""


class TestLattice:
    def test_records_do_not_depend_on_what_the_cache_holds(self):
        _lattice.cache_clear()
        empty = desk_records_bits()
        spec = GPriorSpec()
        reached = _lattice(50.0, 2.0, 0.5 * spec.scale**2, _RULE.g_step, _RULE).coef.shape[1]
        # SSE/SST = 1e-100 on the desk design: the interaction's lattices,
        # built afresh, reach some 235 past the study's end in log tau
        _lattice.cache_clear()
        table = table_of(2, 3, 50, 1.0, 2.0, 3.0, 6e-100, 6.0 + 6e-100)
        assert math.isfinite(table_bf10(table, "AB", spec))
        lattice = _lattice(50.0, 2.0, 0.5 * spec.scale**2, _RULE.g_step, _RULE)
        assert lattice.coef.shape[1] > reached + 200 / _RULE.tau_step
        assert desk_records_bits() == empty
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        fresh = subprocess.run([sys.executable, "-c", DESK_RECORDS], env=env, check=True,
                               capture_output=True, text=True).stdout.split()
        assert fresh == empty

    def test_one_trial_gives_its_block_value(self):
        config = SimulationConfig(cell_n=50, g=0.2, trials=40, seed=1)
        bits = desk_records_bits()
        for trial in (0, 17, 39):
            data = generate_dataset(config, trial)
            for column, effect in enumerate(EFFECTS):
                got = default_bf10(data, effect, config.oracle).log_bf.hex()
                assert got == bits[3 * trial + column], (trial, effect)

    def test_nodes_are_read_back_exactly_and_small_tau_is_tau_zero(self):
        lattice = _lattice(50.0, 2.0, 0.25, _RULE.g_step, _RULE)
        j = np.arange(-400, 400, 37)
        at_nodes = lattice.log_i(j * _RULE.tau_step)
        assert at_nodes.tobytes() == lattice._nodes(j * _RULE.tau_step).tobytes()
        below = lattice.log_i(np.array([-np.inf, -40.0, np.nextafter(_LOG_TAU_MIN, -np.inf)]))
        assert (below == lattice.log_i0).all()
        # |d log I_e / d tau| <= 1: at tau = 1e-12 the lattice is within 1e-12 of I_e(0)
        assert abs(lattice.log_i(np.array([_LOG_TAU_MIN]))[0] - lattice.log_i0) <= 1e-12

    def test_the_lagrange_matrix_is_numpys_expansion_of_the_basis(self):
        # expanded in Python ints and divided once: numpy.polynomial's bits
        columns = []
        for m in _STENCIL:
            others = _STENCIL[_STENCIL != m]
            columns.append(np.polynomial.polynomial.polyfromroots(others) / np.prod(m - others))
        assert np.array_equal(_lagrange_matrix(), np.array(columns).T)

    def test_a_study_loads_no_numpy_polynomial(self):
        probe = (
            "import sys\n"
            "import numpy\n"
            "before = 'numpy.polynomial' in sys.modules  # numpy 1.x imports it itself\n"
            "from bicbf import SimulationConfig, run_simulation\n"
            "run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=4, seed=1))\n"
            "print(before, 'numpy.polynomial' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        before, after = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                       capture_output=True, text=True).stdout.split()
        assert after == before

    def test_a_study_and_its_results_file_load_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma under numpy 2.4; the study keys and nodes avoid it
        probe = (
            "import sys\n"
            "import numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from bicbf import SimulationConfig, run_simulation, write_records\n"
            "records = run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=4, seed=1))\n"
            "write_records(records, sys.argv[1])\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        before, after = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "r.csv")],
                                       env=env, check=True, capture_output=True,
                                       text=True).stdout.split()
        assert after == before

    def test_a_report_loads_no_numpy_ma(self, tmp_path):
        # the five numbers and Silverman's quartiles are taken on np.sort,
        # not by np.percentile, whose np.unique imports numpy.ma
        bicbf.write_records(bicbf.run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=20,
                                                                  seed=1)), tmp_path / "r.csv")
        probe = (
            "import contextlib, io, sys\n"
            "import numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from bicbf.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert main(['report', sys.argv[1]]) == 0\n"
            "    assert main(['report', sys.argv[1], '--format', 'json']) == 0\n"
            "    assert main(['report', sys.argv[1], '--density', '--out', sys.argv[2]]) == 0\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        before, after = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "r.csv"), str(tmp_path / "d.csv")],
            env=env, check=True, capture_output=True, text=True).stdout.split()
        assert after == before

    @given(random_tables())
    def test_the_cache_stays_within_its_bound(self, table):
        for effect in EFFECTS:
            try:
                table_bf10(table, effect, GPriorSpec())
            except DegenerateDataError:
                pass
        assert _lattice.cache_info().currsize <= _LATTICES
