"""g-prior Bayes factors: dense-matrix oracle, limits, Monte Carlo behavior."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import helmert
from scipy.stats import invgamma

from bicbf import (
    DEFAULT_PRIOR_SCALE,
    EFFECTS,
    DegenerateDataError,
    DomainError,
    FactorialDataset,
    GPriorSpec,
    conditional_bf10,
    default_bf10,
    fit_two_way,
)
from bicbf.gprior import _column_norms, _log_conditional_bf10
from conftest import random_dataset


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


@pytest.fixture(scope="module")
def mc_dataset():
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
        norms = _column_norms(fit_two_way(data))
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
        rng = np.random.default_rng(55)
        y = rng.normal(size=(2, 3, 1)) + noise * rng.normal(size=(2, 3, 4))
        table = fit_two_way(FactorialDataset(2, 3, 4, y))
        got = math.log(conditional_bf10(table, EFFECTS, (g, g, g)))
        assert got == pytest.approx(exact_log_bf10(y, EFFECTS, (g, g, g)), abs=1e-9)


class TestValidation:
    def test_spec_rejects_bad_values(self):
        with pytest.raises(DomainError, match="scale"):
            GPriorSpec(scale=0.0)
        with pytest.raises(DomainError, match="scale"):
            GPriorSpec(scale=math.inf)
        with pytest.raises(DomainError, match="mc_samples"):
            GPriorSpec(mc_samples=999)
        with pytest.raises(DomainError, match="seed"):
            GPriorSpec(seed=-1)

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

    def test_constant_data_rejected(self):
        data = FactorialDataset(2, 2, 2, np.full((2, 2, 2), 0.1))
        with pytest.raises(DegenerateDataError, match="constant response"):
            default_bf10(data, "A")

    def test_zero_response_rejected_in_conditional(self):
        table = fit_two_way(FactorialDataset(2, 2, 2, np.zeros((2, 2, 2))))
        with pytest.raises(DegenerateDataError, match="constant response"):
            conditional_bf10(table, ("A",), 0.5)

    @pytest.mark.parametrize(
        "value, shape", [(0.1, (2, 3, 3)), (0.3, (3, 4, 5)), (1 / 3, (3, 4, 5))]
    )
    def test_constant_nonzero_response_rejected_in_conditional(self, value, shape):
        # Rounding in the means must not leave a tiny SST that passes for data.
        table = fit_two_way(FactorialDataset(*shape, np.full(shape, value)))
        with pytest.raises(DegenerateDataError, match="constant response"):
            conditional_bf10(table, ("A", "B", "AB"), (0.5, 0.5, 0.5))


class TestDefaultBf10:
    def test_deterministic_and_stream_sensitive(self, mc_dataset):
        spec = GPriorSpec(mc_samples=1000, seed=11)
        one = default_bf10(mc_dataset, "A", spec)
        two = default_bf10(mc_dataset, "A", spec)
        assert (one.log_bf, one.standard_error) == (two.log_bf, two.standard_error)
        other = default_bf10(mc_dataset, "A", spec, stream_index=1)
        assert other.log_bf != one.log_bf

    def test_result_fields(self, mc_dataset):
        got = default_bf10(mc_dataset, "AB", GPriorSpec(mc_samples=1500, seed=11))
        assert got.direction == "10"
        assert got.n_samples == 1500
        assert math.isfinite(got.log_bf)
        assert got.standard_error > 0

    def test_default_prior_scale_value(self):
        assert DEFAULT_PRIOR_SCALE == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
        assert GPriorSpec().scale == DEFAULT_PRIOR_SCALE

    def test_power_of_two_rescaling_is_exact(self, mc_dataset):
        scaled = FactorialDataset(2, 3, 5, mc_dataset.y * 2.0**5)
        spec = GPriorSpec(mc_samples=1000, seed=11)
        for effect in ("A", "B", "AB"):
            assert (
                default_bf10(scaled, effect, spec).log_bf
                == default_bf10(mc_dataset, effect, spec).log_bf
            )

    def test_monte_carlo_error_shrinks_like_root_n(self, mc_dataset):
        # sd over independent streams should drop by ~sqrt(2) when the
        # sample count doubles.  80 replicates put the ratio estimate well
        # inside a +-20% band around sqrt(2).
        reps = 80
        lo = [
            default_bf10(mc_dataset, "AB", GPriorSpec(mc_samples=1000, seed=11), k).log_bf
            for k in range(reps)
        ]
        hi = [
            default_bf10(mc_dataset, "AB", GPriorSpec(mc_samples=2000, seed=11), k).log_bf
            for k in range(reps)
        ]
        ratio = np.std(lo, ddof=1) / np.std(hi, ddof=1)
        assert math.sqrt(2) * 0.8 < ratio < math.sqrt(2) * 1.2

    def test_reported_standard_error_tracks_spread(self, mc_dataset):
        reps = 80
        results = [
            default_bf10(mc_dataset, "AB", GPriorSpec(mc_samples=1000, seed=11), k)
            for k in range(reps)
        ]
        empirical = np.std([r.log_bf for r in results], ddof=1)
        reported = np.mean([r.standard_error for r in results])
        assert empirical == pytest.approx(reported, rel=0.25)

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
        got = default_bf10(data, "AB", GPriorSpec(mc_samples=50_000, seed=5))
        assert got.log_bf == pytest.approx(want, abs=0.02)

    def test_matches_quadrature_for_main_effect(self, mc_dataset):
        # Effect A has an empty denominator model, so the Monte Carlo mean
        # estimates the single integral int BF10(g) p(g) dg directly.
        table = fit_two_way(mc_dataset)
        r_sq = DEFAULT_PRIOR_SCALE**2

        def integrand(g):
            return conditional_bf10(table, ("A",), g) * invgamma.pdf(g, a=0.5, scale=r_sq / 2)

        want, err = integrate.quad(integrand, 0.0, np.inf, limit=200)
        assert err < 1e-6
        got = default_bf10(mc_dataset, "A", GPriorSpec(mc_samples=20_000, seed=5))
        assert math.exp(got.log_bf) == pytest.approx(want, rel=0.02)
