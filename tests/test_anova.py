"""Two-way ANOVA: hand-checked cases, a least-squares oracle, invariances."""

import math

import numpy as np
import pytest

from bicbf import (
    DegenerateDataError,
    DomainError,
    FactorialDataset,
    UnbalancedDataError,
    bf01_from_delta_bic,
    bf01_from_partial_eta_sq,
    bic_bf_for_effect,
    default_bf10,
    delta_bic_10,
    fit_two_way,
)
from conftest import random_dataset

# 2x2x2 dataset crafted so only the interaction carries signal.  Cell means
# are (1, -1; -1, 1), marginal means all zero, every observation lies one
# unit from its cell mean.
HAND_Y = [[[2.0, 0.0], [0.0, -2.0]], [[0.0, -2.0], [2.0, 0.0]]]


def lstsq_rss(x: np.ndarray, y: np.ndarray) -> float:
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    return float(resid @ resid)


def lstsq_oracle(data: FactorialDataset):
    """Sums of squares via residuals of nested dummy-coded regressions."""
    a, b, cell_n = data.a_levels, data.b_levels, data.cell_n
    y = data.y.reshape(-1)
    n = y.size
    i_idx = np.repeat(np.arange(a), b * cell_n)
    j_idx = np.tile(np.repeat(np.arange(b), cell_n), a)

    ones = np.ones((n, 1))
    a_dummies = (i_idx[:, None] == np.arange(1, a)).astype(float)
    b_dummies = (j_idx[:, None] == np.arange(1, b)).astype(float)
    cells = (i_idx[:, None] * b + j_idx[:, None] == np.arange(a * b)).astype(float)

    rss_mean = lstsq_rss(ones, y)
    rss_a = lstsq_rss(np.hstack([ones, a_dummies]), y)
    rss_b = lstsq_rss(np.hstack([ones, b_dummies]), y)
    rss_additive = lstsq_rss(np.hstack([ones, a_dummies, b_dummies]), y)
    rss_cells = lstsq_rss(cells, y)
    return {
        "ss_a": rss_mean - rss_a,
        "ss_b": rss_mean - rss_b,
        "ss_ab": rss_additive - rss_cells,
        "ss_error": rss_cells,
        "ss_total": rss_mean,
    }


class TestHandOracle:
    def test_interaction_only_design(self):
        table = fit_two_way(FactorialDataset(2, 2, 2, HAND_Y))
        assert table.ss_a == pytest.approx(0.0, abs=1e-12)
        assert table.ss_b == pytest.approx(0.0, abs=1e-12)
        assert table.ss_ab == pytest.approx(8.0, rel=1e-12)
        assert table.ss_error == pytest.approx(8.0, rel=1e-12)
        assert table.ss_total == pytest.approx(16.0, rel=1e-12)
        assert (table.df_a, table.df_b, table.df_ab, table.df_error) == (1, 1, 1, 4)
        assert table.f_ab == pytest.approx(4.0, rel=1e-12)
        assert not table.degenerate

    def test_accessors_and_effect_validation(self):
        table = fit_two_way(FactorialDataset(2, 2, 2, HAND_Y))
        assert table.ss("AB") == table.ss_ab
        assert table.df("A") == table.df_a
        assert table.f("B") == table.f_b
        with pytest.raises(DomainError, match="effect"):
            table.ss("C")

    @pytest.mark.parametrize("constant", [0.1, 3.0])
    def test_constant_data_is_degenerate(self, constant):
        data = FactorialDataset(2, 2, 2, np.full((2, 2, 2), constant))
        table = fit_two_way(data)
        assert table.degenerate
        ss = (table.ss_a, table.ss_b, table.ss_ab, table.ss_error, table.ss_total)
        assert ss == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert math.isnan(table.f_a)
        assert math.isnan(table.f_ab)
        with pytest.raises(DegenerateDataError, match="zero error variance"):
            bic_bf_for_effect(table, "A")

    def test_cellwise_constant_data_is_degenerate(self):
        # Cells differ but each cell is internally constant.
        y = np.array([[[1.0, 1.0], [2.0, 2.0]], [[3.0, 3.0], [4.0, 4.0]]])
        table = fit_two_way(FactorialDataset(2, 2, 2, y))
        assert table.degenerate
        assert table.ss_error == 0.0

    def test_residuals_whose_squares_underflow_are_degenerate(self):
        # One cell is not constant, but (1e-170 / 2)**2 underflows to 0.0.
        data = FactorialDataset(2, 2, 2, [[[0, 1e-170], [0, 0]], [[5, 5], [1, 1]]])
        table = fit_two_way(data)
        assert table.degenerate
        assert table.ss_error == 0.0
        assert math.isnan(table.f_a)
        with pytest.raises(DegenerateDataError, match="zero error variance"):
            bic_bf_for_effect(table, "AB")
        with pytest.raises(DegenerateDataError, match="zero residual.*diverges"):
            default_bf10(data, "AB")
        for effect in ("A", "B"):
            assert math.isfinite(default_bf10(data, effect).log_bf)


class TestLstsqOracle:
    @pytest.mark.parametrize("seed", range(120))
    def test_matches_regression_residuals(self, seed):
        data = random_dataset(seed)
        table = fit_two_way(data)
        want = lstsq_oracle(data)
        for name, value in want.items():
            got = getattr(table, name)
            assert got == pytest.approx(value, rel=1e-8, abs=1e-10), name
        mse = table.ss_error / table.df_error
        assert table.f_a == pytest.approx(
            (want["ss_a"] / table.df_a) / mse, rel=1e-8
        )
        assert table.f_ab == pytest.approx(
            (want["ss_ab"] / table.df_ab) / mse, rel=1e-8
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_partition(self, seed):
        table = fit_two_way(random_dataset(seed, effect_scale=2.0))
        parts = table.ss_a + table.ss_b + table.ss_ab + table.ss_error
        assert parts == pytest.approx(table.ss_total, rel=1e-8)


class TestInvariances:
    @pytest.mark.parametrize("shift", [1.0, -3.5, 1e4])
    def test_shift_leaves_everything_alone(self, shift):
        data = random_dataset(7, a=3, b=2, cell_n=4)
        base = fit_two_way(data)
        moved = fit_two_way(
            FactorialDataset(3, 2, 4, data.y + shift)
        )
        for name in ("ss_a", "ss_b", "ss_ab", "ss_error", "ss_total"):
            assert getattr(moved, name) == pytest.approx(
                getattr(base, name), rel=1e-10, abs=1e-9
            )
        assert moved.f_a == pytest.approx(base.f_a, rel=1e-10)
        assert moved.f_ab == pytest.approx(base.f_ab, rel=1e-10)

    @pytest.mark.parametrize("scale", [2.0, 0.125, -3.0])
    def test_scale_equivariance(self, scale):
        data = random_dataset(11, a=2, b=3, cell_n=3)
        base = fit_two_way(data)
        scaled = fit_two_way(FactorialDataset(2, 3, 3, data.y * scale))
        for name in ("ss_a", "ss_b", "ss_ab", "ss_error", "ss_total"):
            assert getattr(scaled, name) == pytest.approx(
                getattr(base, name) * scale * scale, rel=1e-10
            )
        for effect in ("A", "B", "AB"):
            assert scaled.f(effect) == pytest.approx(base.f(effect), rel=1e-10)
            lb = bic_bf_for_effect(base, effect).log_bf
            ls = bic_bf_for_effect(scaled, effect).log_bf
            assert abs(ls - lb) <= 1e-10


class TestBayesFactorRoutes:
    @pytest.mark.parametrize("seed", range(20))
    def test_sse_route_agrees_with_f_route(self, seed):
        table = fit_two_way(random_dataset(seed, effect_scale=1.5))
        n = table.n_total
        for effect in ("A", "B", "AB"):
            via_f = bic_bf_for_effect(table, effect)
            sse1 = table.ss_error
            sse0 = table.ss_error + table.ss(effect)
            via_sse = bf01_from_delta_bic(
                delta_bic_10(sse1, sse0, n, table.df(effect))
            )
            assert via_sse.log_bf == pytest.approx(
                via_f.log_bf, rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_partial_eta_sq_route_agrees(self, seed):
        table = fit_two_way(random_dataset(seed + 100))
        for effect in ("A", "B", "AB"):
            eta = table.ss(effect) / (table.ss(effect) + table.ss_error)
            via_eta = bf01_from_partial_eta_sq(eta, table.n_total, table.df(effect))
            via_f = bic_bf_for_effect(table, effect)
            assert via_eta.log_bf == pytest.approx(
                via_f.log_bf, rel=1e-10, abs=1e-12
            )

    def test_engineered_f_near_reference(self):
        # Column means (c, 0, -c) across b=3 with a=2, cell_n=50 and unit
        # within-cell deviations give ss_error = 300 and F_B = 98 c**2.
        c = math.sqrt(3.061 / 98.0)
        y = np.empty((2, 3, 50))
        for j, mean in enumerate((c, 0.0, -c)):
            y[:, j, :25] = mean + 1.0
            y[:, j, 25:] = mean - 1.0
        table = fit_two_way(FactorialDataset(2, 3, 50, y))
        assert table.n_total == 300
        assert (table.df_b, table.df_error) == (2, 294)
        assert table.ss_error == pytest.approx(300.0, rel=1e-12)
        assert table.f_b == pytest.approx(3.061, rel=1e-12)
        got = bic_bf_for_effect(table, "B")
        # Reference BF01 computed independently from the radical form in
        # high-precision decimal arithmetic.
        assert got.bf == pytest.approx(13.631574782469988, rel=1e-9)


class TestDatasetValidation:
    def test_shape_mismatch(self):
        with pytest.raises(UnbalancedDataError, match="shape"):
            FactorialDataset(2, 2, 3, np.zeros((2, 2, 2)))

    def test_nan_rejected(self):
        y = np.zeros((2, 2, 2))
        y[0, 0, 0] = np.nan
        with pytest.raises(DomainError, match="finite"):
            FactorialDataset(2, 2, 2, y)

    @pytest.mark.parametrize(
        "a, b, cell_n, message",
        [
            (1, 2, 2, "a_levels"),
            (2, 1, 2, "b_levels"),
            (2, 2, 1, "cell_n"),
        ],
    )
    def test_degenerate_dimensions(self, a, b, cell_n, message):
        with pytest.raises(DomainError, match=message):
            FactorialDataset(a, b, cell_n, np.zeros((a, b, cell_n)))
