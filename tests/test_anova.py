"""Two-way ANOVA: hand-checked cases, a least-squares oracle, invariances."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given

from bicbf import (
    AnovaTable,
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
    invert,
)
from bicbf.anova import EFFECTS, _bic_log_bf10, _Block, _fit_block
from bicbf.gprior import MODEL_PAIRS
from conftest import block_of, random_dataset, random_tables, study_tables, table_of

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
        "A": rss_mean - rss_a,
        "B": rss_mean - rss_b,
        "AB": rss_additive - rss_cells,
        "error": rss_cells,
        "total": rss_mean,
    }


def sums(table) -> dict:
    """A table's sums of squares, keyed as ``lstsq_oracle`` keys them."""
    return {**{e: table.ss(e) for e in EFFECTS}, "error": table.ss_error,
            "total": table.ss_total}


class TestHandOracle:
    def test_interaction_only_design(self):
        table = fit_two_way(FactorialDataset(2, 2, 2, HAND_Y))
        assert table.ss("A") == pytest.approx(0.0, abs=1e-12)
        assert table.ss("B") == pytest.approx(0.0, abs=1e-12)
        assert table.ss("AB") == pytest.approx(8.0, rel=1e-12)
        assert table.ss_error == pytest.approx(8.0, rel=1e-12)
        assert table.ss_total == pytest.approx(16.0, rel=1e-12)
        assert (table.df("A"), table.df("B"), table.df("AB"), table.df_error) == (1, 1, 1, 4)
        assert table.f("AB") == pytest.approx(4.0, rel=1e-12)
        assert not table.degenerate

    def test_accessors_and_effect_validation(self):
        table = fit_two_way(FactorialDataset(2, 2, 2, HAND_Y))
        assert table.ss("AB") == table.ss_effects[2]
        assert table.df("A") == 1
        assert table.f("B") == table.ss("B") / table.df("B") / (table.ss_error / table.df_error)
        with pytest.raises(DomainError, match="effect"):
            table.ss("C")

    def test_the_constructor_takes_the_design_and_the_sums(self):
        table = AnovaTable((2, 2), 2, (0.0, 0.0, 8.0), 8.0, 16.0)
        assert (table.n_total, table.df_error, table.degenerate) == (8, 4, False)
        assert [(table.df(e), table.c(e)) for e in EFFECTS] == [(1, 4), (1, 4), (1, 2)]
        assert (table.ss("AB"), table.f("AB")) == (8.0, 4.0)
        assert (table.residual(("A", "B")), table.residual(EFFECTS)) == (16.0, 8.0)
        fitted = fit_two_way(FactorialDataset(2, 2, 2, HAND_Y))
        assert (fitted.levels, fitted.cell_n) == (table.levels, table.cell_n)
        for levels, cell_n in (((2,), 2), ((2, 2, 2), 2), ((2, 1), 2), ((2, 2), 1)):
            with pytest.raises(DomainError, match="at least 2"):
                AnovaTable(levels, cell_n, (0.0, 0.0, 8.0), 8.0, 16.0)

    @pytest.mark.parametrize("constant", [0.1, 3.0])
    def test_constant_data_is_degenerate(self, constant):
        data = FactorialDataset(2, 2, 2, np.full((2, 2, 2), constant))
        table = fit_two_way(data)
        assert table.degenerate
        ss = (table.ss("A"), table.ss("B"), table.ss("AB"), table.ss_error, table.ss_total)
        assert ss == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert math.isnan(table.f("A"))
        assert math.isnan(table.f("AB"))
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
        assert math.isnan(table.f("A"))
        with pytest.raises(DegenerateDataError, match="zero error variance"):
            bic_bf_for_effect(table, "AB")
        with pytest.raises(DegenerateDataError, match="zero residual.*diverges"):
            default_bf10(data, "AB")
        for effect in ("A", "B"):
            assert math.isfinite(default_bf10(data, effect).log_bf)

    def test_an_error_mean_square_that_underflows_is_degenerate(self):
        # SSE is a subnormal 1e-323, nonzero, but SSE/df_error rounds to 0.0
        data = FactorialDataset(2, 2, 2, [[[0, 4.5e-162], [0, 0]], [[5, 5], [1, 1]]])
        table = fit_two_way(data)
        assert table.ss_error > 0.0 and table.ss_error / table.df_error == 0.0
        assert table.degenerate
        assert math.isnan(table.f("B"))
        with pytest.raises(DegenerateDataError, match="zero error variance"):
            bic_bf_for_effect(table, "B")
        # the oracle names the residual by its value: it is not zero, SSE/SST underflows
        with pytest.raises(DegenerateDataError, match="^residual sum of squares 1e-323 too small"):
            default_bf10(data, "AB")


def _bic_bits(block: _Block, tables, effect: str) -> tuple[list[str], list[str]]:
    """The block's BIC column and each table's scalar BIC, as hex."""
    column = [value.hex() for value in _bic_log_bf10(block, effect)]
    scalar = [invert(bic_bf_for_effect(table, effect)).log_bf.hex() for table in tables]
    return column, scalar


class TestBlockColumns:
    """The columnar fit and BIC of the simulation study, bit for bit."""

    def test_fit_two_way_is_its_block_row(self):
        datasets = [random_dataset(seed, a=2, b=3, cell_n=3) for seed in range(4)]
        flat = np.arange(6.0).reshape(2, 3, 1).repeat(3, axis=2)
        tiny = flat.copy()
        tiny[0, 0] = [0.0, 4.5e-162, 0.0]  # SSE/df_error underflows
        huge = datasets[0].y.copy()
        huge[0] += 1e200  # the effect sums of squares overflow to inf
        for y in (np.full((2, 3, 3), 3.0), flat, tiny, huge):
            datasets.append(FactorialDataset(2, 3, 3, y))
        block = _fit_block(np.stack([d.y for d in datasets]))
        models = [effects for size in range(len(EFFECTS) + 1)
                  for effects in combinations(EFFECTS, size)]
        for row, data in enumerate(datasets):
            table = fit_two_way(data)
            assert (table.levels, table.cell_n) == (block.levels, block.cell_n)
            assert all(type(value) is float for value in (
                *table.ss_effects, table.ss_error, table.ss_total, *map(table.f, EFFECTS)))
            derived = [
                ("n_total", lambda fit: fit.n_total), ("df_error", lambda fit: fit.df_error),
                ("degenerate", lambda fit: fit.degenerate),
                ("ss_error", lambda fit: fit.ss_error), ("ss_total", lambda fit: fit.ss_total),
                *((f"{kind}({e})", lambda fit, kind=kind, e=e: getattr(fit, kind)(e))
                  for kind in ("df", "c", "ss", "f") for e in EFFECTS),
                *((f"residual{m}", lambda fit, m=m: fit.residual(m)) for m in models),
            ]
            for name, value_of in derived:
                value, column = value_of(table), value_of(block)
                got = column[row] if isinstance(column, np.ndarray) else column
                assert float(value).hex() == float(got).hex(), (row, name)

    def test_bic_column_of_the_study_tables(self):
        designs: dict[tuple[int, int, int], list[AnovaTable]] = {}
        for table in study_tables():
            designs.setdefault((table.n_total, table.df("A"), table.df("B")), []).append(table)
        for tables in designs.values():
            block = block_of(tables)
            for effect in ("A", "B", "AB"):
                column, scalar = _bic_bits(block, tables, effect)
                assert column == scalar, effect

    @given(random_tables())
    def test_bic_column_of_random_tables(self, table):
        for effect in ("A", "B", "AB"):
            column, scalar = _bic_bits(block_of([table]), [table], effect)
            assert column == scalar, effect

    def test_an_overflowing_ratio_takes_the_log_split_branch(self):
        # F_B = 1e308 is finite, and F_B * df_B overflows
        df_error, ss_b = 2 * 3 * 49, 1e300
        ss_error = ss_b / 2 / 1e308 * df_error
        table = table_of(2, 3, 50, 1.0, ss_b, 1.0, ss_error, ss_b + 2.0 + ss_error)
        assert math.isfinite(table.f("B")) and math.isinf(table.f("B") * table.df("B"))
        tables = [fit_two_way(random_dataset(seed, a=2, b=3, cell_n=50)) for seed in (1, 2)]
        tables.insert(1, table)
        block = block_of(tables)
        for effect in ("A", "B", "AB"):
            column, scalar = _bic_bits(block, tables, effect)
            assert column == scalar, effect


def reference_fit(y: np.ndarray):
    """The two-way fit written out effect by effect: the arithmetic the
    term-by-term fit must reproduce bit for bit."""
    _, a, b, cell_n = y.shape
    grand = y.mean(axis=(1, 2, 3))
    cell_means = y.mean(axis=3)
    a_means = y.mean(axis=(2, 3))
    b_means = y.mean(axis=(1, 3))
    with np.errstate(over="ignore"):
        ss_a = b * cell_n * np.sum((a_means - grand[:, None]) ** 2, axis=1)
        ss_b = a * cell_n * np.sum((b_means - grand[:, None]) ** 2, axis=1)
        interaction = cell_means - a_means[:, :, None] - b_means[:, None, :] + grand[:, None, None]
        ss_ab = cell_n * np.sum(interaction**2, axis=(1, 2))
        ss_total = np.sum((y - grand[:, None, None, None]) ** 2, axis=(1, 2, 3))
        ss_error = np.sum((y - cell_means[..., None]) ** 2, axis=(1, 2, 3))
    flat_cells = np.all(y == y[..., :1], axis=(1, 2, 3))
    constant = flat_cells & np.all(y == y[:, :1, :1, :1], axis=(1, 2, 3))
    for ss in (ss_a, ss_b, ss_ab, ss_total):
        ss[constant] = 0.0
    ss_error[flat_cells] = 0.0
    return {"A": ss_a, "B": ss_b, "AB": ss_ab, "error": ss_error, "total": ss_total}


def reference_design(a: int, b: int, cell_n: int) -> dict:
    """df_e and c_e of each effect, the error df and N, written out by hand."""
    df_a, df_b = a - 1, b - 1
    return {
        "df": {"A": df_a, "B": df_b, "AB": df_a * df_b},
        "c": {"A": b * cell_n, "B": a * cell_n, "AB": cell_n},
        "df_error": a * b * (cell_n - 1),
        "n_total": a * b * cell_n,
    }


def layout_datasets(a: int, b: int, cell_n: int) -> np.ndarray:
    """Random datasets over 12 decades, a constant one, flat cells, cells
    whose residuals underflow, and effects whose sums of squares overflow."""
    rng = np.random.default_rng(a * 100 + b * 10 + cell_n)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(6, 1, 1, 1))
    y = scale * (rng.normal(size=(6, a, b, 1)) + rng.normal(size=(6, a, b, cell_n)))
    constant = np.full((1, a, b, cell_n), 0.3)
    flat = rng.normal(size=(1, a, b, 1)).repeat(cell_n, axis=3)
    tiny = flat.copy()
    tiny[0, 0, 0, 0] += 4.5e-162
    huge = y[:1].copy()
    huge[0, 0] += 1e200
    return np.concatenate([y, constant, flat, tiny, huge])


class TestLayoutReference:
    """The layout stated as terms against the two-way layout written out by hand."""

    @pytest.mark.parametrize("cell_n", [2, 3, 50])
    @pytest.mark.parametrize("b", [2, 3, 4, 6])
    @pytest.mark.parametrize("a", [2, 3, 4, 6])
    def test_sums_of_squares_are_the_reference_bits(self, a, b, cell_n):
        y = layout_datasets(a, b, cell_n)
        block, want = _fit_block(y), reference_fit(y)
        got = {**{e: block.ss(e) for e in EFFECTS}, "error": block.ss_error,
               "total": block.ss_total}
        for name, column in want.items():
            assert got[name].tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("cell_n", [2, 3, 50])
    @pytest.mark.parametrize("b", [2, 3, 4, 6])
    @pytest.mark.parametrize("a", [2, 3, 4, 6])
    def test_df_and_column_norms_are_the_references(self, a, b, cell_n):
        block, want = _fit_block(np.zeros((1, a, b, cell_n))), reference_design(a, b, cell_n)
        for effect in EFFECTS:
            assert (block.df(effect), block.c(effect)) == (want["df"][effect], want["c"][effect])
            assert type(block.c(effect)) is int
        assert (block.df_error, block.n_total) == (want["df_error"], want["n_total"])

    def test_model_pairs_are_the_reference(self):
        assert MODEL_PAIRS == {
            "A": (("A",), ()),
            "B": (("B",), ()),
            "AB": (("A", "B", "AB"), ("A", "B")),
        }


class TestLstsqOracle:
    @pytest.mark.parametrize("seed", range(120))
    def test_matches_regression_residuals(self, seed):
        data = random_dataset(seed)
        table = fit_two_way(data)
        want = lstsq_oracle(data)
        for name, value in want.items():
            got = sums(table)[name]
            assert got == pytest.approx(value, rel=1e-8, abs=1e-10), name
        mse = table.ss_error / table.df_error
        assert table.f("A") == pytest.approx(
            (want["A"] / table.df("A")) / mse, rel=1e-8
        )
        assert table.f("AB") == pytest.approx(
            (want["AB"] / table.df("AB")) / mse, rel=1e-8
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_partition(self, seed):
        table = fit_two_way(random_dataset(seed, effect_scale=2.0))
        parts = table.ss("A") + table.ss("B") + table.ss("AB") + table.ss_error
        assert parts == pytest.approx(table.ss_total, rel=1e-8)


class TestInvariances:
    @pytest.mark.parametrize("shift", [1.0, -3.5, 1e4])
    def test_shift_leaves_everything_alone(self, shift):
        data = random_dataset(7, a=3, b=2, cell_n=4)
        base = fit_two_way(data)
        moved = fit_two_way(
            FactorialDataset(3, 2, 4, data.y + shift)
        )
        for name, value in sums(base).items():
            assert sums(moved)[name] == pytest.approx(value, rel=1e-10, abs=1e-9)
        assert moved.f("A") == pytest.approx(base.f("A"), rel=1e-10)
        assert moved.f("AB") == pytest.approx(base.f("AB"), rel=1e-10)

    @pytest.mark.parametrize("scale", [2.0, 0.125, -3.0])
    def test_scale_equivariance(self, scale):
        data = random_dataset(11, a=2, b=3, cell_n=3)
        base = fit_two_way(data)
        scaled = fit_two_way(FactorialDataset(2, 3, 3, data.y * scale))
        for name, value in sums(base).items():
            assert sums(scaled)[name] == pytest.approx(value * scale * scale, rel=1e-10)
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
        assert (table.df("B"), table.df_error) == (2, 294)
        assert table.ss_error == pytest.approx(300.0, rel=1e-12)
        assert table.f("B") == pytest.approx(3.061, rel=1e-12)
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
