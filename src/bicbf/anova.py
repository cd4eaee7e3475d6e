"""Balanced two-way fixed-effects ANOVA with interaction.

The model is y_ijk = mu + alpha_i + tau_j + gamma_ij + eps_ijk with a levels
of factor A, b levels of factor B, and cell_n observations per cell.  In the
balanced case the effect subspaces are orthogonal, so the sums of squares
come straight from cell, marginal, and grand means and partition the total
exactly.  Each effect's F ratio feeds the BIC Bayes factor with n equal to
the total observation count.

The simulation study fits a block of datasets at once: ``_fit_block``
returns their sums of squares as columns (``_Block``), one row per
dataset, with no per-dataset table.  The study's BIC (``_bic_log_bf10``)
and the default-prior oracle's set-up read those columns.  Every array
operation is elementwise or runs along one dataset's own axes, in the
order of the scalar code, so a row is bitwise the table that
``fit_two_way`` gives for its dataset alone; ``fit_two_way`` is the
one-row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DomainError, UnbalancedDataError
from .summary import BayesFactorValue, _bic_log_bf01, bf01_from_f

__all__ = [
    "EFFECTS",
    "FactorialDataset",
    "AnovaTable",
    "fit_two_way",
    "bic_bf_for_effect",
]

EFFECTS = ("A", "B", "AB")


@dataclass(frozen=True, eq=False)
class FactorialDataset:
    """Observations of a complete balanced two-factor design.

    ``y`` has shape (a_levels, b_levels, cell_n); element (i, j, k) is the
    k-th observation in cell (i, j).
    """

    a_levels: int
    b_levels: int
    cell_n: int
    y: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.a_levels < 2:
            raise DomainError(f"a_levels must be at least 2, got {self.a_levels}")
        if self.b_levels < 2:
            raise DomainError(f"b_levels must be at least 2, got {self.b_levels}")
        if self.cell_n < 2:
            raise DomainError(f"cell_n must be at least 2, got {self.cell_n}")
        y = np.asarray(self.y, dtype=float)
        expected = (self.a_levels, self.b_levels, self.cell_n)
        if y.shape != expected:
            raise UnbalancedDataError(
                f"y has shape {y.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(y)):
            raise DomainError("observations must be finite")
        object.__setattr__(self, "y", y)

    @property
    def n_total(self) -> int:
        return self.a_levels * self.b_levels * self.cell_n


@dataclass(frozen=True)
class AnovaTable:
    """Sums of squares, degrees of freedom, and F ratios of one fit.

    ``degenerate`` marks a zero-error-variance fit: the F ratios are NaN and
    must not be consumed.  The balanced decomposition guarantees
    ss_total = ss_a + ss_b + ss_ab + ss_error up to rounding.
    """

    n_total: int
    ss_a: float
    ss_b: float
    ss_ab: float
    ss_error: float
    ss_total: float
    df_a: int
    df_b: int
    df_ab: int
    df_error: int
    f_a: float
    f_b: float
    f_ab: float
    degenerate: bool

    def ss(self, effect: str) -> float:
        return {"A": self.ss_a, "B": self.ss_b, "AB": self.ss_ab}[_checked(effect)]

    def df(self, effect: str) -> int:
        return {"A": self.df_a, "B": self.df_b, "AB": self.df_ab}[_checked(effect)]

    def f(self, effect: str) -> float:
        return {"A": self.f_a, "B": self.f_b, "AB": self.f_ab}[_checked(effect)]


def _checked(effect: str) -> str:
    if effect not in EFFECTS:
        raise DomainError(f"effect must be one of {EFFECTS}, got {effect!r}")
    return effect


def fit_two_way(data: FactorialDataset) -> AnovaTable:
    """Fit the two-way ANOVA with interaction to balanced data."""
    return _fit_block(data.y[None]).table(0)


@dataclass(frozen=True, eq=False)
class _Block:
    """The fits of a block of datasets of one design, as columns.

    Row i of each sums-of-squares column belongs to dataset i.  The
    degrees of freedom and the F columns follow ``AnovaTable``, and
    ``table(i)`` is row i's table.
    """

    a: int
    b: int
    cell_n: int
    ss_a: np.ndarray
    ss_b: np.ndarray
    ss_ab: np.ndarray
    ss_error: np.ndarray
    ss_total: np.ndarray

    @classmethod
    def of(cls, table: AnovaTable) -> "_Block":
        """The one-row block of a table."""
        a, b = table.df_a + 1, table.df_b + 1
        columns = (table.ss_a, table.ss_b, table.ss_ab, table.ss_error, table.ss_total)
        return cls(a, b, table.n_total // (a * b), *(np.array([ss]) for ss in columns))

    @property
    def n_total(self) -> int:
        return self.a * self.b * self.cell_n

    @property
    def df_error(self) -> int:
        return self.a * self.b * (self.cell_n - 1)

    @property
    def degenerate(self) -> np.ndarray:
        return self.ss_error / self.df_error == 0.0

    def ss(self, effect: str) -> np.ndarray:
        return {"A": self.ss_a, "B": self.ss_b, "AB": self.ss_ab}[_checked(effect)]

    def df(self, effect: str) -> int:
        df_a, df_b = self.a - 1, self.b - 1
        return {"A": df_a, "B": df_b, "AB": df_a * df_b}[_checked(effect)]

    def f(self, effect: str) -> np.ndarray:
        """The F column of an effect, in ``_table``'s operations; NaN where degenerate."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = (self.ss(effect) / self.df(effect)) / (self.ss_error / self.df_error)
        f[self.degenerate] = math.nan
        return f

    def table(self, row: int) -> AnovaTable:
        columns = (self.ss_a, self.ss_b, self.ss_ab, self.ss_error, self.ss_total)
        return _table(self.a, self.b, self.cell_n, *(float(ss[row]) for ss in columns))


def _fit_block(y: np.ndarray) -> _Block:
    """The fits of a stack of datasets of shape (m, a, b, cell_n), as columns.

    Every sum and mean runs over one dataset's own elements, along trailing
    axes, so each row is bitwise what its dataset gives alone.
    """
    _, a, b, cell_n = y.shape
    grand = y.mean(axis=(1, 2, 3))
    cell_means = y.mean(axis=3)
    a_means = y.mean(axis=(2, 3))
    b_means = y.mean(axis=(1, 3))
    with np.errstate(over="ignore"):  # a sum of squares beyond the double range is inf
        ss_a = b * cell_n * np.sum((a_means - grand[:, None]) ** 2, axis=1)
        ss_b = a * cell_n * np.sum((b_means - grand[:, None]) ** 2, axis=1)
        interaction = cell_means - a_means[:, :, None] - b_means[:, None, :] + grand[:, None, None]
        ss_ab = cell_n * np.sum(interaction**2, axis=(1, 2))
        ss_total = np.sum((y - grand[:, None, None, None]) ** 2, axis=(1, 2, 3))
        ss_error = np.sum((y - cell_means[..., None]) ** 2, axis=(1, 2, 3))
    # Zero error variance means every cell is constant; decide that exactly
    # rather than from the computed residuals, whose rounding can leave a
    # spurious 1e-30-ish sum for constant input.  A constant response gets
    # exact zeros in every sum of squares for the same reason.
    flat_cells = np.all(y == y[..., :1], axis=(1, 2, 3))
    constant = flat_cells & np.all(y == y[:, :1, :1, :1], axis=(1, 2, 3))
    for ss in (ss_a, ss_b, ss_ab, ss_total):
        ss[constant] = 0.0
    ss_error[flat_cells] = 0.0
    return _Block(a, b, cell_n, ss_a, ss_b, ss_ab, ss_error, ss_total)


def _table(a, b, cell_n, ss_a, ss_b, ss_ab, ss_error, ss_total):
    """One dataset's table from its sums of squares, in scalar arithmetic."""
    df_a, df_b = a - 1, b - 1
    df_ab = df_a * df_b
    df_error = a * b * (cell_n - 1)
    mse = ss_error / df_error
    # zero error variance: flat cells, residuals whose squares underflow
    # (like 1e-170), or an error sum of squares whose mean square underflows
    degenerate = mse == 0.0
    if degenerate:
        f_a = f_b = f_ab = math.nan
    else:
        f_a = (ss_a / df_a) / mse
        f_b = (ss_b / df_b) / mse
        f_ab = (ss_ab / df_ab) / mse

    return AnovaTable(
        n_total=a * b * cell_n,
        ss_a=ss_a, ss_b=ss_b, ss_ab=ss_ab,
        ss_error=ss_error, ss_total=ss_total,
        df_a=df_a, df_b=df_b, df_ab=df_ab, df_error=df_error,
        f_a=f_a, f_b=f_b, f_ab=f_ab,
        degenerate=degenerate,
    )


def bic_bf_for_effect(table: AnovaTable, effect: str) -> BayesFactorValue:
    """BIC Bayes factor BF01 for one effect of a fitted table.

    ``n`` in the BIC is the total observation count.
    """
    if table.degenerate:
        raise DegenerateDataError(
            "zero error variance: F is undefined, no Bayes factor"
        )
    return bf01_from_f(table.f(effect), table.df(effect), table.df_error, table.n_total)


def _bic_log_bf10(block: _Block, effect: str) -> list[float]:
    """BIC log BF10 of ``effect`` for each row, bitwise that of ``bic_bf_for_effect``.

    The ratio F*df1/df2 is taken in arrays and its log1p by ``math.log1p``,
    value by value: numpy's log1p differs from it in the last bit on some
    inputs.  A row whose ratio is not finite (degenerate, a non-finite F,
    or an overflowing product) takes ``bic_bf_for_effect`` on its table,
    which raises its error or takes the log-split branch.
    """
    df1, n = block.df(effect), block.n_total
    with np.errstate(over="ignore"):
        ratio = block.f(effect) * df1 / block.df_error
    log1p_ratio = np.array(list(map(math.log1p, ratio.tolist())))
    log_bf10 = (-_bic_log_bf01(df1, n, log1p_ratio)).tolist()
    for row in np.flatnonzero(~np.isfinite(ratio)).tolist():
        log_bf10[row] = -bic_bf_for_effect(block.table(row), effect).log_bf
    return log_bf10
