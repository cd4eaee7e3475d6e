"""Balanced two-way fixed-effects ANOVA with interaction.

The model is y_ijk = mu + alpha_i + tau_j + gamma_ij + eps_ijk with a levels
of factor A, b levels of factor B, and cell_n observations per cell.  In the
balanced case the effect subspaces are orthogonal, so the sums of squares
come straight from cell, marginal, and grand means and partition the total
exactly.  Each effect's F ratio feeds the BIC Bayes factor with n equal to
the total observation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DomainError, UnbalancedDataError
from .summary import BayesFactorValue, bf01_from_f

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
    return _fit_block(data.y[None])[0]


def _fit_block(y: np.ndarray) -> list[AnovaTable]:
    """``fit_two_way`` of each dataset in a stack of shape (m, a, b, cell_n).

    Every sum and mean runs over one dataset's own elements, along trailing
    axes, so each table is bitwise the one its dataset gives alone.
    """
    _, a, b, cell_n = y.shape
    grand = y.mean(axis=(1, 2, 3))
    cell_means = y.mean(axis=3)
    a_means = y.mean(axis=(2, 3))
    b_means = y.mean(axis=(1, 3))
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

    columns = (flat_cells, constant, ss_a, ss_b, ss_ab, ss_error, ss_total)
    return [_table(a, b, cell_n, *row) for row in zip(*(c.tolist() for c in columns))]


def _table(a, b, cell_n, flat_cells, constant, ss_a, ss_b, ss_ab, ss_error, ss_total):
    """One dataset's table from its sums of squares, in scalar arithmetic."""
    if constant:
        ss_a = ss_b = ss_ab = ss_total = 0.0
    if flat_cells:
        ss_error = 0.0
    df_a, df_b = a - 1, b - 1
    df_ab = df_a * df_b
    df_error = a * b * (cell_n - 1)
    degenerate = ss_error == 0.0  # also residuals whose squares underflow, like 1e-170
    if degenerate:
        f_a = f_b = f_ab = math.nan
    else:
        mse = ss_error / df_error
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

