"""Balanced two-way fixed-effects ANOVA with interaction.

The model is y_ijk = mu + alpha_i + tau_j + gamma_ij + eps_ijk with a levels
of factor A, b levels of factor B, and cell_n observations per cell.  In the
balanced case the effect subspaces are orthogonal, so the sums of squares
come straight from cell, marginal, and grand means and partition the total
exactly.  Each effect's F ratio feeds the BIC Bayes factor with n equal to
the total observation count.

The layout is stated once, as data.  The factors are A and B, and the
terms are ``EFFECTS``, each term being the set of factors in its name.
Everything per term follows from the levels and cell_n: its effect is its
cell means less the means of the terms inside it (inclusion-exclusion down
to the grand mean), its degrees of freedom df_e are the product of
(levels - 1) over its factors, and its column norm c_e = N / prod(levels)
over its factors, N the observation count, so that X_e'X_e = c_e I for
orthonormal contrasts and SS_e = c_e * sum(effect^2).  The nested model
pairs of the default-prior oracle come from the same statement
(``_inside``).

The simulation study fits a block of datasets at once: ``_fit_block``
returns their sums of squares as columns (``_Block``), one row per
dataset and one column per term, with no per-dataset table.  The study's
BIC (``_bic_log_bf10``) and the default-prior oracle's set-up read those
columns.  Every array operation is elementwise or runs along one dataset's
own axes, so a row is bitwise the table that ``fit_two_way`` gives for its
dataset alone; ``fit_two_way`` is the one-row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

_FACTORS = ("A", "B")
EFFECTS = ("A", "B", "AB")  # each term after the terms inside it


def _inside(term: str) -> tuple[str, ...]:
    """The terms whose factors all lie in ``term``, in ``EFFECTS`` order: ``term`` last."""
    return tuple(t for t in EFFECTS if set(t) <= set(term))


def _term_shape(levels: tuple[int, ...], term: str) -> tuple[int, ...]:
    """A term's cells on the factor axes: its factors' level counts, 1 on the others."""
    return tuple(n if f in term else 1 for f, n in zip(_FACTORS, levels))


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
        return getattr(self, f"ss_{_checked(effect).lower()}")

    def df(self, effect: str) -> int:
        return getattr(self, f"df_{_checked(effect).lower()}")

    def f(self, effect: str) -> float:
        return getattr(self, f"f_{_checked(effect).lower()}")


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

    ``levels`` holds the level count of each factor.  Row i of
    ``ss_effects`` holds dataset i's sum of squares of each term, in
    ``EFFECTS`` order, and row i of ``ss_error`` and ``ss_total`` its other
    two.  Each term's df, c and F column follow from the levels and cell_n,
    and ``table(i)`` is row i's table.
    """

    levels: tuple[int, ...]
    cell_n: int
    ss_effects: np.ndarray  # (datasets, terms)
    ss_error: np.ndarray
    ss_total: np.ndarray

    @classmethod
    def of(cls, table: AnovaTable) -> "_Block":
        """The one-row block of a table: a factor has its own term's df + 1 levels."""
        levels = tuple(table.df(factor) + 1 for factor in _FACTORS)
        ss = np.array([[table.ss(e) for e in EFFECTS]])
        return cls(levels, table.n_total // math.prod(levels), ss,
                   np.array([table.ss_error]), np.array([table.ss_total]))

    @property
    def n_total(self) -> int:
        return math.prod(self.levels) * self.cell_n

    @property
    def df_error(self) -> int:
        return math.prod(self.levels) * (self.cell_n - 1)

    @property
    def degenerate(self) -> np.ndarray:
        return self.ss_error / self.df_error == 0.0

    def ss(self, effect: str) -> np.ndarray:
        return self.ss_effects[:, EFFECTS.index(_checked(effect))]

    def df(self, effect: str) -> int:
        return math.prod(n - 1 for f, n in zip(_FACTORS, self.levels) if f in _checked(effect))

    def c(self, effect: str) -> int:
        """c_e: N over the product of the term's levels."""
        return self.n_total // math.prod(_term_shape(self.levels, _checked(effect)))

    def f(self, effect: str) -> np.ndarray:
        """The F column of an effect (read-only); NaN where degenerate."""
        return self._f_effects[:, EFFECTS.index(_checked(effect))]

    @cached_property
    def _f_effects(self) -> np.ndarray:
        # zero error variance: flat cells, residuals whose squares underflow
        # (like 1e-170), or an error sum of squares whose mean square underflows
        df = np.array([self.df(e) for e in EFFECTS])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = (self.ss_effects / df) / (self.ss_error / self.df_error)[:, None]
        f[self.degenerate] = math.nan
        f.flags.writeable = False
        return f

    def residual(self, effects: tuple[str, ...]) -> np.ndarray:
        """The residual sum of squares of the model with ``effects``, per row."""
        return self.ss_error + sum(self.ss(e) for e in EFFECTS if e not in effects)

    def table(self, row: int) -> AnovaTable:
        columns = zip(EFFECTS, self.ss_effects[row].tolist(), self._f_effects[row].tolist())
        per_effect = {f"{kind}_{e.lower()}": value for e, ss, f in columns
                      for kind, value in (("ss", ss), ("df", self.df(e)), ("f", f))}
        return AnovaTable(n_total=self.n_total, ss_error=float(self.ss_error[row]),
                          ss_total=float(self.ss_total[row]), df_error=self.df_error,
                          degenerate=bool(self.degenerate[row]), **per_effect)


def _fit_block(y: np.ndarray) -> _Block:
    """The fits of a stack of datasets of shape (m, a, b, cell_n), as columns.

    Each term's effect is the mean over the axes outside it less the lower
    terms' means by inclusion-exclusion, the larger terms first:
    (cell - a) - b + grand.  Every sum and mean runs over one dataset's own
    elements, along trailing axes, so each row is bitwise what its dataset
    gives alone.
    """
    m, *levels, cell_n = y.shape
    block = _Block(tuple(levels), cell_n, np.empty((m, len(EFFECTS))), np.empty(m), np.empty(m))
    axes = tuple(range(1, y.ndim))  # one dataset's: its factors', then its cell's
    means = {"": y.mean(axis=axes, keepdims=True)}
    with np.errstate(over="ignore"):  # a sum of squares beyond the double range is inf
        for column, term in enumerate(EFFECTS):
            outside = tuple(axis for axis, f in enumerate(_FACTORS, 1) if f not in term)
            effect = means[term] = y.mean(axis=outside + (y.ndim - 1,), keepdims=True)
            for lower in sorted(("",) + _inside(term)[:-1], key=len, reverse=True):
                op = np.subtract if (len(term) - len(lower)) % 2 else np.add
                effect = op(effect, means[lower])
            block.ss_effects[:, column] = block.c(term) * np.sum(effect**2, axis=axes)
        block.ss_total[:] = np.sum((y - means[""]) ** 2, axis=axes)
        block.ss_error[:] = np.sum((y - means["".join(_FACTORS)]) ** 2, axis=axes)
    # Zero error variance means every cell is constant; decide that exactly
    # rather than from the computed residuals, whose rounding can leave a
    # spurious 1e-30-ish sum for constant input.  A constant response gets
    # exact zeros in every sum of squares for the same reason.
    flat_cells = np.all(y == y[..., :1], axis=axes)
    values = y.reshape(m, -1)
    constant = flat_cells & np.all(values == values[:, :1], axis=1)
    block.ss_effects[constant] = 0.0
    block.ss_total[constant] = 0.0
    block.ss_error[flat_cells] = 0.0
    return block


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
