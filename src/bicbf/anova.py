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

A fit is its design (the levels and cell_n) and its sums of squares: one
per term, the error's and the total's.  N, the error df, each term's df,
c_e and F, the residual of a model, and whether the error variance is zero
or a sum left the double range all follow from those, by one statement
(``_Fit``) that serves a fit in two shapes.  Nothing else is stored, F
included, so a fit's F ratios cannot disagree with its sums: the BIC,
which reads F, and the oracle, which reads the sums, see the same data.
``AnovaTable``, the fit of one dataset, holds Python floats.  The
simulation study fits a block of datasets at once: ``_fit_block`` returns
a ``_Block``, whose sums are columns with one value per dataset, and
builds no per-dataset table.  The study's BIC (``_bic_log_bf10``) and the
default-prior oracle's set-up read those columns.  Every array operation
is elementwise or runs along one dataset's own axes, so a dataset's
values in a block are bitwise the table that ``fit_two_way`` gives for it
alone; ``fit_two_way`` is the one-dataset block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DomainError, UnbalancedDataError
from .summary import BayesFactorValue, _bic_log_bf01, _count, _real, bf01_from_f

__all__ = [
    "EFFECTS",
    "FactorialDataset",
    "AnovaTable",
    "fit_two_way",
    "bic_bf_for_effect",
]

_FACTORS = ("A", "B")
EFFECTS = ("A", "B", "AB")  # each term after the terms inside it
_OVERFLOWED = "the sums of squares left the double range: Bayes factor undefined"


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
        for name in ("a_levels", "b_levels", "cell_n"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 2))
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


def _checked(effect: str) -> str:
    if effect not in EFFECTS:
        raise DomainError(f"effect must be one of {EFFECTS}, got {effect!r}")
    return effect


@dataclass(frozen=True, eq=False)
class _Fit:
    """A fit's design and sums of squares, and all that follows from them.

    ``levels`` holds the level count of each factor and ``cell_n`` the
    observations per cell.  ``ss_effects[i]`` is the sum of squares of
    term ``EFFECTS[i]``; ``ss_error`` and ``ss_total`` are the other two.
    A table holds Python floats, a block one column per sum.  The same code
    serves both, elementwise: N, the error df, each term's df, c and F, the
    residual of a model, and whether the error variance is zero or a sum
    overflowed.
    """

    levels: tuple[int, ...]
    cell_n: int
    ss_effects: tuple[float, ...] | np.ndarray
    ss_error: float | np.ndarray
    ss_total: float | np.ndarray

    @property
    def n_total(self) -> int:
        return math.prod(self.levels) * self.cell_n

    @property
    def df_error(self) -> int:
        return math.prod(self.levels) * (self.cell_n - 1)

    @property
    def degenerate(self):
        """Zero error variance, where F is NaN: flat cells, residuals whose
        squares underflow (like 1e-170), or an error mean square that does."""
        return self.ss_error / self.df_error == 0.0

    @property
    def overflowed(self):
        """Whether a sum of squares left the double range (inf, or NaN from inf - inf)."""
        return ~np.isfinite([*self.ss_effects, self.ss_error, self.ss_total]).all(axis=0)

    def ss(self, effect: str):
        return self.ss_effects[EFFECTS.index(_checked(effect))]

    def df(self, effect: str) -> int:
        return math.prod(n - 1 for f, n in zip(_FACTORS, self.levels) if f in _checked(effect))

    def c(self, effect: str) -> int:
        """c_e: N over the product of the term's levels."""
        return self.n_total // math.prod(_term_shape(self.levels, _checked(effect)))

    def f(self, effect: str):
        """The F ratio of an effect: NaN where degenerate, inf where the quotient
        overflows; a Python float for a table, a column for a block."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.divide(self.ss(effect) / self.df(effect), self.ss_error / self.df_error)
        f = np.where(self.degenerate, math.nan, f)
        return f if f.ndim else float(f)

    def residual(self, effects: tuple[str, ...]):
        """The residual sum of squares of the model with ``effects``."""
        return self.ss_error + sum(self.ss(e) for e in EFFECTS if e not in effects)


@dataclass(frozen=True)
class AnovaTable(_Fit):
    """The fit of one dataset: its design and its sums of squares.

    ``AnovaTable(levels, cell_n, ss_effects, ss_error, ss_total)``, the
    effects' sums in ``EFFECTS`` order, one per term.  Each sum must be a
    real number (``_real``), and is kept as a Python float; an inf or NaN
    sum is kept too, and refused where it is used (``overflowed``).  F and
    every other value are derived from these (``_Fit``).  ``degenerate``
    marks a zero-error-variance fit: its F ratios are NaN and must not be
    consumed.  The balanced decomposition guarantees that the effect and
    error sums add to ss_total up to rounding.
    """

    def __post_init__(self):
        levels = self.levels if hasattr(self.levels, "__len__") else ()
        if len(levels) != len(_FACTORS):
            raise DomainError(
                f"levels must be {len(_FACTORS)} counts of at least 2, got {self.levels}")
        object.__setattr__(self, "levels", tuple(
            _count(f"levels[{i}]", n, 2) for i, n in enumerate(levels)))
        object.__setattr__(self, "cell_n", _count("cell_n", self.cell_n, 2))
        sums = self.ss_effects if hasattr(self.ss_effects, "__len__") else ()
        if len(sums) != len(EFFECTS):
            raise DomainError(
                f"ss_effects must be {len(EFFECTS)} sums, one per term of {EFFECTS}, "
                f"got {self.ss_effects!r}")
        object.__setattr__(self, "ss_effects", tuple(
            _real(f"ss_effects[{i}]", ss) for i, ss in enumerate(sums)))
        for name in ("ss_error", "ss_total"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))


def fit_two_way(data: FactorialDataset) -> AnovaTable:
    """Fit the two-way ANOVA with interaction to balanced data."""
    return _fit_block(data.y[None]).table(0)


class _Block(_Fit):
    """The fits of a block of datasets of one design, as columns.

    Each sum of squares is a column with one row per dataset, and
    ``ss_effects`` stacks the terms' columns, so each derived quantity that
    depends on the data is a column too.  ``table(row)`` is one dataset's
    table.
    """

    def table(self, row: int) -> AnovaTable:
        return AnovaTable(self.levels, self.cell_n, self.ss_effects[:, row],
                          self.ss_error[row], self.ss_total[row])


def _fit_block(y: np.ndarray) -> _Block:
    """The fits of a stack of datasets of shape (m, a, b, cell_n), as columns.

    Each term's effect is the mean over the axes outside it less the lower
    terms' means by inclusion-exclusion, the larger terms first:
    (cell - a) - b + grand.  Every sum and mean runs over one dataset's own
    elements, along trailing axes, so each row is bitwise what its dataset
    gives alone.
    """
    m, *levels, cell_n = y.shape
    block = _Block(tuple(levels), cell_n, np.empty((len(EFFECTS), m)), np.empty(m), np.empty(m))
    axes = tuple(range(1, y.ndim))  # one dataset's: its factors', then its cell's
    means = {"": y.mean(axis=axes, keepdims=True)}
    with np.errstate(over="ignore"):  # a sum of squares beyond the double range is inf
        for column, term in enumerate(EFFECTS):
            outside = tuple(axis for axis, f in enumerate(_FACTORS, 1) if f not in term)
            effect = means[term] = y.mean(axis=outside + (y.ndim - 1,), keepdims=True)
            for lower in sorted(("",) + _inside(term)[:-1], key=len, reverse=True):
                op = np.subtract if (len(term) - len(lower)) % 2 else np.add
                effect = op(effect, means[lower])
            block.ss_effects[column] = block.c(term) * np.sum(effect**2, axis=axes)
        block.ss_total[:] = np.sum((y - means[""]) ** 2, axis=axes)
        block.ss_error[:] = np.sum((y - means["".join(_FACTORS)]) ** 2, axis=axes)
    # Zero error variance means every cell is constant; decide that exactly
    # rather than from the computed residuals, whose rounding can leave a
    # spurious 1e-30-ish sum for constant input.  A constant response gets
    # exact zeros in every sum of squares for the same reason.
    flat_cells = np.all(y == y[..., :1], axis=axes)
    values = y.reshape(m, -1)
    constant = flat_cells & np.all(values == values[:, :1], axis=1)
    block.ss_effects[:, constant] = 0.0
    block.ss_total[constant] = 0.0
    block.ss_error[flat_cells] = 0.0
    return block


def bic_bf_for_effect(table: AnovaTable, effect: str) -> BayesFactorValue:
    """BIC Bayes factor BF01 for one effect of a fitted table.

    ``n`` in the BIC is the total observation count.  Raises DomainError
    when a sum of squares left the double range, as the oracle does, and
    DegenerateDataError for zero error variance.
    """
    if table.overflowed:
        raise DomainError(_OVERFLOWED)
    if table.degenerate:
        raise DegenerateDataError(
            "zero error variance: F is undefined, no Bayes factor"
        )
    return bf01_from_f(table.f(effect), table.df(effect), table.df_error, table.n_total)


def _bic_log_bf10(block: _Block, effect: str) -> list[float]:
    """BIC log BF10 of ``effect`` for each row, bitwise that of ``bic_bf_for_effect``.

    The ratio F*df1/df2 is taken in arrays and its log1p by ``math.log1p``,
    value by value: numpy's log1p differs from it in the last bit on some
    inputs.  A row whose sums overflowed or whose ratio is not finite
    (degenerate, a non-finite F, or an overflowing product) takes
    ``bic_bf_for_effect`` on its table, which raises its error or takes the
    log-split branch.
    """
    df1, n = block.df(effect), block.n_total
    with np.errstate(over="ignore"):
        ratio = block.f(effect) * df1 / block.df_error
    log1p_ratio = np.array(list(map(math.log1p, ratio.tolist())))
    log_bf10 = (-_bic_log_bf01(df1, n, log1p_ratio)).tolist()
    for row in np.flatnonzero(block.overflowed | ~np.isfinite(ratio)).tolist():
        log_bf10[row] = -bic_bf_for_effect(block.table(row), effect).log_bf
    return log_bf10
