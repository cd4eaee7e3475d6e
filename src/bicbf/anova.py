"""Balanced two-way fixed-effects ANOVA with interaction.

The model is y_ijk = mu + alpha_i + tau_j + gamma_ij + eps_ijk with a levels
of factor A, b levels of factor B, and cell_n observations per cell.  In the
balanced case the effect subspaces are orthogonal, so the sums of squares
come straight from cell, marginal, and grand means and partition the total
exactly.  Each effect's F ratio feeds the BIC Bayes factor with n equal to
the total observation count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DegenerateDataError, DomainError, UnbalancedDataError
from .summary import BayesFactorValue, bf01_from_f

__all__ = [
    "EFFECTS",
    "FactorialDataset",
    "AnovaTable",
    "fit_two_way",
    "bic_bf_for_effect",
    "load_dataset",
    "write_dataset",
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

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int, float]]) -> "FactorialDataset":
        """Build a dataset from (a, b, y) triples with 1-based levels.

        The design must be complete and balanced; within a cell, observations
        keep their arrival order.
        """
        cells: dict[tuple[int, int], list[float]] = {}
        for a, b, value in rows:
            cells.setdefault((int(a), int(b)), []).append(float(value))
        if not cells:
            raise UnbalancedDataError("no observations")
        bad = [key for key in cells if key[0] < 1 or key[1] < 1]
        if bad:
            raise DomainError(f"levels must be 1-based positive integers, got cell {bad[0]}")
        a_levels = max(key[0] for key in cells)
        b_levels = max(key[1] for key in cells)
        counts = {key: len(vals) for key, vals in cells.items()}
        cell_n = max(counts.values())
        for i in range(1, a_levels + 1):
            for j in range(1, b_levels + 1):
                got = counts.get((i, j), 0)
                if got != cell_n:
                    raise UnbalancedDataError(
                        f"cell ({i},{j}) has {got} observations, expected {cell_n}"
                    )
        y = np.empty((a_levels, b_levels, cell_n))
        for (i, j), vals in cells.items():
            y[i - 1, j - 1, :] = vals
        return cls(a_levels, b_levels, cell_n, y)

    def iter_rows(self) -> Iterator[tuple[int, int, float]]:
        """(a, b, y) triples with 1-based levels, in (i, j, k) order."""
        for i in range(self.a_levels):
            for j in range(self.b_levels):
                for k in range(self.cell_n):
                    yield i + 1, j + 1, float(self.y[i, j, k])


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
    y = data.y
    a, b, cell_n = data.a_levels, data.b_levels, data.cell_n
    grand = y.mean()
    cell_means = y.mean(axis=2)
    a_means = y.mean(axis=(1, 2))
    b_means = y.mean(axis=(0, 2))

    ss_a = b * cell_n * float(np.sum((a_means - grand) ** 2))
    ss_b = a * cell_n * float(np.sum((b_means - grand) ** 2))
    interaction = cell_means - a_means[:, None] - b_means[None, :] + grand
    ss_ab = cell_n * float(np.sum(interaction**2))
    ss_total = float(np.sum((y - grand) ** 2))

    df_a, df_b = a - 1, b - 1
    df_ab = df_a * df_b
    df_error = a * b * (cell_n - 1)

    # Zero error variance means every cell is constant; decide that exactly
    # rather than from the computed residuals, whose rounding can leave a
    # spurious 1e-30-ish sum for constant input.
    degenerate = bool(np.all(y == y[:, :, :1]))
    ss_error = 0.0 if degenerate else float(np.sum((y - cell_means[:, :, None]) ** 2))
    if degenerate:
        f_a = f_b = f_ab = math.nan
    else:
        mse = ss_error / df_error
        f_a = (ss_a / df_a) / mse
        f_b = (ss_b / df_b) / mse
        f_ab = (ss_ab / df_ab) / mse

    return AnovaTable(
        n_total=data.n_total,
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


def load_dataset(path: str | Path) -> FactorialDataset:
    """Read a dataset from delimited text with header ``a,b,y``."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [col.strip().lower() for col in header] != ["a", "b", "y"]:
            raise DomainError(f"{path}: expected header 'a,b,y', got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DomainError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                rows.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
    return FactorialDataset.from_rows(rows)


def write_dataset(data: FactorialDataset, path: str | Path) -> None:
    """Write a dataset in the ``a,b,y`` format that load_dataset reads."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b", "y"])
        for a, b, value in data.iter_rows():
            writer.writerow([a, b, "%.17g" % value])
