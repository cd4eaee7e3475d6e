"""Simulation study: BIC Bayes factor against the default g-prior oracle.

Each trial generates a balanced two-factor dataset

    y_ijk = alpha_i + tau_j + gamma_ij + eps_ijk

with effects drawn i.i.d. Normal(0, g) and unit-variance noise, computes
log BF10 per effect by both routes, and applies the decision rule "pick H1
iff log BF10 > 0".  Summaries are five-number statistics of the log Bayes
factors plus the per-effect consistency, the proportion of trials on which
the two routes reach the same decision.

Trials run in blocks of as many as stack at most 2^18 observations, or of
one trial where a trial has more.  A block's datasets are generated in one
pass: the substreams of all its trials are keyed in one array pass
(``bicbf.rng._label_words``) and each trial's draws fill its rows of one
stacked array, which is fitted in one array pass into sums-of-squares
columns (``bicbf.anova._fit_block``).  The BIC of each effect is one pass
over the block's F column (``bicbf.anova._bic_log_bf10``), and the oracle
sets up and integrates the whole block at once from the same columns
(``bicbf.gprior``); no per-trial table is built.  A block that fails runs
its two halves in order, recursively, so the error names its lowest
failing trial with the message it gives alone.  ``generate_dataset`` is
the one-trial block.

The records stay columns from the block to the report: ``run_simulation``
and ``read_records`` return one ``RecordTable``, which the writer, the
summaries and the densities read column by column.  A ``SimulationRecord``
is built only when a table is indexed or iterated.

Determinism: every draw comes from a substream keyed by (seed, label,
trial), with separate labels for effect draws and noise draws, and each
stream is bit for bit ``PCG64(SeedSequence([seed, key, trial]))``; the
oracle is deterministic quadrature and draws nothing.  Every draw and
every sum runs over one trial's own values, so a record is bitwise the
same whether its trial runs alone, inside a block or at a block edge.
Consequences relied on elsewhere: a rerun is bitwise identical, a trial's
records depend only on the config and the trial number (so a shorter run
is a prefix of a longer one), and two configs differing only in g share
their noise (and, up to the sqrt(g) scale, their effects), which makes
evidence monotone in g testable on coupled trials.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import reduce
from itertools import islice, repeat
from numbers import Integral
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .anova import EFFECTS, FactorialDataset, _bic_log_bf10, _fit_block, _term_shape
from .errors import BicbfError, DomainError, SimulationError
from .gprior import GPriorSpec, _evaluate, _number, _real, _setup

__all__ = [
    "SimulationConfig",
    "SimulationRecord",
    "RecordTable",
    "FiveNumber",
    "EffectSummary",
    "DensitySeries",
    "decide",
    "generate_dataset",
    "run_simulation",
    "summarize",
    "silverman_bandwidth",
    "emit_density_data",
    "write_records",
    "read_records",
    "write_density_data",
    "write_config",
    "read_config",
]

RESULTS_HEADER = (
    "trial",
    "effect",
    "log_bf10_bic",
    "log_bf10_default",
    "decision_bic",
    "decision_default",
)

DENSITY_HEADER = ("effect", "bf_type", "x", "density")

DENSITY_GRID_POINTS = 512


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation condition.

    ``g`` is the effect variance relative to unit noise; ``seed`` keys the
    data-generating substreams.  Of the oracle spec only the prior scale
    enters the results.  The counts and the seed must be integers (numpy
    integers too, a bool not) and g a real number other than a bool, kept
    as a float, so that every config runs and writes back a file
    ``read_config`` reads as an equal config.  A design whose one-trial
    array is more bytes than numpy can describe (2**63) is refused here.
    """

    cell_n: int
    g: float
    trials: int
    seed: int
    a_levels: int = 2
    b_levels: int = 3
    oracle: GPriorSpec = GPriorSpec()

    def __post_init__(self):
        for name in ("cell_n", "trials", "seed", "a_levels", "b_levels"):
            _number(name, getattr(self, name), Integral)
        object.__setattr__(self, "g", _real("g", self.g))
        if self.cell_n < 2:
            raise DomainError(f"cell_n must be at least 2, got {self.cell_n}")
        if not (math.isfinite(self.g) and self.g >= 0):
            raise DomainError(f"g must be finite and nonnegative, got {self.g}")
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.a_levels < 2 or self.b_levels < 2:
            raise DomainError(
                f"need at least 2 levels per factor, got {self.a_levels}x{self.b_levels}"
            )
        if self.a_levels * self.b_levels * self.cell_n * 8 >= 2**63:  # float64 values
            raise DomainError(
                f"one trial of {self.a_levels}x{self.b_levels} cells of {self.cell_n} "
                "observations is too large for a numpy array: a*b*cell_n*8 bytes must be "
                "below 2**63"
            )


@dataclass(frozen=True)
class SimulationRecord:
    """Both log Bayes factors and decisions for one (trial, effect)."""

    trial: int
    effect: str
    log_bf10_bic: float
    log_bf10_default: float
    decision_bic: str
    decision_default: str

    def __post_init__(self):
        if self.trial < 0:
            raise DomainError(f"trial must be nonnegative, got {self.trial}")
        if self.effect not in EFFECTS:
            raise DomainError(f"effect must be one of {EFFECTS}, got {self.effect!r}")
        for label, log_bf, decision in (
            ("bic", self.log_bf10_bic, self.decision_bic),
            ("default", self.log_bf10_default, self.decision_default),
        ):
            if not math.isfinite(log_bf):
                raise DomainError(f"log_bf10_{label} must be finite, got {log_bf}")
            if decision != decide(log_bf):
                raise DomainError(
                    f"decision_{label}={decision!r} contradicts log_bf10_{label}={log_bf}"
                )


def decide(log_bf10: float) -> str:
    """The decision rule: pick H1 exactly when log BF10 > 0."""
    return "H1" if log_bf10 > 0 else "H0"


def _decisions(log_bf10: np.ndarray) -> np.ndarray:
    """``decide`` of each value."""
    return np.where(log_bf10 > 0, "H1", "H0")


def _trial_column(trials) -> np.ndarray:
    """Trial numbers as int64, or as Python ints where one does not fit."""
    try:
        return np.array(trials, dtype=np.int64)
    except OverflowError:
        return np.array(trials, dtype=object)


_EFFECT_CODES = {effect: code for code, effect in enumerate(EFFECTS)}
_EFFECT_NAMES = np.array(EFFECTS, dtype=object)
_DECISION_CODES = {"H0": 0, "H1": 1}  # a decision's code is its log BF10 > 0


class RecordTable(Sequence):
    """Records as columns: a read-only list of ``SimulationRecord``.

    ``trial`` holds the trial numbers (int64, or Python ints where one does
    not fit), ``effect`` each record's index into ``EFFECTS`` (int8), and
    ``log_bf10_bic`` and ``log_bf10_default`` the float64 log Bayes
    factors; each decision is its log BF10 > 0, as ``decide`` takes it.
    The columns are taken as checked: ``run_simulation`` and
    ``read_records`` check them in arrays, and ``RecordTable.of`` builds a
    table from records, which check themselves.

    A table has a length, takes int, negative and stepped-slice indices
    (a slice is a table), iterates, and compares equal to another table or
    to any sequence of the same records, from either side; ``+`` joins it
    with a table or a list of records.  An index or iteration builds each
    record on demand, a validated ``SimulationRecord`` with Python int,
    str and float fields.
    """

    __slots__ = ("trial", "effect", "log_bf10_bic", "log_bf10_default")

    def __init__(self, trial: np.ndarray, effect: np.ndarray, log_bf10_bic: np.ndarray,
                 log_bf10_default: np.ndarray):
        columns = (trial, effect, log_bf10_bic, log_bf10_default)
        if len({len(column) for column in columns}) != 1:
            raise ValueError(f"columns of different lengths {[len(c) for c in columns]}")
        for name, column in zip(self.__slots__, columns):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return RecordTable, self._columns()

    @classmethod
    def of(cls, records: Iterable[SimulationRecord]) -> "RecordTable":
        """The records as a table; a table is itself."""
        if isinstance(records, cls):
            return records
        records = list(records)
        return cls(_trial_column([r.trial for r in records]),
                   np.array([_EFFECT_CODES[r.effect] for r in records], dtype=np.int8),
                   np.array([r.log_bf10_bic for r in records], dtype=float),
                   np.array([r.log_bf10_default for r in records], dtype=float))

    @classmethod
    def concat(cls, tables: Sequence["RecordTable"]) -> "RecordTable":
        """The tables one after another."""
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in cls.__slots__))

    def _columns(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.trial)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordTable(*(column[index] for column in self._columns()))
        try:
            row = range(len(self))[index]
        except TypeError:
            raise TypeError(f"record table indices must be integers or slices, "
                            f"not {type(index).__name__}") from None
        except IndexError:
            raise IndexError("record table index out of range") from None
        bic, default = float(self.log_bf10_bic[row]), float(self.log_bf10_default[row])
        return SimulationRecord(int(self.trial[row]), EFFECTS[self.effect[row]], bic, default,
                                decide(bic), decide(default))

    def __iter__(self):
        bic, default = self.log_bf10_bic, self.log_bf10_default
        return map(SimulationRecord, self.trial.tolist(), _EFFECT_NAMES[self.effect].tolist(),
                   bic.tolist(), default.tolist(), _decisions(bic).tolist(),
                   _decisions(default).tolist())

    def __eq__(self, other):
        if isinstance(other, RecordTable):
            return len(self) == len(other) and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self._columns(), other._columns()))
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, (RecordTable, list)):
            return NotImplemented
        return RecordTable.concat([self, RecordTable.of(other)])

    def __radd__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return RecordTable.concat([RecordTable.of(other), self])

    def __repr__(self) -> str:
        return f"<RecordTable of {len(self)} records>"

    def _effect_columns(self):
        """(effect, its log_bf10_bic, its log_bf10_default) per effect present, in file order."""
        for code, effect in enumerate(EFFECTS):
            rows = self.effect == code
            if rows.any():
                yield effect, self.log_bf10_bic[rows], self.log_bf10_default[rows]


def generate_dataset(config: SimulationConfig, trial: int) -> FactorialDataset:
    """The dataset of one trial: the one-trial case of ``_block_data``."""
    y = _block_data(config, [trial])[0]
    return FactorialDataset(config.a_levels, config.b_levels, config.cell_n, y)


def _block_data(config: SimulationConfig, trials: Sequence[int]) -> np.ndarray:
    """The stacked (len(trials), a, b, cell_n) observations of the trials.

    A trial's effects are one draw of a + b + a*b scaled standard normals
    (the terms in ``EFFECTS`` order, each term's cells row-major; exactly
    zero when g = 0) from its "effects" substream, its noise one draw from
    its "noise" substream.  Both streams of every trial are keyed in one
    array pass (``bicbf.rng._label_words``), and a trial's two generators
    are built from its words only for its draws, so a block holds one
    trial's generators at a time.  Each trial's values are drawn into its
    own rows and composed elementwise, so a row is bitwise the same in any
    block.
    """
    # here, at the first draw: reading or writing results loads no engine
    from .rng import _generator, _label_words

    levels = (config.a_levels, config.b_levels)
    shapes = [_term_shape(levels, term) for term in EFFECTS]
    sizes = [math.prod(shape) for shape in shapes]
    effects = np.empty((len(trials), sum(sizes)))
    y = np.empty((len(trials), *levels, config.cell_n))
    words = _label_words(config.seed, ("effects", "noise"), trials)
    for row, (effects_words, noise_words) in enumerate(zip(*words)):
        _generator(effects_words).standard_normal(out=effects[row])
        _generator(noise_words).standard_normal(out=y[row])
    effects *= math.sqrt(config.g)
    terms = np.split(effects, np.cumsum(sizes)[:-1], axis=1)
    cells = reduce(np.add, (term.reshape(-1, *shape, 1) for term, shape in zip(terms, shapes)))
    return np.add(cells, y, out=y)


_BLOCK_VALUES = 2**18  # observations stacked in a block, which bound its memory


def run_simulation(
    config: SimulationConfig,
    progress: Callable[[int, int], None] | None = None,
) -> RecordTable:
    """All records of the configured study, in (trial, effect) order.

    Trials run in blocks of as many as stack at most ``_BLOCK_VALUES``
    observations (one, where a trial has more); each record is bitwise the
    one its trial gives alone.  ``progress`` is called with (finished_trials,
    total_trials) once per trial, in order, when the trial's block is done.
    """
    per_trial = config.a_levels * config.b_levels * config.cell_n
    size = max(1, _BLOCK_VALUES // per_trial)
    blocks = []
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        blocks.append(_block_records(config, trials))
        if progress is not None:
            for trial in trials:
                progress(trial + 1, config.trials)
    return RecordTable.concat(blocks)


def _block_records(config: SimulationConfig, trials: range) -> RecordTable:
    """Records of consecutive trials, with one array pass per stage.

    The block's datasets are generated in one pass and checked finite.
    The fit gives one column per sum of squares, and each effect's BIC and
    oracle read those columns for the whole block; only a row whose F
    ratio is degenerate or not finite takes the one-table BIC, for its
    error or its log-split branch.  The log Bayes factors are checked
    finite in arrays, in record order, as ``SimulationRecord`` checks them.
    A block of several trials that fails runs its two halves in order,
    recursively, so the error names the lowest failing trial with the
    message that trial gives alone: within a trial, effect by effect, the
    BIC before the oracle.
    """
    try:
        y = _block_data(config, trials)
        if not np.isfinite(y).all():
            raise DomainError("observations must be finite")
        block = _fit_block(y)
        bic = np.empty((len(trials), len(EFFECTS)))
        default = np.empty_like(bic)
        for column, effect in enumerate(EFFECTS):
            bic[:, column] = _bic_log_bf10(block, effect)
            default[:, column] = _evaluate(_setup(block, effect, config.oracle.scale))
        routes = np.stack((bic, default), axis=-1)  # trial, effect, then route
        bad = np.flatnonzero(~np.isfinite(routes))
        if bad.size:
            label = ("bic", "default")[bad[0] % 2]
            raise DomainError(f"log_bf10_{label} must be finite, got {routes.flat[bad[0]]}")
        return RecordTable(np.repeat(np.arange(trials.start, trials.stop), len(EFFECTS)),
                           np.tile(np.arange(len(EFFECTS), dtype=np.int8), len(trials)),
                           bic.ravel(), default.ravel())
    except BicbfError as exc:
        if len(trials) == 1:
            raise SimulationError(f"trial {trials[0]}: {exc}") from exc
    half = len(trials) // 2
    return _block_records(config, trials[:half]) + _block_records(config, trials[half:])


@dataclass(frozen=True)
class FiveNumber:
    """Min, quartiles, and max; quartiles by linear interpolation (type 7)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "FiveNumber":
        if len(values) == 0:
            raise DomainError("no values to summarize")
        points = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
        return cls(*(float(v) for v in points))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum)


@dataclass(frozen=True)
class EffectSummary:
    """Five-number summaries of both log BF10 routes plus their agreement."""

    effect: str
    n_trials: int
    bic: FiveNumber
    default: FiveNumber
    consistency: float


def summarize(records: Iterable[SimulationRecord]) -> dict[str, EffectSummary]:
    """Per-effect summaries, keyed by effect, for the effects present."""
    records = RecordTable.of(records)
    if not len(records):
        raise DomainError("no records to summarize")
    out: dict[str, EffectSummary] = {}
    for effect, bic, default in records._effect_columns():
        agree = int(np.count_nonzero((bic > 0) == (default > 0)))
        out[effect] = EffectSummary(
            effect=effect,
            n_trials=bic.size,
            bic=FiveNumber.of(bic),
            default=FiveNumber.of(default),
            consistency=agree / bic.size,
        )
    return out


def silverman_bandwidth(values: Sequence[float]) -> float:
    """0.9 * min(sd, IQR/1.349) * n^(-1/5), falling back to sd when IQR is 0."""
    array = np.asarray(values, dtype=float)
    if array.size < 2 or np.all(array == array.flat[0]):
        raise DomainError("need at least two distinct values for a bandwidth")
    sd = float(np.std(array, ddof=1))
    q1, q3 = np.percentile(array, [25, 75])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.349) if iqr > 0 else sd
    return 0.9 * spread * array.size ** (-0.2)


@dataclass(frozen=True, eq=False)
class DensitySeries:
    """Gaussian kernel density of one (effect, BF type) group."""

    effect: str
    bf_type: str
    bandwidth: float
    x: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)


_KDE_VALUES = 2**14  # (grid point, value) products taken at once, in whole grid rows
# Exponents below this are bracketed, not evaluated: exp(-700) ~ 9.9e-305 is
# a normal double, in the range where numpy's exp takes its fast lanes
_EXP_FLOOR = -700.0


def _exponents(x: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """(x.size, values.size) -0.5 * z * z, z = (x[i] - values[j]) / h, rounded as
    the one-shot formula rounds it."""
    z = np.subtract.outer(x, values)
    z /= h
    t = np.multiply(z, -0.5)
    t *= z
    return t


def _one_shot_sums(x: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """The one-shot ``exp(-0.5 * z * z).sum(axis=1)`` of grid points ``x``."""
    t = _exponents(x, values, h)
    return np.exp(t, out=t).sum(axis=1)


def _kernel_sums(x: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """Row sums of exp(-0.5 * z * z), z = (x[i] - values[j]) / h, in chunks of rows.

    A chunk with an exponent below ``_EXP_FLOOR`` (and no NaN) brackets
    those products instead of evaluating them, whose exp is slow: each row
    is summed with them at exp(_EXP_FLOOR), above their value, and at 0,
    below it.  Rounded addition is monotone in each operand and all three
    sums share one pairwise-sum tree, so a row whose two sums agree is
    bitwise the one-shot sum; any other row is summed again by the one-shot
    formula.  Any other chunk is the one-shot formula itself.
    """
    sums = np.empty(x.size)
    rows = max(1, _KDE_VALUES // values.size)
    for start in range(0, x.size, rows):
        grid, out = x[start : start + rows], sums[start : start + rows]
        t = _exponents(grid, values, h)
        if not t.min() < _EXP_FLOOR:  # a NaN minimum also takes this path
            np.exp(t, out=t)
            t.sum(axis=1, out=out)
            continue
        low = t < _EXP_FLOOR
        np.maximum(t, _EXP_FLOOR, out=t)
        np.exp(t, out=t)
        t.sum(axis=1, out=out)
        np.copyto(t, 0.0, where=low)
        redo = np.flatnonzero(out != t.sum(axis=1))
        if redo.size:
            out[redo] = _one_shot_sums(grid[redo], values, h)
    return sums


def emit_density_data(
    records: Iterable[SimulationRecord], bandwidth: float | None = None
) -> list[DensitySeries]:
    """Kernel densities of log BF10, one series per (effect, BF type).

    512 evenly spaced grid points spanning [min - 3h, max + 3h] per series,
    h being ``bandwidth`` or Silverman's rule.  A group with no spread, or a
    bandwidth that takes its grid or density out of the double range, has no
    density; the error names it.

    The kernel sums run in chunks of whole grid rows of about
    ``_KDE_VALUES`` (grid point, value) products, so memory does not grow
    with the grid times the trials.  Each product goes through the IEEE
    operations of the one-shot ``exp(-0.5 * z * z).sum(axis=1)`` with
    z = (x - value) / h, and each row is summed alone over the same
    contiguous values, so the densities are bitwise the one-shot formula's.
    Products below exp(-700) are bracketed between 0 and exp(-700) rather
    than evaluated, and a row the bracket does not settle is summed again
    (``_kernel_sums``), so the bits stay the one-shot formula's.
    """
    records = RecordTable.of(records)
    if not len(records):
        raise DomainError("no records for density estimation")
    if bandwidth is not None and not (math.isfinite(bandwidth) and bandwidth > 0):
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    series = []
    for effect, bic, default in records._effect_columns():
        for bf_type, array in (("bic", bic), ("default", default)):
            if np.all(array == array[0]):
                raise DomainError(
                    f"effect {effect}, {bf_type} log BFs are constant; no density"
                )
            h = bandwidth if bandwidth is not None else silverman_bandwidth(array)
            with np.errstate(all="ignore"):  # z * z may overflow: exp(-inf) = 0 is right
                x = np.linspace(array.min() - 3 * h, array.max() + 3 * h, DENSITY_GRID_POINTS)
                density = _kernel_sums(x, array, h)
                density /= array.size * h * math.sqrt(2.0 * math.pi)
            if not (np.isfinite(x).all() and np.isfinite(density).all()):
                raise DomainError(f"bandwidth {h!r} takes the effect {effect}, {bf_type} "
                                  "density grid or values out of the double range")
            series.append(DensitySeries(effect, bf_type, h, x, density))
    return series


# Rows as the csv module writes them: no field of either file needs quoting
# (effects, BF types and decisions are fixed words; numbers have no comma),
# and "\r\n" is its line terminator.
_RESULTS_ROW = "%d,%s,%.17g,%.17g,%s,%s\r\n"
_WRITE_ROWS = 2**14  # results rows formatted at once


def write_records(records: Iterable[SimulationRecord], path: str | Path) -> None:
    """Write the results file: one row per (trial, effect), 17 significant digits.

    Rows are formatted from the columns, ``_WRITE_ROWS`` at a time, each
    value as a Python int, str or float.
    """
    records = RecordTable.of(records)
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(RESULTS_HEADER) + "\r\n")
        for start in range(0, len(records), _WRITE_ROWS):
            part = records[start : start + _WRITE_ROWS]
            fields = np.empty((len(part), len(RESULTS_HEADER)), dtype=object)
            fields[:, 0] = part.trial
            fields[:, 1] = _EFFECT_NAMES[part.effect]
            fields[:, 2] = part.log_bf10_bic
            fields[:, 3] = part.log_bf10_default
            fields[:, 4] = _decisions(part.log_bf10_bic)
            fields[:, 5] = _decisions(part.log_bf10_default)
            handle.write((_RESULTS_ROW * len(part)) % tuple(fields.ravel().tolist()))


_READ_ROWS = 2**14  # rows parsed at once, which bound the reader's memory


def read_records(path: str | Path) -> RecordTable:
    """Read a results file back; the first malformed or repeated row is named on error.

    The rows are parsed and checked in arrays, ``_READ_ROWS`` at a time.
    Only the first bad row, if any, goes through ``SimulationRecord`` on its
    own, so its error is the one that row alone gives.  A row whose (trial,
    effect) an earlier row has is named with that row's line.  A problem of
    the file itself (text that is not UTF-8, a field over the csv module's
    size limit) is reported when no row read before it is bad.
    """
    path = Path(path)
    failures: list[Exception] = []
    tables, linenos, bad = [], [], None
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = _rows_until_failure(reader, failures)
        header = next(rows, None)
        if header is None or tuple(col.strip() for col in header) != RESULTS_HEADER:
            if failures:
                raise _file_error(path, failures[0], reader)
            raise DomainError(f"{path}: expected header {','.join(RESULTS_HEADER)}, got {header}")
        lineno = 2  # of the chunk's first row; a blank row counts only here
        while chunk := list(islice(rows, _READ_ROWS)):
            numbers = lineno + np.flatnonzero(np.fromiter(map(bool, chunk), bool, len(chunk)))
            lineno += len(chunk)
            chunk = list(filter(None, chunk))
            table, good = _leading_rows(chunk)
            tables.append(table)
            linenos.append(numbers[:good])
            if good < len(chunk):
                bad = chunk[good], numbers[good]
                break
    table = RecordTable.concat(tables) if tables else RecordTable.of([])
    linenos = np.concatenate(linenos) if linenos else np.empty(0, dtype=np.intp)
    repeat = _first_repeat(table)
    if repeat is not None:
        row, earlier = repeat
        record = table[row]
        raise DomainError(f"{path}:{linenos[row]}: trial {record.trial}, effect "
                          f"{record.effect} repeats line {linenos[earlier]}")
    if bad is not None:
        row, lineno = bad
        try:
            _row_record(row)
        except (BicbfError, ValueError) as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        raise AssertionError(f"{path}:{lineno}: a row the array checks reject passes alone")
    if failures:
        raise _file_error(path, failures[0], reader)
    return table


def _rows_until_failure(reader, failures: list[Exception]):
    """The reader's rows up to a problem of the file itself, which goes to ``failures``."""
    try:
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:  # e.g. a field over the size limit
        failures.append(exc)


def _file_error(path: Path, exc: Exception, reader) -> DomainError:
    where, what = f":{reader.line_num}", exc
    if isinstance(exc, UnicodeDecodeError):
        # The decoder's position is within its chunk, so name the first line
        # that does not decode alone: UTF-8 never puts b"\n" inside a character.
        where = ""
        with path.open("rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                try:
                    line.decode(exc.encoding)
                except UnicodeDecodeError as line_exc:
                    where, what = f":{lineno}", line_exc
                    break
    error = DomainError(f"{path}{where}: {what}")
    error.__cause__ = exc
    return error


def _row_record(row: list[str]) -> SimulationRecord:
    """One row as a record, or the error of its first fault."""
    if len(row) != 6:
        raise DomainError(f"expected 6 fields, got {len(row)}")
    return SimulationRecord(
        trial=int(row[0]),
        effect=row[1],
        log_bf10_bic=float(row[2]),
        log_bf10_default=float(row[3]),
        decision_bic=row[4],
        decision_default=row[5],
    )


def _converted(kind: Callable[[str], object], fields: Sequence[str]) -> list:
    """``kind`` of each field, up to the first it cannot convert."""
    try:
        return list(map(kind, fields))
    except ValueError:
        values = []
        for text in fields:
            try:
                values.append(kind(text))
            except ValueError:
                break
        return values


def _codes(mapping: dict[str, int], fields: Sequence[str]) -> np.ndarray:
    """The code of each field, -1 for a field that has none."""
    return np.fromiter(map(mapping.get, fields, repeat(-1)), np.int8, len(fields))


def _first(bad: np.ndarray) -> int:
    """The index of the first true value, or the length when there is none."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else bad.size


def _leading_rows(rows: list[list[str]]) -> tuple[RecordTable, int]:
    """The rows before the first bad one, as a table, and their count.

    Each check runs over a column and cuts the rows at its first failure,
    so the count is the index of the first row that has the wrong number
    of fields, a trial or log BF that does not parse, or a value that
    ``SimulationRecord`` rejects.
    """
    good = _first(np.fromiter(map(len, rows), np.intp, len(rows)) != len(RESULTS_HEADER))
    fields = list(zip(*rows[:good])) or [()] * len(RESULTS_HEADER)
    trial = _converted(int, fields[0])
    bic = _converted(float, fields[2][: len(trial)])
    default = _converted(float, fields[3][: len(bic)])
    good = len(default)
    trial, bic, default = _trial_column(trial[:good]), np.array(bic[:good]), np.array(default)
    effect = _codes(_EFFECT_CODES, fields[1][:good])
    decision_bic = _codes(_DECISION_CODES, fields[4][:good])
    decision_default = _codes(_DECISION_CODES, fields[5][:good])
    good = _first((trial < 0) | (effect < 0) | ~np.isfinite(bic) | ~np.isfinite(default)
                  | (decision_bic != (bic > 0)) | (decision_default != (default > 0)))
    return RecordTable(trial, effect, bic, default)[:good], good


def _first_repeat(table: RecordTable) -> tuple[int, int] | None:
    """The first row whose (trial, effect) an earlier row has, and the first such row."""
    order = np.lexsort((table.effect, table.trial))  # stable: a key's rows in file order
    trial, effect = table.trial[order], table.effect[order]
    repeats = order[1:][(trial[1:] == trial[:-1]) & (effect[1:] == effect[:-1])]
    if not repeats.size:
        return None
    row = int(repeats.min())
    same = (table.trial == table.trial[row]) & (table.effect == table.effect[row])
    return row, int(np.flatnonzero(same)[0])


def write_density_data(series: Iterable[DensitySeries], path: str | Path) -> None:
    """Write density series as delimited rows: effect, bf_type, x, density."""
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(DENSITY_HEADER) + "\r\n")
        for s in series:
            values = np.column_stack((s.x, s.density)).ravel().tolist()  # x, density, ...
            handle.write((f"{s.effect},{s.bf_type},%.17g,%.17g\r\n" * len(s.x)) % tuple(values))


# Field annotations are strings under ``from __future__ import annotations``.
_FIELD_TYPES = {"int": int, "float": float}


def _config_items(config=SimulationConfig, prefix: str = ""):
    """(key, type, value) per config-file key, in dataclass field order.

    Fields of the nested oracle spec get dotted keys.  Given the class
    instead of a config, value is the field's default, MISSING where the
    field is required.
    """
    for f in fields(config):
        value = getattr(config, f.name, f.default)
        if is_dataclass(value):
            yield from _config_items(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, _FIELD_TYPES[f.type], value


def write_config(config: SimulationConfig, path: str | Path) -> None:
    """Write a config as flat ``key = value`` lines, oracle fields dotted."""
    lines = [f"{key} = {value}" for key, _, value in _config_items(config)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_config(path: str | Path) -> SimulationConfig:
    """Read a ``key = value`` config file; unknown or repeated keys are errors.

    Keys missing from the file take the dataclass defaults; every error
    names the file.
    """
    path = Path(path)
    schema = {key: (kind, default) for key, kind, default in _config_items()}
    pairs: dict[str, str] = {}
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in schema:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise DomainError(f"{path}:{lineno}: repeated key {key!r}")
        pairs[key] = value
    missing = [key for key, (_, default) in schema.items()
               if default is MISSING and key not in pairs]
    if missing:
        raise DomainError(f"{path}: missing required keys {missing}")
    values = {}
    for key, value in pairs.items():
        kind, _ = schema[key]
        try:
            values[key] = kind(value)
        except ValueError as exc:
            raise DomainError(f"{path}: key {key!r}: {exc}") from exc
    oracle = {key.removeprefix("oracle."): v for key, v in values.items() if "." in key}
    try:
        return SimulationConfig(
            **{key: v for key, v in values.items() if "." not in key},
            oracle=GPriorSpec(**oracle),
        )
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
