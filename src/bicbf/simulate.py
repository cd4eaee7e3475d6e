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

A block's standard normals do not depend on g, so the process keeps the
draws of the blocks it used last (``_DRAWS``, at most ``_DRAWS_BYTES``,
read-only), and a run of another g only scales and adds them: the g =
0.05 and 0.2 runs of a coupled study draw nothing.  The output is the
same, bit for bit.

The records stay columns from the block to the report: ``run_simulation``
and ``read_records`` return one ``RecordTable``, which checks the record
rules in array passes when it is built, and which the writer, the
summaries and the densities read column by column.  The reader checks
each row's text as it reads it, in one pass over the file, so a results
file may come through a pipe.  A ``SimulationRecord`` row, of Python
values, is built only when a table is iterated.

The study's config, ``SimulationConfig``, and its file format,
``write_config`` and ``read_config``, live in ``bicbf.config``, which loads
no numpy; this module imports them back, so ``bicbf.simulate.SimulationConfig``
is the same class.

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
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .anova import EFFECTS, FactorialDataset, _bic_log_bf10, _fit_block, _term_shape
from .config import SimulationConfig, read_config, write_config  # noqa: F401
from .errors import BicbfError, DomainError, SimulationError
from .gprior import _evaluate, _setup
from .summary import _count, _real

__all__ = [
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
]

class SimulationRecord(NamedTuple):
    """One row of a ``RecordTable``, in Python values, as iteration yields it.

    The table has checked the row's values; the row checks nothing itself.
    """

    trial: int
    effect: str
    log_bf10_bic: float
    log_bf10_default: float
    decision_bic: str
    decision_default: str


RESULTS_HEADER = SimulationRecord._fields

DENSITY_HEADER = ("effect", "bf_type", "x", "density")

DENSITY_GRID_POINTS = 512


def decide(log_bf10: float) -> str:
    """The decision rule: pick H1 exactly when log BF10 > 0."""
    return "H1" if log_bf10 > 0 else "H0"


def _decisions(log_bf10: np.ndarray) -> np.ndarray:
    """``decide`` of each value."""
    return np.where(log_bf10 > 0, "H1", "H0")


def _trial_column(trials: Sequence[int]) -> np.ndarray:
    """Trial numbers as int64, or as Python ints where one does not fit."""
    try:
        return np.array(trials, dtype=np.int64)
    except OverflowError:
        return np.array(trials, dtype=object)


_EFFECT_CODES = {effect: code for code, effect in enumerate(EFFECTS)}
_EFFECT_NAMES = np.array(EFFECTS, dtype=object)
# The numpy kinds of the columns: integer trials (or an object column of
# Python ints) and effect codes, and real log BFs
_COLUMN_KINDS = ("iuO", "iu", "iuf", "iuf")


class RecordTable:
    """Records as columns: both log Bayes factors of each (trial, effect).

    ``trial`` holds the trial numbers (int64, or Python ints where one does
    not fit), ``effect`` each record's index into ``EFFECTS`` (int8), and
    ``log_bf10_bic`` and ``log_bf10_default`` the float64 log Bayes
    factors; each decision is its log BF10 > 0, as ``decide`` takes it.

    The constructor takes four one-dimensional columns of one length and
    checks them in array passes: integer trials and effect codes and real
    log BFs, then the record rules of ``_first_fault``.  A ``DomainError``
    names the first row that breaks one.  An empty column may be of any
    kind.  ``read_records`` checks each row's text by the same rules and
    its decisions (``_record``), and builds one table of the file.

    A table has a length, takes slices (a slice is a table), joins others
    by ``concat``, compares equal to a table of equal columns, and iterates
    as ``SimulationRecord`` rows.  Its columns are read-only.
    """

    __slots__ = ("trial", "effect", "log_bf10_bic", "log_bf10_default")

    def __init__(self, trial: np.ndarray, effect: np.ndarray, log_bf10_bic: np.ndarray,
                 log_bf10_default: np.ndarray):
        columns = list(map(np.asarray, (trial, effect, log_bf10_bic, log_bf10_default)))
        for name, column in zip(self.__slots__, columns):
            if column.ndim != 1:
                raise DomainError(f"{name} must be a column, got an array of shape {column.shape}")
        lengths = [len(column) for column in columns]
        rows = min(lengths)
        if max(lengths) > rows:
            short = self.__slots__[lengths.index(rows)]
            raise DomainError(f"row {rows}: no {short}; the columns have {lengths} rows")
        for name, column, kinds in zip(self.__slots__, columns, _COLUMN_KINDS):
            row = _first_of_other_kind(column, kinds)
            if row is not None:
                value = column[row : row + 1].tolist()[0]
                kind = "a real number" if "f" in kinds else "an integer"
                raise DomainError(f"row {row}: {name} must be {kind}, got {value!r}")
        trial, effect, bic, default = columns
        if trial.dtype != np.int64:
            trial = _trial_column(trial.tolist())
        bic, default = bic.astype(np.float64, copy=False), default.astype(np.float64, copy=False)
        fault = _first_fault(trial, effect, bic, default) if rows else None
        if fault is not None:
            raise DomainError("row %d: %s" % fault)
        columns = trial, effect.astype(np.int8, copy=False), bic, default
        for name, column in zip(self.__slots__, columns):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return RecordTable, self._columns()

    @classmethod
    def concat(cls, tables: Sequence["RecordTable"]) -> "RecordTable":
        """The tables one after another; no tables make the empty table."""
        return cls(*(np.concatenate([getattr(t, name) for t in tables] or [()])
                     for name in cls.__slots__))

    def _columns(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.trial)

    def __getitem__(self, rows: slice) -> "RecordTable":
        if not isinstance(rows, slice):
            raise TypeError(f"a record table takes slices, not {type(rows).__name__}; "
                            "index its columns for one record's values")
        return RecordTable(*(column[rows] for column in self._columns()))

    def __iter__(self):
        bic, default = self.log_bf10_bic, self.log_bf10_default
        return map(SimulationRecord, self.trial.tolist(), _EFFECT_NAMES[self.effect].tolist(),
                   bic.tolist(), default.tolist(), _decisions(bic).tolist(),
                   _decisions(default).tolist())

    def __eq__(self, other):
        if not isinstance(other, RecordTable):
            return NotImplemented
        return all(np.array_equal(mine, theirs)
                   for mine, theirs in zip(self._columns(), other._columns()))

    def __repr__(self) -> str:
        return f"<RecordTable of {len(self)} records>"

    def _effect_columns(self):
        """(effect, its log_bf10_bic, its log_bf10_default) per effect present, in file order."""
        for code, effect in enumerate(EFFECTS):
            rows = self.effect == code
            if rows.any():
                yield effect, self.log_bf10_bic[rows], self.log_bf10_default[rows]


def _first_of_other_kind(column: np.ndarray, kinds: str) -> int | None:
    """The first row whose value is not of the numpy ``kinds``, or None."""
    if column.dtype.kind not in kinds:
        return 0 if len(column) else None
    if column.dtype.kind == "O":  # Python ints, where a trial number does not fit int64
        return next((row for row, value in enumerate(column.tolist()) if type(value) is not int),
                    None)
    return None


def _first_fault(trial: np.ndarray, effect: np.ndarray, bic: np.ndarray,
                 default: np.ndarray) -> tuple[int, str] | None:
    """The first row that breaks a record rule and the rule's message, or None.

    The rules, in the order a row is checked: a nonnegative trial, an
    effect code that indexes ``EFFECTS``, then a finite log BF10 of each
    route.  The columns are numpy arrays of one length.
    """
    rules = [(trial < 0, lambda row: f"trial must be nonnegative, got {trial[row]}"),
             ((effect < 0) | (effect >= len(EFFECTS)),
              lambda row: f"effect must index {EFFECTS}, got {effect[row]}"),
             (~np.isfinite(bic), lambda row: f"log_bf10_bic must be finite, got {bic[row]}"),
             (~np.isfinite(default),
              lambda row: f"log_bf10_default must be finite, got {default[row]}")]
    firsts = [_first(bad) for bad, _ in rules]
    row = min(firsts)
    if row == len(trial):
        return None
    return row, rules[firsts.index(row)][1](row)


def _first(bad: np.ndarray) -> int:
    """The index of the first true value, or the length when there is none."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else bad.size


def generate_dataset(config: SimulationConfig, trial: int) -> FactorialDataset:
    """The dataset of one trial: the one-trial case of ``_block_data``."""
    y = _block_data(config, [trial])[0]
    return FactorialDataset(config.a_levels, config.b_levels, config.cell_n, y)


def _block_data(config: SimulationConfig, trials: Sequence[int]) -> np.ndarray:
    """The stacked (len(trials), a, b, cell_n) observations of the trials, in a
    fresh array.

    A trial's effects are its a + b + a*b standard normals (``_draws``; the
    terms in ``EFFECTS`` order, each term's cells row-major) times sqrt(g),
    so exactly zero when g = 0, and its observations are each cell's sum of
    its terms plus the trial's noise.  The draws do not depend on g: a
    block's draws kept from an earlier call of another g (``_DRAWS``) are
    only rescaled and added, and a block drawn for this call alone is
    composed in place.  Each trial's values are composed elementwise from
    its own draws, so a row is bitwise the same in any block and whether
    its draws were kept or not.
    """
    levels = (config.a_levels, config.b_levels)
    shapes = [_term_shape(levels, term) for term in EFFECTS]
    sizes = [math.prod(shape) for shape in shapes]
    effects, noise = _draws(config, trials, sum(sizes))
    own = noise.flags.writeable  # not kept: no later call reads it
    effects = np.multiply(effects, math.sqrt(config.g), out=effects if own else None)
    terms = np.split(effects, np.cumsum(sizes)[:-1], axis=1)
    cells = reduce(np.add, (term.reshape(-1, *shape, 1) for term, shape in zip(terms, shapes)))
    return np.add(cells, noise, out=noise if own else None)


def _draws(config: SimulationConfig, trials: Sequence[int],
           size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (len(trials), size) standard-normal effects and (len(trials), a, b,
    cell_n) noise of the trials, read-only where they are kept.

    A trial's effects are one draw from its "effects" substream and its
    noise one draw from its "noise" substream.  The trials and the seed are
    checked before the block's key is made: a bad one is the DomainError of
    ``bicbf.rng._label_words``.  A block of at most ``_BLOCK_VALUES``
    observations is looked up in ``_DRAWS`` by (seed, levels, cell_n,
    trials), and kept there once it is drawn whole.  Both streams of every
    trial are keyed in one array pass, and a trial's two generators are
    built from its words only for its draws, so a block holds one trial's
    generators at a time.
    """
    # here, at the first draw: reading or writing results loads no engine
    from .rng import _generator, _indices, _label_words

    indices = _indices(trials)
    seed = _count("seed", config.seed, 0)
    key = (seed, config.a_levels, config.b_levels, config.cell_n, indices.tobytes())
    shape = (indices.size, config.a_levels, config.b_levels, config.cell_n)
    keep = math.prod(shape) <= _BLOCK_VALUES
    drawn = _DRAWS.get(key) if keep else None
    if drawn is not None:
        return drawn
    effects, noise = np.empty((indices.size, size)), np.empty(shape)
    words = _label_words(seed, ("effects", "noise"), indices)
    for row, (effects_words, noise_words) in enumerate(zip(*words)):
        _generator(effects_words).standard_normal(out=effects[row])
        _generator(noise_words).standard_normal(out=noise[row])
    if keep:
        effects.flags.writeable = noise.flags.writeable = False
        _DRAWS.put(key, (effects, noise))
    return effects, noise


_BLOCK_VALUES = 2**18  # observations stacked in a block, which bound its memory
# Bytes of draws kept between calls: both blocks of any condition of the
# paper's study (cell_n 80: 3.9 MB), and always one whole block, whose
# effects are at most as many values as its observations
_DRAWS_BYTES = 2**23
_DRAWS_ENTRY = 1024  # bytes a kept block costs beyond its arrays: key, tuple, array objects


def _cost(drawn: tuple[np.ndarray, ...]) -> int:
    return _DRAWS_ENTRY + sum(array.nbytes for array in drawn)


class _KeptDraws:
    """The draws of the blocks used last, at most ``_DRAWS_BYTES`` by ``_cost``.

    A block used once more moves to the end; the first is dropped first.
    A lock guards the table, not the draws: two threads may draw one block
    at once, and both draws are the same.
    """

    def __init__(self):
        self.blocks: dict = {}
        self.nbytes = 0
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            drawn = self.blocks.pop(key, None)
            if drawn is not None:
                self.blocks[key] = drawn
            return drawn

    def put(self, key, drawn) -> None:
        cost = _cost(drawn)
        with self.lock:
            if key in self.blocks or cost > _DRAWS_BYTES:
                return
            while self.nbytes + cost > _DRAWS_BYTES:
                self.nbytes -= _cost(self.blocks.pop(next(iter(self.blocks))))
            self.blocks[key] = drawn
            self.nbytes += cost


_DRAWS = _KeptDraws()


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
    oracle read those columns for the whole block; only a row whose sums
    overflowed or whose F ratio is degenerate or not finite takes the
    one-table BIC, for its error or its log-split branch.  The records are
    checked by the table's rules (``_first_fault``), whose message the
    trial's error carries.
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
        columns = (np.repeat(np.arange(trials.start, trials.stop), len(EFFECTS)),
                   np.tile(np.arange(len(EFFECTS), dtype=np.int8), len(trials)),
                   bic.ravel(), default.ravel())
        fault = _first_fault(*columns)
        if fault is not None:
            raise DomainError(fault[1])  # the trial, not the row, names it
        return RecordTable(*columns)
    except BicbfError as exc:
        if len(trials) == 1:
            raise SimulationError(f"trial {trials[0]}: {exc}") from exc
    half = len(trials) // 2
    return RecordTable.concat([_block_records(config, trials[:half]),
                               _block_records(config, trials[half:])])


_FIVE = np.array([0.0, 0.25, 0.5, 0.75, 1.0])  # the five numbers' percentiles / 100


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.percentile(values, 100 * q)`` bit for bit, of a nonempty float array:
    numpy's linear rule (type 7) and its ``_lerp``, on ``np.sort``.

    ``np.percentile`` partitions at indices it takes through ``np.unique``,
    which loads numpy.ma.  As numpy's, a value at the last index is taken
    from both sides, and a NaN anywhere is every quantile.
    """
    ordered = np.sort(values, axis=None)
    n = ordered.size
    virtual = (n - 1) * q
    low = np.floor(virtual)
    high = low + 1
    top = virtual >= n - 1
    low[top] = high[top] = -1
    gamma = virtual - low
    a, b = ordered[low.astype(np.intp)], ordered[high.astype(np.intp)]
    diff = b - a
    out = np.add(a, diff * gamma)
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out


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
        points = _quantiles(np.asarray(values, dtype=float), _FIVE)
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


def summarize(records: RecordTable) -> dict[str, EffectSummary]:
    """Per-effect summaries, keyed by effect, for the effects present."""
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
    q1, q3 = _quantiles(array, _FIVE[1::2])
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


def _bandwidth(bandwidth) -> float:
    """``bandwidth`` as a float: a finite positive real number (``_real``); else a
    DomainError."""
    bandwidth = _real("bandwidth", bandwidth)
    if not math.isfinite(bandwidth):
        raise DomainError(f"bandwidth must be finite, got {bandwidth}")
    if bandwidth <= 0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    return bandwidth


def emit_density_data(
    records: RecordTable, bandwidth: float | None = None
) -> list[DensitySeries]:
    """Kernel densities of log BF10, one series per (effect, BF type).

    512 evenly spaced grid points spanning [min - 3h, max + 3h] per series,
    h being ``bandwidth`` (a positive real number, ``_real``, kept as a
    float) or Silverman's rule.  A group with no spread, or a bandwidth
    that takes its grid or density out of the double range, has no
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
    if not len(records):
        raise DomainError("no records for density estimation")
    if bandwidth is not None:
        bandwidth = _bandwidth(bandwidth)
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


def write_records(records: RecordTable, path: str | Path) -> None:
    """Write the results file: one row per (trial, effect), 17 significant digits.

    Rows are formatted from the columns, ``_WRITE_ROWS`` at a time, each
    value as a Python int, str or float.  A (trial, effect) that an earlier
    row has, which ``read_records`` refuses, is refused before the file is
    opened.
    """
    repeat = _first_repeat(records)
    if repeat is not None:
        row, earlier = repeat
        raise DomainError(f"row {row}: trial {records.trial[row]}, effect "
                          f"{EFFECTS[records.effect[row]]} repeats row {earlier}")
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


_READ_ROWS = 2**14  # rows held as Python values at once, which bound the reader's memory


def read_records(path: str | Path) -> RecordTable:
    """Read a results file back; the first malformed or repeated row is named on error.

    The file is read once, row by row.  Each row that is not blank is read
    and checked by ``_record``, and the rows are kept as columns,
    ``_READ_ROWS`` at a time, with the line each starts on: the line after
    the one the previous row ended on, so also after a quoted field that
    holds a newline.  A pipe reads as a file does, but for text that is
    not UTF-8: ``_file_error`` reads the file again to name its line, and
    a pipe has no line to give.  Reading stops at the first bad row, and
    the rows before it make one table, which checks its record rules
    once.  A row whose (trial, effect) an earlier row has is named with
    that row's line.  Of a repeat, a bad row and a problem of the file
    itself (text that is not UTF-8, a field over the csv module's size
    limit), the error is the first in the file.
    """
    path = Path(path)
    chunks, rows, starts, fault, failure = [], [], [], None, None
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(col.strip() for col in header) != RESULTS_HEADER:
                raise DomainError(f"{path}: expected header {','.join(RESULTS_HEADER)}, "
                                  f"got {header}")
            start = reader.line_num + 1
            for fields in reader:
                if fields:
                    try:
                        rows.append(_record(fields))
                    except ValueError as exc:
                        fault = f"{path}:{start}: {exc}"
                        break
                    starts.append(start)
                    if len(rows) == _READ_ROWS:
                        chunks.append(_columns(rows, starts))
                        rows, starts = [], []
                start = reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:  # e.g. a field over the size limit
            failure = exc
    chunks.append(_columns(rows, starts))
    *columns, starts = (np.concatenate(column) for column in zip(*chunks))
    table = RecordTable(*columns)
    repeat = _first_repeat(table)
    if repeat is not None:
        row, earlier = repeat
        raise DomainError(f"{path}:{starts[row]}: trial {table.trial[row]}, effect "
                          f"{EFFECTS[table.effect[row]]} repeats line {starts[earlier]}")
    if fault is not None:
        raise DomainError(fault)
    if failure is not None:
        raise _file_error(path, failure, reader)
    return table


def _record(fields: list[str]) -> tuple[int, int, float, float]:
    """A results row's trial, effect code and two log BF10s; else a ValueError
    naming its first fault.

    The row is read and checked in this order: its number of fields, the
    trial as an int, the log BFs as floats, a nonnegative trial, an effect
    of ``EFFECTS``, then for each route a finite log BF10 and the decision
    ``decide`` takes of it.
    """
    if len(fields) != len(RESULTS_HEADER):
        raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(fields)}")
    trial, bic, default = int(fields[0]), float(fields[2]), float(fields[3])
    if trial < 0:
        raise ValueError(f"trial must be nonnegative, got {trial}")
    effect = _EFFECT_CODES.get(fields[1])
    if effect is None:
        raise ValueError(f"effect must be one of {EFFECTS}, got {fields[1]!r}")
    for label, log_bf, decision in (("bic", bic, fields[4]), ("default", default, fields[5])):
        if not math.isfinite(log_bf):
            raise ValueError(f"log_bf10_{label} must be finite, got {log_bf}")
        if decision != decide(log_bf):
            raise ValueError(f"decision_{label}={decision!r} contradicts "
                             f"log_bf10_{label}={log_bf}")
    return trial, effect, bic, default


def _columns(rows: list[tuple], starts: list[int]) -> tuple[np.ndarray, ...]:
    """The columns of ``_record`` rows, then their start lines."""
    trial, effect, bic, default = zip(*rows) if rows else ((),) * 4
    return (_trial_column(trial), np.array(effect, np.int8), np.array(bic, np.float64),
            np.array(default, np.float64), np.array(starts, np.int64))


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
