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
(``bicbf.rng.substreams``) and each trial's draws fill its rows of one
stacked array, which is fitted in one array pass; the oracle sets up and
integrates the whole block at once (``bicbf.gprior``).  The BIC runs per
trial.  A block that fails runs its two halves in order, recursively, so
the error names its lowest failing trial with the message it gives alone.
``generate_dataset`` is the one-trial block.

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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .anova import EFFECTS, FactorialDataset, _fit_block, bic_bf_for_effect
from .errors import BicbfError, DomainError, SimulationError
from .gprior import GPriorSpec, _evaluate, _setup
from .rng import substreams
from .summary import invert

__all__ = [
    "SimulationConfig",
    "SimulationRecord",
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
    enters the results.
    """

    cell_n: int
    g: float
    trials: int
    seed: int
    a_levels: int = 2
    b_levels: int = 3
    oracle: GPriorSpec = GPriorSpec()

    def __post_init__(self):
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


def generate_dataset(config: SimulationConfig, trial: int) -> FactorialDataset:
    """The dataset of one trial: the one-trial case of ``_block_data``."""
    y = _block_data(config, [trial])[0]
    return FactorialDataset(config.a_levels, config.b_levels, config.cell_n, y)


def _block_data(config: SimulationConfig, trials: Sequence[int]) -> np.ndarray:
    """The stacked (len(trials), a, b, cell_n) observations of the trials.

    A trial's effects are one draw of a + b + a*b scaled standard normals
    (alpha, tau, then gamma row by row; exactly zero when g = 0) from its
    "effects" substream, its noise one draw from its "noise" substream.
    Both streams of every trial are keyed in one array pass
    (``bicbf.rng.substreams``); each trial's values are drawn into its own
    rows and composed elementwise, so a row is bitwise the same in any block.
    """
    a, b, cell_n = config.a_levels, config.b_levels, config.cell_n
    effects = np.empty((len(trials), a + b + a * b))
    y = np.empty((len(trials), a, b, cell_n))
    for row, effects_rng, noise_rng in zip(
        range(len(trials)),
        substreams(config.seed, "effects", trials),
        substreams(config.seed, "noise", trials),
    ):
        effects_rng.standard_normal(out=effects[row])
        noise_rng.standard_normal(out=y[row])
    effects *= math.sqrt(config.g)
    alpha, tau, gamma = effects[:, :a], effects[:, a : a + b], effects[:, a + b :]
    cells = alpha[:, :, None, None] + tau[:, None, :, None] + gamma.reshape(-1, a, b, 1)
    return np.add(cells, y, out=y)


_BLOCK_VALUES = 2**18  # observations stacked in a block, which bound its memory


def run_simulation(
    config: SimulationConfig,
    progress: Callable[[int, int], None] | None = None,
) -> list[SimulationRecord]:
    """All records of the configured study, in (trial, effect) order.

    Trials run in blocks of as many as stack at most ``_BLOCK_VALUES``
    observations (one, where a trial has more); each record is bitwise the
    one its trial gives alone.  ``progress`` is called with (finished_trials,
    total_trials) once per trial, in order, when the trial's block is done.
    """
    per_trial = config.a_levels * config.b_levels * config.cell_n
    size = max(1, _BLOCK_VALUES // per_trial)
    records = []
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        records += _block_records(config, trials)
        if progress is not None:
            for trial in trials:
                progress(trial + 1, config.trials)
    return records


def _block_records(config: SimulationConfig, trials: range) -> list[SimulationRecord]:
    """Records of consecutive trials, with one array pass per stage.

    The block's datasets are generated in one pass and checked finite, the
    BIC is computed one trial at a time, and the fit, the oracle's set-up
    and its quadrature run on the whole block.  A block of several trials
    that fails runs its two halves in order, recursively, so the error
    names the lowest failing trial with the message that trial gives
    alone: within a trial, effect by effect, the BIC before the oracle.
    """
    try:
        y = _block_data(config, trials)
        if not np.isfinite(y).all():
            raise DomainError("observations must be finite")
        tables = _fit_block(y)
        bics, defaults = [], []
        for effect in EFFECTS:
            bics.append([invert(bic_bf_for_effect(table, effect)).log_bf for table in tables])
            defaults.append(_evaluate(_setup(tables, effect, config.oracle.scale)).tolist())
        return [
            SimulationRecord(trial, effect, bic[row], default[row],
                             decide(bic[row]), decide(default[row]))
            for row, trial in enumerate(trials)
            for effect, bic, default in zip(EFFECTS, bics, defaults)
        ]
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
    records = list(records)
    if not records:
        raise DomainError("no records to summarize")
    out: dict[str, EffectSummary] = {}
    for effect in EFFECTS:
        group = [r for r in records if r.effect == effect]
        if not group:
            continue
        agree = sum(r.decision_bic == r.decision_default for r in group)
        out[effect] = EffectSummary(
            effect=effect,
            n_trials=len(group),
            bic=FiveNumber.of([r.log_bf10_bic for r in group]),
            default=FiveNumber.of([r.log_bf10_default for r in group]),
            consistency=agree / len(group),
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


def emit_density_data(
    records: Iterable[SimulationRecord], bandwidth: float | None = None
) -> list[DensitySeries]:
    """Kernel densities of log BF10, one series per (effect, BF type).

    512 evenly spaced grid points spanning [min - 3h, max + 3h] per series,
    h being ``bandwidth`` or Silverman's rule.  A group with no spread, or a
    bandwidth that takes its grid or density out of the double range, has no
    density; the error names it.
    """
    records = list(records)
    if not records:
        raise DomainError("no records for density estimation")
    if bandwidth is not None and not (math.isfinite(bandwidth) and bandwidth > 0):
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    series = []
    for effect in EFFECTS:
        group = [r for r in records if r.effect == effect]
        if not group:
            continue
        for bf_type, values in (
            ("bic", [r.log_bf10_bic for r in group]),
            ("default", [r.log_bf10_default for r in group]),
        ):
            array = np.asarray(values)
            if np.all(array == array[0]):
                raise DomainError(
                    f"effect {effect}, {bf_type} log BFs are constant; no density"
                )
            h = bandwidth if bandwidth is not None else silverman_bandwidth(array)
            with np.errstate(all="ignore"):  # z * z may overflow: exp(-inf) = 0 is right
                x = np.linspace(array.min() - 3 * h, array.max() + 3 * h, DENSITY_GRID_POINTS)
                z = (x[:, None] - array[None, :]) / h
                density = np.exp(-0.5 * z * z).sum(axis=1) / (
                    array.size * h * math.sqrt(2.0 * math.pi)
                )
            if not (np.isfinite(x).all() and np.isfinite(density).all()):
                raise DomainError(f"bandwidth {h!r} takes the effect {effect}, {bf_type} "
                                  "density grid or values out of the double range")
            series.append(DensitySeries(effect, bf_type, h, x, density))
    return series


def write_records(records: Iterable[SimulationRecord], path: str | Path) -> None:
    """Write the results file: one row per (trial, effect), 17 significant digits."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULTS_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.trial,
                    r.effect,
                    "%.17g" % r.log_bf10_bic,
                    "%.17g" % r.log_bf10_default,
                    r.decision_bic,
                    r.decision_default,
                ]
            )


def read_records(path: str | Path) -> list[SimulationRecord]:
    """Read a results file back; the first malformed row is named on error."""
    path = Path(path)
    records = []
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(col.strip() for col in header) != RESULTS_HEADER:
                raise DomainError(
                    f"{path}: expected header {','.join(RESULTS_HEADER)}, got {header}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    if len(row) != 6:
                        raise DomainError(f"expected 6 fields, got {len(row)}")
                    records.append(
                        SimulationRecord(
                            trial=int(row[0]),
                            effect=row[1],
                            log_bf10_bic=float(row[2]),
                            log_bf10_default=float(row[3]),
                            decision_bic=row[4],
                            decision_default=row[5],
                        )
                    )
                except (BicbfError, ValueError) as exc:
                    raise DomainError(f"{path}:{lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DomainError(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def write_density_data(series: Iterable[DensitySeries], path: str | Path) -> None:
    """Write density series as delimited rows: effect, bf_type, x, density."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DENSITY_HEADER)
        for s in series:
            for x, d in zip(s.x, s.density):
                writer.writerow([s.effect, s.bf_type, "%.17g" % x, "%.17g" % d])


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
