"""A study's configuration: its value types, their checks and its config files.

``SimulationConfig`` is one simulation condition and ``GPriorSpec`` the
oracle's prior scale.  ``write_config`` and ``read_config`` keep a config
as flat ``key = value`` lines.  This module uses the standard library
alone, so building or checking a config, or writing or reading a config
file, loads no numpy; ``bicbf simulate`` checks its flags and its config
file here before it imports the numpy-backed study.  ``bicbf.simulate``
and ``bicbf.gprior`` import these names back, so
``bicbf.simulate.SimulationConfig`` and ``bicbf.gprior.GPriorSpec`` are the
same objects, and pickles written under those paths still load.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

from .errors import DomainError
from .summary import _count, _real

__all__ = [
    "DEFAULT_PRIOR_SCALE",
    "GPriorSpec",
    "SimulationConfig",
    "write_config",
    "read_config",
]

DEFAULT_PRIOR_SCALE = math.sqrt(2.0) / 2.0  # the "wide" setting
_PRIOR_SCALES = (1e-100, 1e100)  # the range of prior scales GPriorSpec accepts


@dataclass(frozen=True)
class GPriorSpec:
    """Prior scale of ``default_bf10``.

    ``scale`` must be a real number (``_real``: numpy scalars, Decimals and
    Fractions too, a bool not), kept as a float, and lie in [1e-100, 1e100].
    Far outside that range the rule's weights leave the double range: at
    1e-200, r^2/2 underflows to 0.

    ``mc_samples`` and ``seed`` are ignored by the deterministic oracle;
    they are removed with the benchmark change of ROADMAP item 23.  Until
    then they keep their old bounds, and must be integers (numpy integers
    too, a bool not), kept as ints, so that every spec writes back a config
    file ``read_config`` reads.
    """

    scale: float = DEFAULT_PRIOR_SCALE
    mc_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scale", _real("scale", self.scale))
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale must be finite and positive, got {self.scale}")
        low, high = _PRIOR_SCALES
        if not low <= self.scale <= high:
            raise DomainError(f"scale must lie in [{low:g}, {high:g}], got {self.scale}")
        for name, least in (("mc_samples", 1000), ("seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation condition.

    ``g`` is the effect variance relative to unit noise; ``seed`` keys the
    data-generating substreams.  Of the oracle spec only the prior scale
    enters the results.  The counts and the seed must be integers (numpy
    integers too, a bool not), kept as ints, and g a real number (numpy
    scalars, Decimals and Fractions too, a bool not), kept as a float, so
    that every config runs and writes back a file ``read_config`` reads as
    an equal config.  A design whose one-trial array is more bytes than
    numpy can describe (2**63) is refused here.
    """

    cell_n: int
    g: float
    trials: int
    seed: int
    a_levels: int = 2
    b_levels: int = 3
    oracle: GPriorSpec = GPriorSpec()

    def __post_init__(self):
        for name, least in (("cell_n", 2), ("trials", 1), ("seed", 0), ("a_levels", 2),
                            ("b_levels", 2)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        object.__setattr__(self, "g", _real("g", self.g))
        if not (math.isfinite(self.g) and self.g >= 0):
            raise DomainError(f"g must be finite and nonnegative, got {self.g}")
        if self.a_levels * self.b_levels * self.cell_n * 8 >= 2**63:  # float64 values
            raise DomainError(
                f"one trial of {self.a_levels}x{self.b_levels} cells of {self.cell_n} "
                "observations is too large for a numpy array: a*b*cell_n*8 bytes must be "
                "below 2**63"
            )


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
