"""Approximate Bayes factors from ANOVA and t-test summary statistics.

The core quantity is the BIC Bayes factor

    log BF01 = (df1/2) * ln(n) - (n/2) * ln(1 + f * df1 / df2)

computed from reported F or t statistics, residual sums of squares, or
partial eta squared.  The package also carries an independently implemented
default g-prior Bayes factor for balanced two-way ANOVA and a simulation
harness that compares the two, plus a small parser for reported-statistic
text and a command-line front end (``bicbf``).
"""

import importlib

from . import errors, parsing, summary
from .errors import *  # noqa: F403
from .parsing import *  # noqa: F403
from .summary import *  # noqa: F403

# The modules below load on first access (PEP 562), each group its module's
# ``__all__``, so the summary-statistic path (``bicbf bf``, ``bicbf parse``)
# starts without them.  ``config`` uses the standard library alone, but its
# dataclasses would add ``dataclasses`` and ``inspect`` to that start; the
# others need numpy.
_LAZY = {
    "anova": ("EFFECTS", "FactorialDataset", "AnovaTable", "fit_two_way", "bic_bf_for_effect"),
    "config": ("DEFAULT_PRIOR_SCALE", "GPriorSpec", "SimulationConfig", "write_config",
               "read_config"),
    "gprior": ("MODEL_PAIRS", "GPriorBayesFactor", "conditional_bf10", "default_bf10"),
    "rng": ("substream",),
    "simulate": ("SimulationRecord", "RecordTable", "FiveNumber", "EffectSummary",
                 "DensitySeries", "decide", "generate_dataset", "run_simulation", "summarize",
                 "silverman_bandwidth", "emit_density_data", "write_records", "read_records",
                 "write_density_data"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:  # the submodule itself, e.g. bicbf.simulate
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted([*errors.__all__, *parsing.__all__, *summary.__all__, *_LAZY_NAMES])
