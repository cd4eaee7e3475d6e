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

from .errors import (
    BicbfError,
    DegenerateDataError,
    DomainError,
    ParseError,
    SimulationError,
    UnbalancedDataError,
)
from .parsing import ParsedReport, parse_stat, render_stat
from .summary import (
    BayesFactorValue,
    EvidenceClass,
    SummaryStat,
    bf01_from_delta_bic,
    bf01_from_f,
    bf01_from_partial_eta_sq,
    bf01_from_stat,
    bf01_from_t,
    classify,
    delta_bic_10,
    invert,
)

# The modules below need numpy.  Their names resolve on first access
# (PEP 562), so the summary-statistic path (``bicbf bf``, ``bicbf parse``)
# starts without importing numpy.
_LAZY_NAMES = {
    "EFFECTS": "anova",
    "AnovaTable": "anova",
    "FactorialDataset": "anova",
    "bic_bf_for_effect": "anova",
    "fit_two_way": "anova",
    "DEFAULT_PRIOR_SCALE": "gprior",
    "MODEL_PAIRS": "gprior",
    "GPriorBayesFactor": "gprior",
    "GPriorSpec": "gprior",
    "conditional_bf10": "gprior",
    "default_bf10": "gprior",
    "substream": "rng",
    "DensitySeries": "simulate",
    "EffectSummary": "simulate",
    "FiveNumber": "simulate",
    "RecordTable": "simulate",
    "SimulationConfig": "simulate",
    "SimulationRecord": "simulate",
    "decide": "simulate",
    "emit_density_data": "simulate",
    "generate_dataset": "simulate",
    "read_config": "simulate",
    "read_records": "simulate",
    "run_simulation": "simulate",
    "silverman_bandwidth": "simulate",
    "summarize": "simulate",
    "write_config": "simulate",
    "write_density_data": "simulate",
    "write_records": "simulate",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES.values():  # the submodule itself, e.g. bicbf.simulate
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

__all__ = sorted([
    "BicbfError",
    "DegenerateDataError",
    "DomainError",
    "ParseError",
    "SimulationError",
    "UnbalancedDataError",
    "ParsedReport",
    "parse_stat",
    "render_stat",
    "BayesFactorValue",
    "EvidenceClass",
    "SummaryStat",
    "bf01_from_delta_bic",
    "bf01_from_f",
    "bf01_from_partial_eta_sq",
    "bf01_from_stat",
    "bf01_from_t",
    "classify",
    "delta_bic_10",
    "invert",
    *_LAZY_NAMES,
])
