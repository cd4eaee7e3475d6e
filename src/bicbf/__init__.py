"""Approximate Bayes factors from ANOVA and t-test summary statistics.

The core quantity is the BIC Bayes factor

    log BF01 = (df1/2) * ln(n) - (n/2) * ln(1 + f * df1 / df2)

computed from reported F or t statistics, residual sums of squares, or
partial eta squared.  The package also carries an independently implemented
default g-prior Bayes factor for balanced two-way ANOVA and a simulation
harness that compares the two, plus a small parser for reported-statistic
text and a command-line front end (``bicbf``).
"""

from .anova import (
    EFFECTS,
    AnovaTable,
    FactorialDataset,
    bic_bf_for_effect,
    fit_two_way,
    load_dataset,
    write_dataset,
)
from .errors import (
    BicbfError,
    DegenerateDataError,
    DomainError,
    ParseError,
    SimulationError,
    UnbalancedDataError,
)
from .gprior import (
    DEFAULT_PRIOR_SCALE,
    MODEL_PAIRS,
    GPriorBayesFactor,
    GPriorSpec,
    conditional_bf10,
    default_bf10,
)
from .parsing import ParsedReport, parse_stat, render_stat
from .rng import substream
from .simulate import (
    DensitySeries,
    EffectSummary,
    FiveNumber,
    SimulationConfig,
    SimulationRecord,
    decide,
    emit_density_data,
    generate_dataset,
    read_config,
    read_records,
    run_simulation,
    silverman_bandwidth,
    summarize,
    write_config,
    write_density_data,
    write_records,
)
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

__version__ = "0.1.0"

__all__ = [
    "AnovaTable",
    "BayesFactorValue",
    "BicbfError",
    "DEFAULT_PRIOR_SCALE",
    "DegenerateDataError",
    "DensitySeries",
    "DomainError",
    "EFFECTS",
    "EffectSummary",
    "EvidenceClass",
    "FactorialDataset",
    "FiveNumber",
    "GPriorBayesFactor",
    "GPriorSpec",
    "MODEL_PAIRS",
    "ParseError",
    "ParsedReport",
    "SimulationConfig",
    "SimulationError",
    "SimulationRecord",
    "SummaryStat",
    "UnbalancedDataError",
    "bf01_from_delta_bic",
    "bf01_from_f",
    "bf01_from_partial_eta_sq",
    "bf01_from_stat",
    "bf01_from_t",
    "bic_bf_for_effect",
    "classify",
    "conditional_bf10",
    "decide",
    "default_bf10",
    "delta_bic_10",
    "emit_density_data",
    "fit_two_way",
    "generate_dataset",
    "invert",
    "load_dataset",
    "parse_stat",
    "read_config",
    "read_records",
    "render_stat",
    "run_simulation",
    "silverman_bandwidth",
    "substream",
    "summarize",
    "write_config",
    "write_dataset",
    "write_density_data",
    "write_records",
]
