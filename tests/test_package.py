"""The package namespace: lazily resolved names match their home modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicbf


def home_module(name, value):
    """The module that defines ``value``: its ``__module__``, or for a
    constant the module whose ``__all__`` lists it."""
    module = getattr(value, "__module__", None)
    if module is not None:
        return importlib.import_module(module)
    for home in ("anova", "config", "gprior", "parsing", "simulate", "summary"):
        module = importlib.import_module(f"bicbf.{home}")
        if name in module.__all__:
            return module
    raise LookupError(name)


def test_every_public_name_is_its_home_modules_object():
    # a name missing from the lazy table, or mapped to a module without it, fails here
    for name in bicbf.__all__:
        value = getattr(bicbf, name)
        home = home_module(name, value)
        assert home.__name__.startswith("bicbf."), name
        assert getattr(home, name) is value, name


# the package's 49 public names, written out: a name gained or lost anywhere fails
PUBLIC_NAMES = [
    "AnovaTable", "BayesFactorValue", "BicbfError", "DEFAULT_PRIOR_SCALE",
    "DegenerateDataError", "DensitySeries", "DomainError", "EFFECTS", "EffectSummary",
    "EvidenceClass", "FactorialDataset", "FiveNumber", "GPriorBayesFactor", "GPriorSpec",
    "MODEL_PAIRS", "ParseError", "ParsedReport", "RecordTable", "SimulationConfig",
    "SimulationError", "SimulationRecord", "SummaryStat", "UnbalancedDataError",
    "bf01_from_delta_bic", "bf01_from_f", "bf01_from_partial_eta_sq", "bf01_from_stat",
    "bf01_from_t", "bic_bf_for_effect", "classify", "conditional_bf10", "decide",
    "default_bf10", "delta_bic_10", "emit_density_data", "fit_two_way", "generate_dataset",
    "invert", "parse_stat", "read_config", "read_records", "render_stat", "run_simulation",
    "silverman_bandwidth", "substream", "summarize", "write_config", "write_density_data",
    "write_records",
]


def test_the_public_names_are_unchanged():
    assert bicbf.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module", ["anova", "config", "gprior", "rng", "simulate"])
def test_each_lazy_group_is_its_modules_all(module):
    assert list(bicbf._LAZY[module]) == importlib.import_module(f"bicbf.{module}").__all__


@pytest.mark.parametrize("module", ["errors", "parsing", "summary"])
def test_each_eager_modules_all_is_public(module):
    names = importlib.import_module(f"bicbf.{module}").__all__
    assert sorted(set(names) - set(bicbf.__all__)) == []


def test_dir_covers_all_without_loading_numpy():
    # a fresh interpreter, where no lazy name has been resolved yet
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
    probe = (
        "import sys, bicbf\n"
        "print(sorted(set(bicbf.__all__) - set(dir(bicbf))))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout
    assert out.splitlines() == ["[]", "[]"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bicbf.no_such_name
    assert not hasattr(bicbf, "no_such_name")
