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
    for home in ("anova", "gprior", "parsing", "simulate", "summary"):
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
