"""The study's config lives in bicbf.config, which loads no numpy."""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bicbf
import bicbf.gprior
import bicbf.simulate
from bicbf import GPriorSpec, SimulationConfig

# Built, replaced, written, read back, pickled and refused in a fresh
# interpreter; the last line lists the numpy modules loaded by then.
_CONFIG_PROBE = """
import dataclasses, pickle, sys
from fractions import Fraction
from pathlib import Path
from bicbf import DomainError, GPriorSpec, SimulationConfig, read_config, write_config

out = Path(sys.argv[1])
spec = GPriorSpec(scale=0.5, mc_samples=2000, seed=7)
config = SimulationConfig(cell_n=20, g=0.2, trials=10, seed=1, a_levels=3, b_levels=4,
                          oracle=spec)
config = dataclasses.replace(config, cell_n=50, g=0.05, trials=1000, seed=2026,
                             oracle=dataclasses.replace(spec, scale=1.0))
write_config(config, out / "config.txt")
print(repr((out / "config.txt").read_bytes()))
print(read_config(out / "config.txt") == config, pickle.loads(pickle.dumps(config)) == config)
fractions = SimulationConfig(cell_n=3, g=Fraction(1, 3), trials=2, seed=1,
                             oracle=GPriorSpec(scale=Fraction(1, 7)))
write_config(fractions, out / "fractions.txt")
print(repr((out / "fractions.txt").read_bytes()))
print(read_config(out / "fractions.txt") == fractions)
refused = [
    lambda: SimulationConfig(cell_n=1, g=0.0, trials=1, seed=0),
    lambda: SimulationConfig(cell_n=2, g=float("nan"), trials=1, seed=0),
    lambda: SimulationConfig(cell_n=2.5, g=0.2, trials=2, seed=1),
    lambda: SimulationConfig(cell_n=3, g=True, trials=2, seed=1),
    lambda: SimulationConfig(cell_n=3, g=10**400, trials=2, seed=1),
    lambda: SimulationConfig(cell_n=10**19, g=0.2, trials=2, seed=1),
    lambda: dataclasses.replace(config, trials=0),
    lambda: GPriorSpec(scale=1e200),
    lambda: GPriorSpec(mc_samples=10),
    lambda: dataclasses.replace(spec, seed=-1),
]
errors = []
for make in refused:
    try:
        make()
    except DomainError as exc:
        errors.append(str(exc))
(out / "bad.txt").write_text("cell_n = 10\\ng = 0.0\\ntrials = 5\\nseed = 0\\nbogus = 1\\n")
try:
    read_config(out / "bad.txt")
except DomainError as exc:
    errors.append(str(exc).replace(str(out), "OUT"))
print(repr(errors))
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_a_config_is_built_checked_written_and_read_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _CONFIG_PROBE, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 6
    # the bytes write_config wrote before the config moved out of bicbf.simulate
    assert ast.literal_eval(lines[0]) == (
        b"cell_n = 50\ng = 0.05\ntrials = 1000\nseed = 2026\na_levels = 3\nb_levels = 4\n"
        b"oracle.scale = 1.0\noracle.mc_samples = 2000\noracle.seed = 7\n")
    assert lines[1] == "True True"
    assert ast.literal_eval(lines[2]) == (
        b"cell_n = 3\ng = 0.3333333333333333\ntrials = 2\nseed = 1\na_levels = 2\nb_levels = 3\n"
        b"oracle.scale = 0.14285714285714285\noracle.mc_samples = 10000\noracle.seed = 0\n")
    assert lines[3] == "True"
    assert ast.literal_eval(lines[4]) == [
        "cell_n must be at least 2, got 1",
        "g must be finite and nonnegative, got nan",
        "cell_n must be an integer, got 2.5",
        "g must be a real number, got True",
        "g must be at most 1.79769e+308 in magnitude",
        "one trial of 2x3 cells of 10000000000000000000 observations is too large for a "
        "numpy array: a*b*cell_n*8 bytes must be below 2**63",
        "trials must be at least 1, got 0",
        "scale must lie in [1e-100, 1e+100], got 1e+200",
        "mc_samples must be at least 1000, got 10",
        "seed must be nonnegative, got -1",
        "OUT/bad.txt:5: unknown key 'bogus'",
    ]
    assert lines[5] == "[]"


@pytest.mark.parametrize(
    "module, names",
    [(bicbf.simulate, ("SimulationConfig", "write_config", "read_config")),
     (bicbf.gprior, ("GPriorSpec", "DEFAULT_PRIOR_SCALE"))],
    ids=["simulate", "gprior"],
)
def test_the_old_paths_are_the_same_objects(module, names):
    for name in names:
        assert getattr(module, name) is getattr(bicbf, name), name
    assert SimulationConfig.__module__ == GPriorSpec.__module__ == "bicbf.config"


def test_a_config_survives_a_pickle_round_trip():
    config = SimulationConfig(cell_n=20, g=0.2, trials=10, seed=1,
                              oracle=GPriorSpec(scale=0.5))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(config, protocol=protocol))
        assert again == config and type(again) is SimulationConfig


def test_a_pickle_of_the_old_paths_still_loads():
    # pickle.dumps(config, protocol=2) from when the classes lived in
    # bicbf.simulate and bicbf.gprior
    old = (b"\x80\x02cbicbf.simulate\nSimulationConfig\nq\x00)\x81q\x01}q\x02(X\x06\x00\x00\x00"
           b"cell_nq\x03K\x14X\x01\x00\x00\x00gq\x04G?\xc9\x99\x99\x99\x99\x99\x9aX\x06\x00\x00"
           b"\x00trialsq\x05K\nX\x04\x00\x00\x00seedq\x06K\x01X\x08\x00\x00\x00a_levelsq\x07K"
           b"\x02X\x08\x00\x00\x00b_levelsq\x08K\x03X\x06\x00\x00\x00oracleq\tcbicbf.gprior\n"
           b"GPriorSpec\nq\n)\x81q\x0b}q\x0c(X\x05\x00\x00\x00scaleq\rG?\xe0\x00\x00\x00\x00"
           b"\x00\x00X\n\x00\x00\x00mc_samplesq\x0eM\x10'h\x06K\x00ubub.")
    assert pickle.loads(old) == SimulationConfig(cell_n=20, g=0.2, trials=10, seed=1,
                                                 oracle=GPriorSpec(scale=0.5))

