"""The substream rule, keyed one index at a time and in arrays.

``bicbf.rng`` runs numpy's SeedSequence hash itself, in uint32 array
arithmetic, so that a block of trials keys its streams in one pass.  The
tests key streams as the study does, through ``_label_words`` (many labels
and indices at once) and ``_generator`` (one stream's generator from its
words), and one at a time through ``substream``.  Every stream must stay
bit for bit ``PCG64(SeedSequence([seed, key, index]))``.
"""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicbf.rng
from bicbf import DomainError, SimulationConfig, generate_dataset
from bicbf.rng import _generator, _label_words, _SeedWords, label_key, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70 + 3]
LABELS = ["effects", "noise", "gprior/AB"]
INDICES = [0, 1, 63, 64, 2**32 - 1, 2**32, 2**40]


def _numpy_seed_sequence(seed, label, index):
    return np.random.SeedSequence([seed, label_key(label), index])


@pytest.mark.parametrize("seed, label", itertools.product(SEEDS, LABELS))
def test_streams_are_numpys_seed_sequence_streams(seed, label):
    words = _label_words(seed, [label], INDICES)[0]
    assert words.shape == (len(INDICES), 4) and words.dtype == np.uint64
    for row, index in enumerate(INDICES):
        want = _numpy_seed_sequence(seed, label, index)
        assert words[row].tolist() == want.generate_state(4, np.uint64).tolist(), index
        got = substream(seed, label, index).bit_generator.random_raw(8)
        assert got.tolist() == np.random.PCG64(want).random_raw(8).tolist(), index


@pytest.mark.parametrize("seed", SEEDS)
def test_an_index_array_may_cross_two_to_the_32(seed):
    # one uint32 word of index entropy below 2**32, two from there on
    indices = np.arange(2**32 - 3, 2**32 + 3, dtype=np.uint64)
    generators = [_generator(words) for words in _label_words(seed, ["noise"], indices)[0]]
    for index, generator in zip(indices.tolist(), generators):
        want = np.random.PCG64(_numpy_seed_sequence(seed, "noise", index))
        assert generator.bit_generator.random_raw(4).tolist() == want.random_raw(4).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_labels_keyed_in_one_pass_are_numpys_streams(seed, monkeypatch):
    # A label key below 2**32 is one entropy word, so its rows hash apart
    # from the others', as do the indices of two words.
    keys = {"effects": label_key("effects"), "noise": label_key("noise"), "short": 12345}
    monkeypatch.setattr(bicbf.rng, "label_key", keys.__getitem__)
    streams = [[_generator(words) for words in rows]
               for rows in _label_words(seed, list(keys), INDICES)]
    assert [len(generators) for generators in streams] == [len(INDICES)] * len(keys)
    for label, generators in zip(keys, streams):
        for index, generator in zip(INDICES, generators):
            want = np.random.PCG64(np.random.SeedSequence([seed, keys[label], index]))
            got = generator.bit_generator.random_raw(4).tolist()
            assert got == want.random_raw(4).tolist(), (label, index)


# Draws of the rule as numpy gave them before this module hashed the
# entropy itself: a change of numpy's SeedSequence or PCG64 and a matching
# change here would both pass the comparisons above, but not these.
GOLDEN = {
    (1, "effects", 0): [0x95BE9D00B3BDA939, 0xCF1E737313239052, 0x42375F850A7E9744],
    (1, "noise", 63): [0x60DA1EA2A9535617, 0x81F20A9D2D0C968F, 0x8D1FA33332ADDE6C],
    (90417, "noise", 64): [0x1FEDE34C58BA2BDA, 0x1009B62F9AC7DF41, 0xE2AB39E8FD461C54],
    (2**70 + 3, "gprior/AB", 2**32): [0xB8189CAB01D9F3F5, 0xA7B4353AD46D7BEF,
                                      0xDFDCC15982EEBF5C],
    (0, "effects", 2**40): [0xDC46B10A4B0CD30C, 0xDBC48B773C3CFFFE, 0x4A69C29DFFD5D6D1],
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=str)
def test_golden_draws(key):
    assert substream(*key).bit_generator.random_raw(3).tolist() == GOLDEN[key]


def test_golden_dataset():
    y = generate_dataset(SimulationConfig(cell_n=2, g=0.2, trials=3, seed=1), 2).y.ravel()
    assert [v.hex() for v in y[[0, 5, 11]].tolist()] == [
        "0x1.65a6a3cea7b23p+0", "-0x1.36d9b094ae958p-1", "0x1.d17af10a86eaep+0"]


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: substream(-1, "noise", 0), "seed must be a nonnegative integer, got -1"),
        (lambda: substream(1.5, "noise", 0), "seed must be a nonnegative integer, got 1.5"),
        (lambda: substream(True, "noise", 0), "seed must be a nonnegative integer, got True"),
        (lambda: substream(1, "noise", -1), "index must be a nonnegative integer, got -1"),
        (lambda: substream(1, "noise", 1.5), "index must be a nonnegative integer, got 1.5"),
        (lambda: substream(1, "noise", 2**64), "index must be below 2\\*\\*64"),
        (lambda: _label_words(1, ["noise"], [3, -2]),
         "index must be a nonnegative integer, got -2"),
        (lambda: _label_words(1, ["noise"], np.array([0.5])), "got 0.5"),
        (lambda: _label_words(-3, ["noise"], [0]), "seed must be"),
        (lambda: generate_dataset(SimulationConfig(cell_n=2, g=0.1, trials=3, seed=0), -1),
         "index must be a nonnegative integer, got -1"),
    ],
    ids=["negative-seed", "fractional-seed", "bool-seed", "negative-index", "fractional-index",
         "index-of-65-bits", "negative-in-array", "float-array", "array-negative-seed",
         "negative-trial"],
)
def test_bad_seeds_and_indices_are_domain_errors(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_the_seed_words_serve_pcg64_only():
    words = _SeedWords(_label_words(1, ["noise"], [0])[0, 0])
    assert words.generate_state(4, np.uint64) is words.words
    with pytest.raises(ValueError, match="PCG64 seed only"):
        words.generate_state(8)


@pytest.mark.parametrize("request_", [(4, np.uint32), (4, "uint32"), (2, np.uint64)],
                         ids=["uint32-type", "uint32-name", "two-words"])
def test_the_seed_words_refuse_any_other_request(request_):
    words = _SeedWords(_label_words(1, ["noise"], [0])[0, 0])
    assert words.generate_state(4, "uint64") is words.words
    with pytest.raises(ValueError, match="PCG64 seed only"):
        words.generate_state(*request_)


# The engines of the draws, as a fresh interpreter loads them: nothing that
# reads or writes configs, results or densities may load them, only a draw.
_ENGINES_PROBE = """
import contextlib, io, sys
from pathlib import Path
import numpy

def engines():
    return sorted(m for m in sys.modules
                  if m.startswith("numpy.random") or m in ("hashlib", "_hashlib"))

baseline = engines()  # numpy 1.24 imports numpy.random itself
import bicbf.simulate as sim
from bicbf.cli import main

out = Path(sys.argv[1])
config = sim.SimulationConfig(cell_n=5, g=0.2, trials=4, seed=1)
sim.write_config(config, out / "config.txt")
assert sim.read_config(out / "config.txt") == config
records = [sim.SimulationRecord(t, e, b, d, sim.decide(b), sim.decide(d))
           for t in range(4) for e, b, d in (("A", t - 1.5, 0.25 * t), ("B", 1.0 + t, -t),
                                             ("AB", t * t - 2.0, 3.0 - t))]
sim.write_records(records, out / "results.csv")
table = sim.read_records(out / "results.csv")
sim.summarize(table)
sim.write_density_data(sim.emit_density_data(table), out / "density.csv")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(["report", str(out / "results.csv"), "--density", "--out",
                 str(out / "density2.csv"), "--table"])
print(repr((code, sorted(set(engines()) - set(baseline)))))
sim.generate_dataset(config, 0)
print(repr(sorted({"numpy.random", "hashlib"} & set(sys.modules))))
"""


def test_the_engines_load_on_the_first_draw(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.rng.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _ENGINES_PROBE, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    assert [ast.literal_eval(line) for line in out.splitlines()] == [
        (0, []), ["hashlib", "numpy.random"]]
