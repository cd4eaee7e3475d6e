"""Deterministic random-number substreams.

Every random draw in this package comes from a numpy ``PCG64`` generator
keyed by a ``(seed, label, index)`` triple:

    PCG64(SeedSequence([seed, sha256_64(label), index]))

where ``sha256_64(label)`` is the first 8 bytes of the SHA-256 digest of the
UTF-8 label, read as a little-endian unsigned integer.  PCG64 and SHA-256 are
platform independent, so a run is reproducible anywhere given the same numpy
version.  Distinct labels give independent streams; the simulation harness
uses separate labels for effect draws and noise draws so that, for example,
changing the effect variance never reorders the noise draws of a coupled
run, and a trial's draws depend only on its seed and trial index, never on
the trials computed before it.  The default-prior oracle draws nothing: it
is deterministic quadrature (``bicbf.gprior``).

The streams of many labels and indices are keyed at once: ``_label_words``
runs ``SeedSequence``'s hash (O'Neill's seed_seq_fe with a pool of four
32-bit words, numpy's documented constants) in uint32 array arithmetic,
one row per (label, index), and gives each row the four uint64 words that
``SeedSequence([seed, key, index]).generate_state(4, np.uint64)`` gives.
The hash costs a fixed number of small array operations per pass, whatever
the rows, so a trial block's "effects" and "noise" streams are keyed in
one pass.  PCG64 still seeds itself from those words, through numpy's
``ISeedSequence`` interface (``_SeedWords``), so every stream is bit for
bit the one ``PCG64(SeedSequence([seed, key, index]))`` gives.  The words
take 32 bytes a stream and a generator some 750 traced, so the study keeps
a block's words and builds each trial's generators only for its draws
(``_generator``).  ``substream`` is the one-index case.

This module imports ``hashlib`` and ``numpy.random``, its engines, with
itself.  The package loads it only to draw: ``bicbf.simulate`` imports it
inside its data draw, so code that reads or writes results without drawing
(a config, a results file, a report) never loads the engines.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .summary import _count

__all__ = ["substream"]

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL = 4  # pool words, numpy's DEFAULT_POOL_SIZE
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashes of the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashes of the pool into the state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 8  # uint32 words of the four uint64 words PCG64 asks for
# pool word i_dst mixed with each i_src != i_dst, in SeedSequence's order
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def label_key(label: str) -> int:
    """Stable 64-bit key for a substream label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@lru_cache(maxsize=None)
def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count: a hash constant after k steps."""
    values = [init]
    while len(values) < count:
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)


def _hash(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` by consecutive hash constants.

    Hashing step k xors constant k and multiplies by constant k + 1; the
    last axis of the result runs over len(constants) - 1 steps.
    """
    value = value ^ constants[:-1]
    value *= constants[1:]
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    result ^= result >> _SHIFT
    return result


def _state(entropy: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each row's SeedSequence.

    ``entropy`` is (rows, words) uint32, every row assembled from the same
    word counts and padded with zeros to at least the pool size.  Within
    one source word, SeedSequence's updates of the other pool words are
    independent, so each is one array operation over them.
    """
    extra = entropy.shape[1] - _POOL
    hashes = _powers(_INIT_A, _MULT_A, _POOL * (_POOL + extra) + 1)
    pool = _hash(entropy[:, :_POOL], hashes[: _POOL + 1])
    step = _POOL
    for src, others in enumerate(_OTHERS):
        mixed = _hash(pool[:, src, None], hashes[step : step + _POOL])
        pool[:, others] = _mix(pool[:, others], mixed)
        step += _POOL - 1
    for src in range(_POOL, _POOL + extra):
        pool = _mix(pool, _hash(entropy[:, src, None], hashes[step : step + _POOL + 1]))
        step += _POOL
    state = _hash(np.tile(pool, 2), _powers(_INIT_B, _MULT_B, _STATE_WORDS + 1))
    # as SeedSequence pairs them: little-endian uint32 words, one uint64
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _words(value: int) -> list[int]:
    """An integer as SeedSequence splits it: uint32 words, least significant first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _indices(indices) -> np.ndarray:
    """``indices`` as a 1-d uint64 array of counts below 2**64 (``_count``);
    anything else is a DomainError.

    An array of unsigned or nonnegative signed integers passes whole.
    """
    array = np.asarray(indices).reshape(-1)
    if array.dtype.kind == "u" or (array.dtype.kind == "i" and not (array < 0).any()):
        return array.astype(np.uint64)
    return np.array([_count("index", v, 0, 2**64 - 1) for v in array.tolist()],
                    dtype=np.uint64)


def _label_words(seed: int, labels: Sequence[str], indices) -> np.ndarray:
    """(len(labels), len(indices), 4) uint64: row [l, i] holds the PCG64 seed
    words of stream ``(seed, labels[l], indices[i])``.

    Every row is hashed in one ``_state`` pass per entropy length, as
    SeedSequence mixes a longer entropy differently: one pass in all, unless
    an index of two uint32 words or a label key of one is among them.  A
    negative or non-integral seed or index, or an index of 2**64 or more,
    is a DomainError.
    """
    indices = _indices(indices)
    seed_words = _words(_count("seed", seed, 0))
    prefixes = [seed_words + _words(label_key(label)) for label in labels]
    high = indices >> np.uint64(32)
    # each row's entropy words: the seed's, the label key's, the index's,
    # then zeros up to the pool size, as SeedSequence pads its pool
    entropy = np.zeros((len(labels), indices.size, max(max(map(len, prefixes)) + 2, _POOL)),
                       dtype=np.uint32)
    for row, prefix in zip(entropy, prefixes):
        row[:, : len(prefix)] = prefix
        row[:, len(prefix)] = indices & np.uint64(_MASK32)
        row[:, len(prefix) + 1] = high  # zero for a one-word index
    lengths = np.array([len(p) + 1 for p in prefixes])[:, None] + (high > 0)
    out = np.empty((len(labels), indices.size, 4), dtype=np.uint64)
    for length in sorted(set(lengths.ravel().tolist())):
        rows = lengths == length
        out[rows] = _state(entropy[rows][:, : max(length, _POOL)])
    return out


class _SeedWords(ISeedSequence):
    """Seed words already generated, as the seed sequence PCG64 takes."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for the type itself: test it before building a dtype
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self.words
        raise ValueError("holds the four uint64 words of one PCG64 seed only")


def _generator(words: np.ndarray) -> Generator:
    """The generator of one stream from its row of ``_label_words``."""
    return Generator(PCG64(_SeedWords(words)))


def substream(seed: int, label: str, index: int = 0) -> Generator:
    """Generator for the ``(seed, label, index)`` substream."""
    return _generator(_label_words(seed, [label], [index])[0, 0])
