"""Deterministic random-number substreams.

Every random draw in this package comes from a numpy ``PCG64`` generator
keyed by a ``(seed, label, index)`` triple:

    SeedSequence([seed, sha256_64(label), index])

where ``sha256_64(label)`` is the first 8 bytes of the SHA-256 digest of the
UTF-8 label, read as a little-endian unsigned integer.  PCG64 and SHA-256 are
platform independent, so a run is reproducible anywhere given the same numpy
version.  Distinct labels give independent streams; the simulation harness
uses separate labels for effect draws and noise draws so that, for example,
changing the effect variance never reorders the noise draws of a coupled
run, and a trial's draws depend only on its seed and trial index, never on
the trials computed before it.  The default-prior oracle draws nothing: it
is deterministic quadrature (``bicbf.gprior``).
"""

from __future__ import annotations

import hashlib

import numpy as np


def label_key(label: str) -> int:
    """Stable 64-bit key for a substream label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Generator for the ``(seed, label, index)`` substream."""
    entropy = [int(seed), label_key(label), int(index)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
