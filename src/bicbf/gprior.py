"""Default g-prior Bayes factors for balanced factorial designs.

Independent reimplementation of the default Bayesian ANOVA used as the
comparison standard (Rouder, Morey, Speckman & Province, 2012, "Default
Bayes factors for ANOVA designs", J. Math. Psych. 56).  Each effect e
contributes df_e contrast columns, an orthonormal basis of its sum-to-zero
subspace, whose coefficients share a variance scale g_e; the grand mean and
error variance are integrated out under the usual flat/right-Haar treatment.
Conditional on g the Bayes factor of a model M against the intercept-only
model is

    BF10(g) = det(I + XGX')^(-1/2) * [ SST / (y'(I + XGX')^(-1) y) ]^((N-1)/2)

with y centered.  For balanced data the blocks are mutually orthogonal and
X_e'X_e = c_e I, with c_A = b*n, c_B = a*n and c_AB = n (n observations per
cell), so both factors depend on the data only through the ANOVA sums of
squares:

    log BF10(g) = -1/2 sum_{e in M} df_e log(1 + c_e g_e)
                  + ((N-1)/2) log(SST / q),
    q = SSE + sum_{e not in M} SS_e + sum_{e in M} SS_e / (1 + c_e g_e).

q is summed from nonnegative terms rather than formed as
SST - sum_{e in M} SS_e c_e g_e / (1 + c_e g_e), which cancels to nothing
at large g when the error variance is small.

``default_bf10`` integrates over g by plain Monte Carlo with independent
Inverse-Gamma(1/2, r^2/2) draws per effect block; r defaults to sqrt(2)/2,
the conventional "wide" scale.  Draws come from a deterministic substream
(see ``bicbf.rng``) keyed by the oracle seed, the effect and a stream index,
so an estimate is reproducible and does not depend on what was computed
before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anova import EFFECTS, AnovaTable, FactorialDataset, fit_two_way
from .errors import DegenerateDataError, DomainError
from .rng import substream
from .summary import BayesFactorValue

__all__ = [
    "DEFAULT_PRIOR_SCALE",
    "MODEL_PAIRS",
    "GPriorSpec",
    "GPriorBayesFactor",
    "conditional_bf10",
    "default_bf10",
]

DEFAULT_PRIOR_SCALE = math.sqrt(2.0) / 2.0  # the "wide" setting

# Numerator/denominator model per tested effect: each main effect against
# the intercept-only model, the interaction against the two main effects.
MODEL_PAIRS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "A": (("A",), ()),
    "B": (("B",), ()),
    "AB": (("A", "B", "AB"), ("A", "B")),
}


def _column_norms(table: AnovaTable) -> dict[str, int]:
    """c_e per effect: X_e'X_e = c_e I for orthonormal contrasts of balanced data."""
    a, b = table.df_a + 1, table.df_b + 1
    return {"A": table.n_total // a, "B": table.n_total // b, "AB": table.n_total // (a * b)}


def conditional_bf10(table: AnovaTable, effects: Sequence[str], g) -> float:
    """Bayes factor of the model with ``effects`` against the intercept-only model.

    ``g`` holds one positive variance scale per listed effect, in the order
    listed; a bare scalar is accepted for a single effect.  The empty model
    returns exactly 1.
    """
    effects = tuple(effects)
    unknown = set(effects) - set(EFFECTS)
    if unknown:
        raise DomainError(f"unknown effects {sorted(unknown)}; choose from {EFFECTS}")
    if len(set(effects)) != len(effects):
        raise DomainError(f"effects must be distinct, got {effects}")
    g_row = np.atleast_1d(np.asarray(g, dtype=float))
    if g_row.shape != (len(effects),):
        raise DomainError(f"need {len(effects)} g components, got shape {g_row.shape}")
    if g_row.size and not np.all(g_row > 0):
        raise DomainError("g components must be positive")
    return float(np.exp(_log_conditional_bf10(table, effects, g_row[None, :])[0]))


def _log_conditional_bf10(
    table: AnovaTable, effects: tuple[str, ...], g_matrix: np.ndarray
) -> np.ndarray:
    """log conditional BF10 for each row of g_matrix, shape (m, len(effects))."""
    if not effects:
        return np.zeros(g_matrix.shape[0])
    if table.ss_total == 0.0:
        raise DegenerateDataError("constant response: Bayes factor undefined")
    norms = _column_norms(table)
    # q = y'(I + XGX')^-1 y as a sum of nonnegative terms; SST minus the
    # shrunk effect sums would cancel catastrophically once q << SST.
    q = table.ss_error + sum(table.ss(e) for e in EFFECTS if e not in effects)
    log_det = 0.0
    for column, effect in enumerate(effects):
        cg = norms[effect] * g_matrix[:, column]
        q += table.ss(effect) / (1.0 + cg)
        log_det += table.df(effect) * np.log1p(cg)
    # SST/q first, then one log: exact under power-of-two rescaling of y
    return -0.5 * log_det + 0.5 * (table.n_total - 1) * np.log(table.ss_total / q)


@dataclass(frozen=True)
class GPriorSpec:
    """Prior scale and Monte Carlo settings for ``default_bf10``."""

    scale: float = DEFAULT_PRIOR_SCALE
    mc_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale must be finite and positive, got {self.scale}")
        if self.mc_samples < 1000:
            raise DomainError(f"mc_samples must be at least 1000, got {self.mc_samples}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class GPriorBayesFactor(BayesFactorValue):
    """Monte Carlo Bayes factor carrying its standard error.

    ``standard_error`` is the delta-method standard error of ``log_bf``:
    with numerator and denominator marginal likelihoods estimated as means
    over common draws, it is the sample sd of w_num/mean(w_num) -
    w_den/mean(w_den) divided by sqrt(draws) (for a main effect, whose
    denominator is empty, the sd of the weights over their mean).
    """

    standard_error: float = math.nan
    n_samples: int = 0


def default_bf10(
    data: FactorialDataset,
    effect: str,
    spec: GPriorSpec = GPriorSpec(),
    stream_index: int = 0,
) -> GPriorBayesFactor:
    """Monte Carlo default Bayes factor BF10 for one effect.

    The Bayes factor of the pair MODEL_PAIRS[effect] is the ratio of the
    two models' marginal likelihoods, each against the intercept-only model.
    Both are estimated as Monte Carlo means of conditional Bayes factors
    over the same prior draws (the denominator uses the draws of the blocks
    it shares with the numerator), and log BF10 = log mean(w_num) -
    log mean(w_den).  The shared blocks do not cancel draw by draw: the
    quadratic form couples every block, so the mean of per-draw ratios
    would estimate a different quantity.  A main effect has an empty
    denominator, whose conditional Bayes factor is exactly 1.

    Deterministic for fixed (data, effect, spec, stream_index): draws come
    from the substream keyed by (spec.seed, "gprior/<effect>", stream_index).
    ``stream_index`` distinguishes datasets evaluated under one oracle seed;
    the simulation harness passes its trial index, so a trial's estimates
    depend only on the config and the trial number.
    """
    if effect not in MODEL_PAIRS:
        raise DomainError(f"effect must be one of {EFFECTS}, got {effect!r}")
    return _table_bf10(fit_two_way(data), effect, spec, stream_index)


def _table_bf10(
    table: AnovaTable, effect: str, spec: GPriorSpec, stream_index: int
) -> GPriorBayesFactor:
    """``default_bf10`` of a fitted table, for a known effect."""
    num_effects, den_effects = MODEL_PAIRS[effect]
    rng = substream(spec.seed, f"gprior/{effect}", stream_index)
    r_sq = spec.scale * spec.scale
    # 1/Gamma(1/2, scale=2/r^2) is Inverse-Gamma(1/2, scale=r^2/2)
    g = 1.0 / rng.gamma(0.5, 2.0 / r_sq, size=(spec.mc_samples, len(num_effects)))

    w_num, log_mean_num = _shifted_weights(_log_conditional_bf10(table, num_effects, g))
    w_den, log_mean_den = _shifted_weights(
        _log_conditional_bf10(table, den_effects, g[:, : len(den_effects)])
    )
    log_bf = log_mean_num - log_mean_den
    se = float(np.std(w_num - w_den, ddof=1) / math.sqrt(spec.mc_samples))
    return GPriorBayesFactor(log_bf, "10", standard_error=se, n_samples=spec.mc_samples)


def _shifted_weights(log_w: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights exp(log_w) over their mean, and the log of that mean.

    Shifting by the maximum before exponentiating keeps every weight finite.
    """
    shift = float(np.max(log_w))
    weights = np.exp(log_w - shift)
    mean_w = float(np.mean(weights))
    return weights / mean_w, shift + math.log(mean_w)
