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

``default_bf10`` integrates over g, each g_e Inverse-Gamma(1/2, r^2/2) with
r = sqrt(2)/2 by default, by deterministic quadrature:

* A main effect is one integral over u = log g: a trapezoid rule with the
  prior density of u folded into the weights.
* The interaction compares the full model with A+B, and each marginal
  likelihood m_M is a |M|-dimensional integral.  The blocks are coupled only
  through q^-k, k = (N-1)/2; the Gamma identity
  q^-k = Gamma(k)^-1 int t^(k-1) e^(-tq) dt factors the integrand by block:

      log m_M = -log Gamma(k) + log int exp(k v - e^v rho_M
                    + sum_{e in M} log I_e(e^v frac_e)) dv,

  rho_M = (SSE + sum_{e not in M} SS_e)/SST, frac_e = SS_e/SST and
  I_e(tau) = E_g[(1 + c_e g)^(-df_e/2) exp(-tau/(1 + c_e g))].  The outer
  integral over v = log s is a trapezoid rule centred on the mode of its
  log-integrand, found by Newton steps from v = log(k/rho_M) kept inside a
  bracket [log k, log(k/rho_M)] that must hold it.  Its window comes from a
  Gumbel bound with the curvature kappa at the mode and is widened until
  both ends lie 20 below the peak.  Each log I_e is a logsumexp over one
  shared log-g grid.  log Gamma(k) cancels in the ratio.

Node counts.  The log-g grid has spacing 0.4, times sqrt(3/(df + 1)) for a
block with df > 2 contrasts, whose integrand is narrower.  It runs from 4
below log(r^2/2), where the prior density has fallen below exp(-e^4), to 35
past the farthest posterior mode of g, beyond which every integrand decays
at least like e^-u: 102 nodes on the study designs, more only where a
near-zero error variance sends the posterior of g far out.  Outer nodes are
0.8/sqrt(kappa) apart, at most 0.2: 22 on the desk design, 23 on the wide
one, 37 to 93 on 2x2 designs with 3 to 5 observations per cell.

Measured error in log BF, against the same rules 4 times finer with wider
windows: at most 1.4e-9 over 360 desk and wide study trials and 160 2x2
designs (A, B and AB each), and 6e-9 over 3x4 and 5x5 designs, near-zero
error variances and prior scales from 0.05 to 10.  The tests hold it to
1e-8.  Main effects match scipy's adaptive quadrature to 1.5e-9, and on
near-constant cells (log BF of AB = 291) the interaction matches a direct
3-D trapezoid rule to 3e-13.  The result is a deterministic function of the
data and the prior scale, so ``standard_error`` is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anova import EFFECTS, AnovaTable, FactorialDataset, fit_two_way
from .errors import DegenerateDataError, DomainError
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
# Each denominator lists the leading effects of its numerator.
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
    """Prior scale of ``default_bf10``.

    ``mc_samples`` and ``seed`` are ignored by the deterministic oracle;
    they are removed with the benchmark change of ROADMAP item 1.  Until
    then they keep their old validation.
    """

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
    """Default Bayes factor from ``default_bf10``.

    ``standard_error`` is always exactly 0.0: the quadrature is
    deterministic.  The field is ignored by the deterministic oracle and
    removed with the benchmark change of ROADMAP item 1.
    """

    standard_error: float = 0.0


def default_bf10(
    data: FactorialDataset,
    effect: str,
    spec: GPriorSpec = GPriorSpec(),
    stream_index: int = 0,
) -> GPriorBayesFactor:
    """Default Bayes factor BF10 for one effect, by quadrature over g.

    The Bayes factor of the pair MODEL_PAIRS[effect] is the ratio of the
    two models' marginal likelihoods, each against the intercept-only model
    (the module docstring gives the rules and their accuracy).  The shared
    blocks of the interaction's pair do not cancel inside the integral: the
    quadratic form couples every block.

    A deterministic function of the data, the effect and ``spec.scale``.
    ``stream_index`` is ignored by the deterministic oracle; it is removed
    with the benchmark change of ROADMAP item 1.  Raises
    DegenerateDataError for a constant response; when the numerator model
    fits the data exactly (zero residual sum of squares), where its
    marginal likelihood diverges; and when that residual is below about
    1e-130 of the total, where the posterior of g leaves the double range.
    """
    if effect not in MODEL_PAIRS:
        raise DomainError(f"effect must be one of {EFFECTS}, got {effect!r}")
    return _table_bf10(fit_two_way(data), effect, spec)


@dataclass(frozen=True)
class _Rule:
    """Spacing and windows of the quadrature (module docstring)."""

    g_step: float = 0.4
    g_below: float = 4.0
    g_above: float = 35.0
    s_step: float = 0.8
    s_max_step: float = 0.2
    s_tail: float = 25.0
    s_edge: float = 20.0
    newton_tol: float = 0.03
    max_newton_steps: int = 40
    max_widenings: int = 8


_RULE = _Rule()


def _table_bf10(
    table: AnovaTable, effect: str, spec: GPriorSpec, rule: _Rule = _RULE
) -> GPriorBayesFactor:
    """``default_bf10`` of a fitted table, for a known effect."""
    num_effects, den_effects = MODEL_PAIRS[effect]
    if table.ss_total == 0.0:
        raise DegenerateDataError("constant response: Bayes factor undefined")
    k = 0.5 * (table.n_total - 1)
    rho, frac = _shares(table, num_effects)
    if rho == 0.0:
        raise DegenerateDataError(
            f"zero residual sum of squares under model {'+'.join(num_effects)}: "
            "its marginal likelihood diverges"
        )
    norms = _column_norms(table)
    c = np.array([norms[e] for e in num_effects], dtype=float)
    # log g at which the posterior of the farthest-reaching block peaks, at most
    reach = math.log(k) + math.log(max(float(np.max(frac / c)), 1e-300)) - math.log(rho)
    if reach > 300.0:  # keeps tau^2 and (1/(1 + c g))^2 inside the double range
        raise DegenerateDataError(
            f"residual sum of squares {table.ss_error!r} too small against the effects: "
            "the posterior of g leaves the double range"
        )
    df = np.array([table.df(e) for e in num_effects], dtype=float)
    g, log_w = _log_g_nodes(0.5 * spec.scale**2, reach, float(np.max(df)), rule)
    if not den_effects:
        log_bf = _logsumexp(log_w + _log_conditional_bf10(table, num_effects, g[:, None]))
    else:
        shrink = 1.0 / (1.0 + np.outer(c, g))
        log_node = log_w + 0.5 * df[:, None] * np.log(shrink)
        rho_den, frac_den = _shares(table, den_effects)
        m = len(den_effects)
        # log Gamma(k) cancels between the two models
        log_bf = _log_gamma_marginal(k, rho, frac, shrink, log_node, rule) - _log_gamma_marginal(
            k, rho_den, frac_den, shrink[:m], log_node[:m], rule
        )
    return GPriorBayesFactor(float(log_bf), "10")


def _shares(table: AnovaTable, effects: tuple[str, ...]) -> tuple[float, np.ndarray]:
    """rho_M and frac_e of the module docstring, for the model ``effects``."""
    residual = table.ss_error + sum(table.ss(e) for e in EFFECTS if e not in effects)
    return residual / table.ss_total, np.array([table.ss(e) for e in effects]) / table.ss_total


def _log_g_nodes(
    beta: float, reach: float, df: float, rule: _Rule
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes g and log trapezoid weights of the prior on log g.

    The grid covers the prior and every posterior peaking at log g <= reach.
    A block with df contrasts narrows the integrand in log g like
    (df + 1)^-1/2, so the spacing shrinks with it beyond df = 2.
    """
    step = rule.g_step * min(1.0, math.sqrt(3.0 / (df + 1.0)))
    lo = math.log(beta) - rule.g_below
    hi = max(math.log(2.0 * beta), reach) + rule.g_above
    u = lo + step * np.arange(math.ceil((hi - lo) / step) + 1)
    # density of u = log g under Inverse-Gamma(1/2, beta), times the spacing
    log_w = math.log(step) + 0.5 * math.log(beta / math.pi) - 0.5 * u - beta * np.exp(-u)
    return np.exp(u), log_w


def _log_gamma_marginal(
    k: float,
    rho: float,
    frac: np.ndarray,
    shrink: np.ndarray,
    log_node: np.ndarray,
    rule: _Rule,
) -> float:
    """log(Gamma(k) m_M) by the nested rule of the module docstring.

    Row e of ``shrink`` holds 1/(1 + c_e g) on the log-g grid, and row e of
    ``log_node`` the log weight plus (df_e/2) log of it, so that
    log I_e(tau) = logsumexp(log_node[e] - tau * shrink[e]).
    """
    # Newton on f'(v), kept inside a bracket: f' >= 0 at log k and <= 0 at log(k/rho)
    lo, hi = math.log(k), math.log(k) - math.log(rho)
    v = hi
    for _ in range(rule.max_newton_steps):
        s = math.exp(v)
        tau = s * frac
        terms = log_node - tau[:, None] * shrink
        w = np.exp(terms - terms.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        mean = (w * shrink).sum(axis=1)
        var = (w * shrink * shrink).sum(axis=1) - mean * mean
        slope = k - s * rho - tau @ mean
        kappa = k - slope - (tau * tau) @ var  # -f''(v)
        if slope > 0:
            lo = v
        else:
            hi = v
        if kappa > 0 and abs(slope) / math.sqrt(kappa) < rule.newton_tol:
            break  # within newton_tol standard deviations of the mode
        step = slope / kappa if kappa > 0 else math.inf
        v = v + step if lo < v + step < hi else 0.5 * (lo + hi)
    # Gumbel bound kappa v - kappa e^(v - mode) on each side of the mode; a
    # flatter mode than the floor is left to the widening below
    kappa = max(kappa, 0.5)
    x = rule.s_tail / kappa
    left, right = x + math.sqrt(2.0 * x), min(math.sqrt(2.0 * x), 1.0 + math.log1p(x))
    step = min(rule.s_step / math.sqrt(kappa), rule.s_max_step)
    for _ in range(rule.max_widenings):
        count = math.ceil((left + right) / step) + 1
        vs = np.linspace(v - left, v + right, count)
        s = np.exp(vs)
        log_i = _logsumexp(log_node - np.outer(s, frac)[:, :, None] * shrink)
        f = k * vs - s * rho + log_i.sum(axis=1)
        edge = f.max() - rule.s_edge
        if f[0] < edge and f[-1] < edge:
            return _logsumexp(f) + math.log((left + right) / (count - 1))
        left, right = 2.0 * left if f[0] >= edge else left, 2.0 * right if f[-1] >= edge else right
    raise DegenerateDataError("the integrand over s does not decay: no marginal likelihood")


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis."""
    top = np.max(x, axis=-1)
    return top + np.log(np.sum(np.exp(x - top[..., None]), axis=-1))
