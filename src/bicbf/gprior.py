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
  I_e(tau) = E_g[(1 + c_e g)^(-df_e/2) exp(-tau/(1 + c_e g))].  Each
  log I_e is a logsumexp over one shared log-g grid, and log Gamma(k)
  cancels in the ratio.  The outer integral over v = log s is a trapezoid
  rule on a window fixed in closed form.  As 0 < 1/(1 + c_e g) <= 1 and
  rho_M + sum_e frac_e = 1, the log-integrand f(v) lies between
  k v - e^v + C and k v - rho_M e^v + C, C = sum_e log I_e(0).  So f peaks
  at no less than k log k - k + C, and lies 20 below that outside
  [log k - 1 - 20/k, log(k/rho_M) + log 2T], T = 1 + 20/k - log rho_M.
  At most 128 (evaluation, outer node) rows are evaluated at a time, which
  bounds memory when a near-zero error variance makes the window about
  -log rho_M wide.

Node counts.  The log-g grid has spacing 0.4, times sqrt(3/(df + 1)) for a
block with df > 2 contrasts, whose integrand is narrower.  It runs from 4
below log(r^2/2), where the prior density has fallen below exp(-e^4), to 35
past the farthest posterior mode of g, beyond which every integrand decays
at least like e^-u: 102 nodes on the study designs, more only where a
near-zero error variance sends the posterior of g far out.  Outer nodes are
0.8/sqrt(k) apart, at most 0.2, since the curvature -f'' at the mode is at
most k: 31 to 55 per model on the desk design, 24 to 45 on the wide one,
26 to 65 on 2x2 designs with 3 to 5 observations per cell, and some 1460
where SSE/SST = 1e-121.

Measured error in log BF, against the same rules 4 times finer with wider
windows: at most 1.5e-9 over 360 desk and wide study trials, 240 2x2
designs, 3x4 and 5x5 designs at prior scales from 0.05 to 10, and
near-constant cells (A, B and AB each).  The tests hold it to 1e-8.  Main
effects match scipy's adaptive quadrature to 1.5e-9, and on near-constant
cells (log BF of AB = 291) the interaction matches a direct 3-D trapezoid
rule to 3e-13.  The result is a deterministic function of the
data and the prior scale, so ``standard_error`` is exactly 0.

Block evaluation.  ``_prepare`` does an evaluation's scalar set-up (its
checks, windows and node counts) and ``_evaluate`` integrates any number of
set-ups at once: the simulation study passes a block of trials, and
``default_bf10`` is the one-evaluation case.  Set-ups with the same rule
and the same log-g node count share (evaluations, nodes) arrays; the outer
rule's rows are stacked across models and cut into chunks of 128, and each
model's outer sum is taken with the models of its own outer node count.
Every sum and max runs along the last axis over one evaluation's own nodes,
with no padding, because padding would change numpy's pairwise summation.
So each value is bitwise what the evaluation gives alone, whatever else
shares its block; the tests check the numpy behaviour this rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    blocks = [(table.ss(e), norms[e], table.df(e)) for e in effects]
    g_columns = [g_matrix[:, column] for column in range(len(effects))]
    return _log_bf10_given_g(
        table.ss_total, _residual(table, effects), 0.5 * (table.n_total - 1), blocks, g_columns
    )


def _log_bf10_given_g(ss_total, q, k, blocks, g_columns) -> np.ndarray:
    """log conditional BF10 from sums of squares, the module docstring's formula.

    ``q`` is the residual sum of squares of the model, ``k`` = (N - 1)/2,
    ``blocks`` holds (SS_e, c_e, df_e) per effect of the model and
    ``g_columns`` its g.  Scalars, or arrays with one evaluation per row.
    """
    # q = y'(I + XGX')^-1 y as a sum of nonnegative terms; SST minus the
    # shrunk effect sums would cancel catastrophically once q << SST.
    log_det = 0.0
    for (ss, c, df), g in zip(blocks, g_columns):
        cg = c * g
        q = q + ss / (1.0 + cg)
        log_det = log_det + df * np.log1p(cg)
    # SST/q first, then one log: exact under power-of-two rescaling of y
    return -0.5 * log_det + k * np.log(ss_total / q)


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
    s_edge: float = 20.0


_RULE = _Rule()
_OUTER_ROWS = 128  # (evaluation, outer node) rows of the nested rule at once


class _Outer(NamedTuple):
    """One marginal likelihood of the nested rule: its shares rho_M and
    frac_e, and the outer trapezoid rule on v = log s, whose ``count`` nodes
    are lo + i * step with the last at exactly hi (as ``np.linspace``)."""

    k: float
    rho: float
    frac: tuple[float, ...]
    lo: float
    hi: float
    step: float
    count: int


class _Oracle(NamedTuple):
    """The scalar set-up of one ``default_bf10`` evaluation.

    The log-g grid has ``count`` nodes lo + i * step; ``blocks`` holds
    (SS_e, c_e, df_e) per numerator effect.  A main effect is integrated
    in the conditional form from its model's residual ``q``; the
    interaction carries its two marginals in ``outer``.
    """

    beta: float
    lo: float
    step: float
    count: int
    log_w0: float  # log(step) + (1/2) log(beta/pi)
    ss_total: float
    k: float
    q: float
    blocks: tuple[tuple[float, int, int], ...]
    outer: tuple[_Outer, ...]


def _table_bf10(
    table: AnovaTable, effect: str, spec: GPriorSpec, rule: _Rule = _RULE
) -> GPriorBayesFactor:
    """``default_bf10`` of a fitted table, for a known effect."""
    log_bf = _evaluate([_prepare(table, effect, spec.scale, rule)])[0]
    return GPriorBayesFactor(float(log_bf), "10")


def _prepare(table: AnovaTable, effect: str, scale: float, rule: _Rule = _RULE) -> _Oracle:
    """Scalar set-up of one evaluation; ``_evaluate`` does the array work.

    Raises every DegenerateDataError of ``default_bf10``, so that a block
    of evaluations fails before any array work and at the first failing
    evaluation.
    """
    num_effects, den_effects = MODEL_PAIRS[effect]
    if table.ss_total == 0.0:
        raise DegenerateDataError("constant response: Bayes factor undefined")
    k = 0.5 * (table.n_total - 1)
    q = _residual(table, num_effects)
    rho, frac = q / table.ss_total, _fracs(table, num_effects)
    if rho == 0.0:
        raise DegenerateDataError(
            f"zero residual sum of squares under model {'+'.join(num_effects)}: "
            "its marginal likelihood diverges"
        )
    norms = _column_norms(table)
    blocks = tuple((table.ss(e), norms[e], table.df(e)) for e in num_effects)
    # log g at which the posterior of the farthest-reaching block peaks, at most
    top = max(f / c for f, (_, c, _) in zip(frac, blocks))
    reach = math.log(k) + math.log(max(top, 1e-300)) - math.log(rho)
    if reach > 300.0:  # keeps tau^2 and (1/(1 + c g))^2 inside the double range
        raise DegenerateDataError(
            f"residual sum of squares {table.ss_error!r} too small against the effects: "
            "the posterior of g leaves the double range"
        )
    # The log-g grid covers the prior and every posterior peaking at
    # log g <= reach.  A block with df contrasts narrows the integrand in
    # log g like (df + 1)^-1/2, so the spacing shrinks with it beyond df = 2.
    beta = 0.5 * scale**2
    df = float(max(df for _, _, df in blocks))
    step = rule.g_step * min(1.0, math.sqrt(3.0 / (df + 1.0)))
    lo = math.log(beta) - rule.g_below
    hi = max(math.log(2.0 * beta), reach) + rule.g_above
    outer = ()
    if den_effects:
        rho_den = _residual(table, den_effects) / table.ss_total
        outer = (_outer(k, rho, frac, rule), _outer(k, rho_den, _fracs(table, den_effects), rule))
    return _Oracle(
        beta, lo, step, math.ceil((hi - lo) / step) + 1,
        math.log(step) + 0.5 * math.log(beta / math.pi),
        table.ss_total, k, q, blocks, outer,
    )


def _residual(table: AnovaTable, effects: tuple[str, ...]) -> float:
    """Residual sum of squares of the model ``effects``."""
    return table.ss_error + sum(table.ss(e) for e in EFFECTS if e not in effects)


def _fracs(table: AnovaTable, effects: tuple[str, ...]) -> tuple[float, ...]:
    """frac_e of the module docstring, for the model ``effects``."""
    return tuple(table.ss(e) / table.ss_total for e in effects)


def _outer(k: float, rho: float, frac: tuple[float, ...], rule: _Rule) -> _Outer:
    """The outer rule of one marginal likelihood, window fixed in closed form."""
    # f(v) = k v - rho e^v + sum_e log I_e(e^v frac_e) lies between
    # k v - e^v + C and k v - rho e^v + C, C = sum_e log I_e(0), because
    # 0 < 1/(1 + c g) <= 1 and rho + sum(frac) = 1.  So f peaks at no less
    # than k log k - k + C, and is s_edge below that outside [lo, hi].
    t = 1.0 + rule.s_edge / k - math.log(rho)
    lo = math.log(k) - 1.0 - rule.s_edge / k
    hi = math.log(k) - math.log(rho) + math.log(2.0 * t)
    # the curvature -f'' at the mode is at most k
    count = math.ceil((hi - lo) / min(rule.s_step / math.sqrt(k), rule.s_max_step)) + 1
    return _Outer(k, rho, frac, lo, hi, (hi - lo) / (count - 1), count)


def _evaluate(oracles: Sequence[_Oracle]) -> np.ndarray:
    """log BF10 of each set-up, bitwise what it gives when evaluated alone.

    Set-ups with the same rule and log-g node count share arrays, one row
    each.  Every sum and max runs along the last axis over one row's own
    nodes: padding a row would change numpy's pairwise summation.
    """
    log_bf = np.empty(len(oracles))
    groups: dict[tuple, list[int]] = {}
    for index, oracle in enumerate(oracles):
        key = (oracle.count, len(oracle.blocks), tuple(len(m.frac) for m in oracle.outer))
        groups.setdefault(key, []).append(index)
    for members in groups.values():
        group = [oracles[i] for i in members]
        lo, step, log_w0, beta = (
            _column([getattr(o, name) for o in group]) for name in ("lo", "step", "log_w0", "beta")
        )
        # trapezoid nodes on u = log g; the weights fold in the density of u
        # under Inverse-Gamma(1/2, beta)
        u = lo + step * np.arange(group[0].count)
        log_w = log_w0 - 0.5 * u - beta * np.exp(-u)
        g = np.exp(u)
        if group[0].outer:
            log_bf[members] = _nested_log_bf10(group, g, log_w)
        else:  # one effect against the intercept: its conditional BF on the grid
            ss_total, k, q = (_column([getattr(o, name) for o in group])
                              for name in ("ss_total", "k", "q"))
            block = [_column([o.blocks[0][i] for o in group]) for i in range(3)]
            log_bf[members] = _logsumexp(log_w + _log_bf10_given_g(ss_total, q, k, [block], [g]))
    return log_bf


def _column(values: list) -> np.ndarray:
    return np.array(values)[:, None]


def _nested_log_bf10(group: list[_Oracle], g: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """log BF10 of the interaction by the nested rule, one set-up per row of g."""
    c = np.array([[c for _, c, _ in o.blocks] for o in group], dtype=float)
    df = np.array([[df for _, _, df in o.blocks] for o in group], dtype=float)
    shrink = 1.0 / (1.0 + c[:, :, None] * g[:, None, :])
    log_node = log_w[:, None, :] + 0.5 * df[:, :, None] * np.log(shrink)
    num, den = ([o.outer[i] for o in group] for i in (0, 1))
    # log Gamma(k) cancels between the two models
    return _log_gamma_marginals(num, shrink, log_node) - _log_gamma_marginals(
        den, shrink, log_node)


def _log_gamma_marginals(
    models: list[_Outer], shrink: np.ndarray, log_node: np.ndarray
) -> np.ndarray:
    """log(Gamma(k) m_M) of each model by the nested rule of the module docstring.

    Model i uses the leading len(frac) blocks of row i.  Block e of row i of
    ``shrink`` holds 1/(1 + c_e g) on that row's log-g grid, and of
    ``log_node`` the log weight plus (df_e/2) log of it, so that
    log I_e(tau) = logsumexp(log_node[i, e] - tau * shrink[i, e]).
    """
    blocks = len(models[0].frac)
    shrink, log_node = shrink[:, :blocks], log_node[:, :blocks]
    k, rho, lo, hi, step = (np.array([getattr(m, name) for m in models])
                            for name in ("k", "rho", "lo", "hi", "step"))
    frac = np.array([m.frac for m in models])
    counts = np.array([m.count for m in models])
    ends = np.cumsum(counts)
    # one row per (model, outer node), at the nodes of np.linspace(lo, hi, count)
    model = np.repeat(np.arange(len(models)), counts)
    v = (np.arange(ends[-1]) - np.repeat(ends - counts, counts)) * step[model] + lo[model]
    v[ends - 1] = hi
    s = np.exp(v)
    f = np.empty(v.size)
    for start in range(0, v.size, _OUTER_ROWS):  # bounds the (rows, blocks, g) arrays
        rows = slice(start, start + _OUTER_ROWS)
        m = model[rows]
        x = shrink[m] * (s[rows, None] * frac[m])[:, :, None]
        np.subtract(log_node[m], x, out=x)
        f[rows] = k[m] * v[rows] - s[rows] * rho[m] + _logsumexp(x, out=x).sum(axis=1)
    # each model's trapezoid sum over its own nodes, models of one count at once
    out = np.empty(len(models))
    for count in np.unique(counts):
        which = np.flatnonzero(counts == count)
        out[which] = _logsumexp(f[(ends[which] - count)[:, None] + np.arange(count)])
    return out + np.array([math.log(m.step) for m in models])


def _logsumexp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log sum exp over the last axis; ``out`` may be x itself, which it overwrites."""
    # the max is exact in any order, and reduceat over the flattened rows is
    # about three times faster than np.max along short rows
    width = x.shape[-1]
    top = np.maximum.reduceat(x.reshape(-1), np.arange(0, x.size, width)).reshape(x.shape[:-1])
    shifted = np.subtract(x, top[..., None], out=out)
    return top + np.log(np.sum(np.exp(shifted, out=shifted), axis=-1))
