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
  log I_e is a logsumexp over one shared log-g grid.  The outer integral
  over v = log s is a trapezoid rule on a window fixed in closed form.  As
  0 < 1/(1 + c_e g) <= 1 and rho_M + sum_e frac_e = 1, the log-integrand
  f(v) lies between k v - e^v + C and k v - rho_M e^v + C,
  C = sum_e log I_e(0).  So f peaks at no less than k log k - k + C, and
  lies 20 below that outside [log k - 1 - 20/k, log(k/rho_M) + log 2T],
  T = 1 + 20/k - log rho_M.
* Both marginals share the numerator's outer grid.  frac_e is the same in
  both models and rho_A+B >= rho_A+B+AB, so the denominator's window has
  the same lower end, ends no later and keeps the same spacing bound.
  Each log I_e is taken once per outer node and feeds both:

      f_num(v) = k v - rho_num e^v + log I_A + log I_B + log I_AB,
      f_den(v) = k v - rho_den e^v + log I_A + log I_B,

  the denominator's terms picked by an effect mask.  log Gamma(k) and the
  log of the outer step cancel in the ratio.  At most 128 (table, outer
  node) rows are evaluated at a time, which bounds memory when a near-zero
  error variance makes the window about -log rho_M wide.

Node counts.  The log-g grid has spacing 0.4, times sqrt(3/(df + 1)) for a
block with df > 2 contrasts, whose integrand is narrower.  It runs from 4
below log(r^2/2), where the prior density has fallen below exp(-e^4), to 35
past the farthest posterior mode of g, beyond which every integrand decays
at least like e^-u: 101 to 105 nodes on the study designs, more only where
a near-zero error variance sends the posterior of g far out.  Outer nodes
are 0.8/sqrt(k) apart, at most 0.2, since the curvature -f'' at the mode is
at most k: 31 to 60 per interaction on the desk design, 24 to 42 on the
wide one (900 trials each), 27 to 67 on 2x2 designs with 3 to 5
observations per cell, and some 1460 where SSE/SST = 1e-121.

Measured error in log BF, against the same rules 4 times finer with wider
windows: at most 1.5e-9 over 360 desk and wide study trials, 240 2x2
designs, 3x4 and 5x5 designs at prior scales from 0.05 to 10, and
near-constant cells (A, B and AB each).  The tests hold it to 1e-8.  Main
effects match scipy's adaptive quadrature to 1.5e-9, also at the ends of
the accepted prior scales, 1e-100 and 1e100; on near-constant cells
(log BF of AB = 291) the interaction matches a direct 3-D trapezoid rule
to 3e-13.  The result is a deterministic function of the data and the
prior scale, so ``standard_error`` is exactly 0.

Block evaluation.  ``_setup`` does the set-up of one effect for a block of
tables in arrays: its checks, the node counts, and the shares rho and
frac_e from the block's sums-of-squares columns.  The grid's ends, spacing
and weights depend only on the design and the prior scale, so the tables
of a block share them.  ``_evaluate`` integrates the set-up: the
simulation study passes a block of trials, and ``default_bf10`` is the
one-table case.  Tables with the same log-g node count share (tables,
nodes) arrays; the outer rule's rows are stacked across tables and cut
into chunks of 128, and each table's outer sums are taken with the tables
of its own outer node count.  Every sum and max runs along the last axis
over one table's own nodes, with no padding, because padding would change
numpy's pairwise summation.  So each value is bitwise what the table gives
alone, whatever else shares its block; the tests check the numpy behaviour
this rests on.
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
_PRIOR_SCALES = (1e-100, 1e100)  # the range of prior scales GPriorSpec accepts

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
    q = _residual(table.ss_error, {e: table.ss(e) for e in EFFECTS}, effects)
    return _log_bf10_given_g(table.ss_total, q, 0.5 * (table.n_total - 1), blocks, g_columns)


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

    ``scale`` must lie in [1e-100, 1e100].  Far outside that range the
    rule's weights leave the double range: at 1e-200, r^2/2 underflows to 0.

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
        low, high = _PRIOR_SCALES
        if not low <= self.scale <= high:
            raise DomainError(f"scale must lie in [{low:g}, {high:g}], got {self.scale}")
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
_OUTER_ROWS = 128  # (table, outer node) rows of the nested rule at once


class _Outer(NamedTuple):
    """The interaction's outer trapezoid rule on v = log s, one per table.

    Both marginals are summed on the numerator's ``count`` nodes lo + i * step,
    the last at exactly hi (as ``np.linspace``).  ``rho`` and ``rho_den`` are
    the two models' residual shares, ``frac`` holds frac_e per numerator
    effect and ``den`` masks the denominator's effects among them.
    """

    rho: np.ndarray
    rho_den: np.ndarray
    frac: np.ndarray  # (tables, effects)
    den: np.ndarray
    lo: float
    hi: np.ndarray
    step: np.ndarray
    count: np.ndarray


class _Setup(NamedTuple):
    """The set-up of one effect for a block of tables of one design.

    It covers the leading ``passed`` tables, which pass every check of
    ``default_bf10``; ``failure`` is the error of the next table, if any.
    The log-g grid of table i has ``count[i]`` nodes lo + j * step, and
    ``c`` and ``df`` hold c_e and df_e per numerator effect.  A main effect is
    integrated in the conditional form from its model's residual ``q`` and
    sum of squares ``ss``; the interaction carries its ``outer`` rule.
    """

    passed: int
    failure: DegenerateDataError | None
    k: float
    beta: float
    lo: float
    step: float
    log_w0: float  # log(step) + (1/2) log(beta/pi)
    c: np.ndarray
    df: np.ndarray
    count: np.ndarray
    ss_total: np.ndarray
    q: np.ndarray
    ss: np.ndarray
    outer: _Outer | None

    def check(self, index: int) -> None:
        """Raise the error of table ``index`` if its set-up failed."""
        if index == self.passed and self.failure is not None:
            raise self.failure


def _table_bf10(
    table: AnovaTable, effect: str, spec: GPriorSpec, rule: _Rule = _RULE
) -> GPriorBayesFactor:
    """``default_bf10`` of a fitted table, for a known effect."""
    setup = _setup([table], effect, spec.scale, rule)
    setup.check(0)
    return GPriorBayesFactor(float(_evaluate(setup, 1)[0]), "10")


def _setup(
    tables: Sequence[AnovaTable], effect: str, scale: float, rule: _Rule = _RULE
) -> _Setup:
    """Set-up of ``effect`` for each of a block of tables, in arrays.

    The tables share one design.  Every DegenerateDataError check of
    ``default_bf10`` runs on every table; the set-up stops at the first
    that fails and holds its error, so a block reports the lowest failing
    table with the message that table gives alone.
    """
    num_effects, den_effects = MODEL_PAIRS[effect]
    design = tables[0]
    columns = np.array([[t.ss_a, t.ss_b, t.ss_ab, t.ss_error, t.ss_total] for t in tables])
    ss_of = dict(zip(EFFECTS, columns.T))
    ss_error, ss_total = columns[:, 3], columns[:, 4]
    k = 0.5 * (design.n_total - 1)
    norms = _column_norms(design)
    c = np.array([float(norms[e]) for e in num_effects])
    df = np.array([float(design.df(e)) for e in num_effects])
    q = _residual(ss_error, ss_of, num_effects)
    ss = np.stack([ss_of[e] for e in num_effects], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = q / ss_total
        frac = ss / ss_total[:, None]
        # log g at which the posterior of the farthest-reaching block peaks, at most
        top = np.max(frac / c, axis=1)
        reach = math.log(k) + np.log(np.maximum(top, 1e-300)) - np.log(rho)
    # reach > 300 would take tau^2 and (1/(1 + c g))^2 out of the double range
    bad = (ss_total == 0.0) | (rho == 0.0) | (reach > 300.0)
    passed = int(np.argmax(bad)) if bad.any() else len(tables)
    failure = None
    if passed < len(tables):
        if ss_total[passed] == 0.0:
            failure = DegenerateDataError("constant response: Bayes factor undefined")
        elif rho[passed] == 0.0:
            failure = DegenerateDataError(
                f"zero residual sum of squares under model {'+'.join(num_effects)}: "
                "its marginal likelihood diverges"
            )
        else:
            failure = DegenerateDataError(
                f"residual sum of squares {float(ss_error[passed])!r} too small against "
                "the effects: the posterior of g leaves the double range"
            )
    # The log-g grid covers the prior and every posterior peaking at
    # log g <= reach.  A block with df contrasts narrows the integrand in
    # log g like (df + 1)^-1/2, so the spacing shrinks with it beyond df = 2.
    beta = 0.5 * scale**2
    step = rule.g_step * min(1.0, math.sqrt(3.0 / (df.max() + 1.0)))
    lo = math.log(beta) - rule.g_below
    hi = np.maximum(math.log(2.0 * beta), reach[:passed]) + rule.g_above
    outer = None
    if den_effects:
        rho = rho[:passed]
        rho_den = _residual(ss_error, ss_of, den_effects)[:passed] / ss_total[:passed]
        v_lo, v_hi, v_count = _outer_rule(k, rho, rule)
        outer = _Outer(
            rho, rho_den, frac[:passed], np.array([e in den_effects for e in num_effects]),
            v_lo, v_hi, (v_hi - v_lo) / (v_count - 1), v_count,
        )
    return _Setup(
        passed, failure, k, beta, lo, step, math.log(step) + 0.5 * math.log(beta / math.pi),
        c, df, (np.ceil((hi - lo) / step) + 1).astype(int),
        ss_total[:passed], q[:passed], ss[:passed], outer,
    )


def _residual(ss_error, ss: dict, effects: tuple[str, ...]):
    """Residual sum of squares of the model ``effects``; scalars or arrays."""
    return ss_error + sum(ss[e] for e in EFFECTS if e not in effects)


def _outer_rule(k: float, rho: np.ndarray, rule: _Rule = _RULE):
    """(lo, hi, count) of the outer rule of the marginal with residual share rho.

    The window is fixed in closed form and the count keeps the nodes at
    most ``_outer_spacing(k, rule)`` apart.
    """
    # f(v) = k v - rho e^v + sum_e log I_e(e^v frac_e) lies between
    # k v - e^v + C and k v - rho e^v + C, C = sum_e log I_e(0), because
    # 0 < 1/(1 + c g) <= 1 and rho + sum(frac) = 1.  So f peaks at no less
    # than k log k - k + C, and is s_edge below that outside [lo, hi].
    t = 1.0 + rule.s_edge / k - np.log(rho)
    lo = math.log(k) - 1.0 - rule.s_edge / k
    hi = math.log(k) - np.log(rho) + np.log(2.0 * t)
    return lo, hi, (np.ceil((hi - lo) / _outer_spacing(k, rule)) + 1).astype(int)


def _outer_spacing(k: float, rule: _Rule = _RULE) -> float:
    """Widest outer node spacing: the curvature -f'' at the mode is at most k."""
    return min(rule.s_step / math.sqrt(k), rule.s_max_step)


def _evaluate(setup: _Setup, tables: int) -> np.ndarray:
    """log BF10 of the leading ``tables`` tables of a set-up, each bitwise
    what it gives when evaluated alone.

    Tables with the same log-g node count share arrays, one row each.
    Every sum and max runs along the last axis over one row's own nodes:
    padding a row would change numpy's pairwise summation.
    """
    count = setup.count[:tables]
    log_bf = np.empty(tables)
    if not tables:
        return log_bf
    # trapezoid nodes on u = log g, shared by every table; the weights fold
    # in the density of u under Inverse-Gamma(1/2, beta)
    u = setup.lo + setup.step * np.arange(count.max())
    log_w = setup.log_w0 - 0.5 * u - setup.beta * np.exp(-u)
    g = np.exp(u)
    if setup.outer is not None:
        shrink = 1.0 / (1.0 + setup.c[:, None] * g)
        log_node = log_w + 0.5 * setup.df[:, None] * np.log(shrink)
    for n in np.unique(count):
        which = np.flatnonzero(count == n)
        if setup.outer is not None:
            log_bf[which] = _nested_log_bf10(setup, which, shrink[:, :n], log_node[:, :n])
        else:  # one effect against the intercept: its conditional BF on the grid
            block = (setup.ss[which], setup.c[0], setup.df[0])
            log_bf[which] = _logsumexp(log_w[:n] + _log_bf10_given_g(
                setup.ss_total[which, None], setup.q[which, None], setup.k, [block], [g[:n]]))
    return log_bf


def _nested_log_bf10(
    setup: _Setup, which: np.ndarray, shrink: np.ndarray, log_node: np.ndarray
) -> np.ndarray:
    """log BF10 of the interaction by the nested rule, for tables ``which``.

    Row e of ``shrink`` holds 1/(1 + c_e g) on the tables' shared log-g
    grid, and of ``log_node`` the log weight plus (df_e/2) log of it, so that
    log I_e(tau) = logsumexp(log_node[e] - tau * shrink[e]).  Each log I_e is
    taken once per outer node and feeds both marginals; log Gamma(k) and
    the log of the shared outer step cancel in the ratio.
    """
    outer, k = setup.outer, setup.k
    rho, rho_den, frac = outer.rho[which], outer.rho_den[which], outer.frac[which]
    counts, step, hi = outer.count[which], outer.step[which], outer.hi[which]
    ends = np.cumsum(counts)
    # one row per (table, outer node), at the nodes of np.linspace(lo, hi, count)
    table = np.repeat(np.arange(which.size), counts)
    v = (np.arange(ends[-1]) - np.repeat(ends - counts, counts)) * step[table] + outer.lo
    v[ends - 1] = hi
    s = np.exp(v)
    f_num, f_den = np.empty(v.size), np.empty(v.size)
    for start in range(0, v.size, _OUTER_ROWS):  # bounds the (rows, effects, g) arrays
        rows = slice(start, start + _OUTER_ROWS)
        t = table[rows]
        x = shrink * (s[rows, None] * frac[t])[:, :, None]
        np.subtract(log_node, x, out=x)
        log_i = _logsumexp(x, out=x)
        kv = k * v[rows]
        f_num[rows] = kv - s[rows] * rho[t] + log_i.sum(axis=1)
        f_den[rows] = kv - s[rows] * rho_den[t] + log_i[:, outer.den].sum(axis=1)
    # each table's trapezoid sums over its own nodes, tables of one count at once
    out = np.empty(which.size)
    for n in np.unique(counts):
        these = np.flatnonzero(counts == n)
        nodes = (ends[these] - n)[:, None] + np.arange(n)
        out[these] = _logsumexp(f_num[nodes]) - _logsumexp(f_den[nodes])
    return out


def _logsumexp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log sum exp over the last axis; ``out`` may be x itself, which it overwrites."""
    # the max is exact in any order, and reduceat over the flattened rows is
    # about three times faster than np.max along short rows
    width = x.shape[-1]
    top = np.maximum.reduceat(x.reshape(-1), np.arange(0, x.size, width)).reshape(x.shape[:-1])
    shifted = np.subtract(x, top[..., None], out=out)
    return top + np.log(np.sum(np.exp(shifted, out=shifted), axis=-1))
