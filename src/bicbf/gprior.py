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
X_e'X_e = c_e I, c_e = N over the product of the levels of e's factors
(``bicbf.anova`` derives df_e and c_e of every term from its statement of
the layout), so both factors depend on the data only through the ANOVA sums
of squares:

    log BF10(g) = -1/2 sum_{e in M} df_e log(1 + c_e g_e)
                  + ((N-1)/2) log(SST / q),
    q = SSE + sum_{e not in M} SS_e + sum_{e in M} SS_e / (1 + c_e g_e).

q is summed from nonnegative terms rather than formed as
SST - sum_{e in M} SS_e c_e g_e / (1 + c_e g_e), which cancels to nothing
at large g when the error variance is small.

``default_bf10`` integrates over g, each g_e Inverse-Gamma(1/2, r^2/2) with
r = sqrt(2)/2 by default, by deterministic quadrature, with one rule for
every effect.  Each effect e is a pair of nested models (``MODEL_PAIRS``),
derived from the layout's terms: the terms inside e with e against the
same terms without it.  So a main effect is tested alone against the
intercept-only model, and the interaction in the full model against A+B.
BF10 is the ratio of the two models' marginal likelihoods, each a
|M|-dimensional integral:

* The blocks are coupled only through q^-k, k = (N-1)/2; the Gamma identity
  q^-k = Gamma(k)^-1 int t^(k-1) e^(-tq) dt factors the integrand by block:

      log m_M = -log Gamma(k) + log int exp(k v - e^v rho_M
                    + sum_{e in M} log I_e(e^v frac_e)) dv,

  rho_M = (SSE + sum_{e not in M} SS_e)/SST, frac_e = SS_e/SST and
  I_e(tau) = E_g[(1 + c_e g)^(-df_e/2) exp(-tau/(1 + c_e g))].  Each
  log I_e is read from a lattice (below).  The outer integral over
  v = log s is a trapezoid rule on a window fixed in closed form.  As
  0 < 1/(1 + c_e g) <= 1 and rho_M + sum_e frac_e = 1, the log-integrand
  f(v) lies between k v - e^v + C and k v - rho_M e^v + C,
  C = sum_e log I_e(0).  So f peaks at no less than k log k - k + C, and
  lies 20 below that outside [log k - 1 - 20/k, log(k/rho_M) + log 2T],
  T = 1 + 20/k - log rho_M.
* Both marginals share the numerator's outer grid.  frac_e is the same in
  both models and the denominator leaves more in its residual,
  rho_den >= rho_num, so its window has the same lower end, ends no later
  and keeps the same spacing bound.  Each log I_e is read once per outer
  node and feeds both:

      f_num(v) = k v - rho_num e^v + sum_{e in num} log I_e,
      f_den(v) = k v - rho_den e^v + sum_{e in den} log I_e,

  the denominator's terms picked by an effect mask.  A main effect's
  denominator is the empty model, f_den(v) = k v - rho_den e^v with
  rho_den = 1 up to rounding, summed on the same nodes rather than taken
  in closed form.  log Gamma(k) and the log of the outer step cancel in
  the ratio.

The lattice.  I_e depends on the table only through tau = e^v frac_e; c_e
and df_e are fixed by the design and the prior by r.  So log I_e is
tabulated once per (c_e, df_e, r, log-g step) on the nodes log tau = j h,
h = 1/64, j an integer.  Node j is the trapezoid rule of log I_e(tau_j) on
a log-g grid (spacing under Node counts), with the prior density of
u = log g folded into the weights, from 4 below log(r^2/2), where that
density has fallen below exp(-e^4), to 35 past max(log r^2,
log(tau_j / c_e)), beyond which its integrand decays at least like e^-u.  That window comes from tau_j alone, so a node's value
depends only on its key and j.  Between nodes log I_e is the 8-point
centred Lagrange polynomial through nodes j - 3 to j + 4 of the interval
[j h, (j + 1) h) holding log tau, kept as its monomial coefficients.
Below tau = 1e-12 it is log I_e(0), which is within tau of log I_e(tau)
since |d log I_e/d tau| <= 1.  Nodes are computed when interpolation first
reaches them, from that cut-off up, and kept for the life of the process
in an LRU store of the 32 lattices last used; nothing is built at import.
A study design's lattice holds some 2100 to 2250 nodes of 101 to 116
log-g nodes each.  h = 1/64 is what 1e-10 needs: at r = 0.05 the prior's
bulk (g near r^2/2, a factor near e^-tau) and its tail trade places within
a few hundredths of log tau, and there h = 1/16 reads up to 3.4e-8 and
h = 1/32 up to 8.1e-10 off the direct rule on 3x4 and 5x5 designs.

Node counts.  The lattice's log-g grids have spacing 0.4, times
sqrt(3/(df + 1)) where the model has a block with df > 2 contrasts, whose
integrand is narrower.  Outer nodes are 0.8/sqrt(k) apart, at most 0.2,
since the curvature -f'' at the mode is at most k: 31 to 48 per main
effect and 31 to 55 per interaction on the desk design, 24 to 37 and 24
to 39 on the wide one (900 trials each), 26 to 54 and 27 to 65 on 2x2
designs with 3 to 5 observations per cell, and some 1460 for the
interaction where SSE/SST = 1e-121.

Measured error in log BF, against the same rules 4 times finer (lattice
step included) with wider windows: at most 1.5e-9 over 360 desk and wide
study trials, 240 2x2 designs, 3x4 and 5x5 designs at prior scales from
0.05 to 10, and near-constant cells (A, B and AB each).  The tests hold
it to 1e-8.  Against the direct rule, which takes each log I_e at every
outer node on the table's own log-g grid, the main effects are within
1.7e-13 and the interaction within 4.1e-12 on those trials and designs,
and within 8.5e-14 and 1.8e-12 on 400 random tables whose sums of
squares span 120 decades; the tests hold it to 1e-10.  Main effects match
scipy's adaptive quadrature to 1.5e-9, and to 1.1e-9 at the ends of the
accepted prior scales, 1e-100 and 1e100; on near-constant cells (log BF
of AB = 291) the interaction matches nested adaptive quadrature to
3.4e-13.  At k = 8.5 (2x3 cells of 3) the empty model's sum reads up to
8.6e-11 off its closed form, lgamma(k) - k log rho_den less the log of
the outer step.  The result is a deterministic function of the data and
the prior scale, so ``standard_error`` is exactly 0.

Block evaluation.  ``_setup`` does the set-up of one effect for a block of
fits in arrays (``bicbf.anova._Block``, one column per sum): its checks,
the outer windows and node counts, and the shares rho and frac_e, read
straight from the block's sums-of-squares columns.  A table that fails a
check fails the whole set-up, with the error it gives alone; the
simulation study then splits the block to name the lowest failing trial.
``_evaluate`` integrates the set-up: the simulation study passes a block
of trials, and ``default_bf10`` the one-dataset block.  Tables go in
order, in chunks of whole tables of about 2^14 outer nodes, which bounds
memory however many tables a block holds or however wide a near-zero
error variance makes a window.  A chunk's tables are consecutive segments
of one (2, nodes) array, a row per marginal; each marginal's max and sum
are one ``reduceat`` over the segments.  Interpolation is elementwise, and
each reduction runs over one table's own nodes, with no padding.  So each
value is bitwise what the table gives alone, whatever else shares its
block and whatever the lattices already hold; the tests check the numpy
behaviour this rests on.

The prior's spec, ``GPriorSpec``, and ``DEFAULT_PRIOR_SCALE`` live in
``bicbf.config``, which loads no numpy, so a study's config is built and
checked without this module.  It imports them back:
``bicbf.gprior.GPriorSpec`` is the same class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .anova import (EFFECTS, _OVERFLOWED, AnovaTable, FactorialDataset, _Block, _checked,
                    _fit_block, _inside)
from .config import DEFAULT_PRIOR_SCALE, GPriorSpec, _PRIOR_SCALES  # noqa: F401
from .errors import DegenerateDataError, DomainError
from .summary import BayesFactorValue

__all__ = [
    "MODEL_PAIRS",
    "GPriorBayesFactor",
    "conditional_bf10",
    "default_bf10",
]

# Numerator/denominator model per tested effect: the terms inside it, with
# and without it.  Each denominator's effects are among its numerator's,
# and the nested rule picks them by an effect mask (``_Setup.den``).
MODEL_PAIRS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    e: (_inside(e), tuple(t for t in _inside(e) if t != e)) for e in EFFECTS
}


def conditional_bf10(table: AnovaTable, effects: Sequence[str] | str, g) -> float:
    """Bayes factor of the model with ``effects`` against the intercept-only model.

    ``effects`` is a sequence of effects, or one effect (a string names
    one).  ``g`` holds one positive variance scale per listed effect, in
    the order listed; a bare scalar is accepted for a single effect.  The
    empty model returns exactly 1.
    """
    iterable = hasattr(effects, "__iter__") and not isinstance(effects, str)
    effects = tuple(effects) if iterable else (effects,)
    unknown = [e for e in effects if e not in EFFECTS]
    if unknown:
        raise DomainError(f"unknown effects {unknown}; choose from {EFFECTS}")
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
    """log conditional BF10, the module docstring's formula, per row of g_matrix.

    ``g_matrix`` has shape (m, len(effects)), one column per listed effect.
    """
    if not effects:
        return np.zeros(g_matrix.shape[0])
    if table.overflowed:
        raise DomainError(_OVERFLOWED)
    if table.ss_total == 0.0:
        raise DegenerateDataError("constant response: Bayes factor undefined")
    # q = y'(I + XGX')^-1 y as a sum of nonnegative terms; SST minus the
    # shrunk effect sums would cancel catastrophically once q << SST.
    q = table.residual(effects)
    log_det = 0.0
    for column, effect in enumerate(effects):
        cg = table.c(effect) * g_matrix[:, column]
        q = q + table.ss(effect) / (1.0 + cg)
        log_det = log_det + table.df(effect) * np.log1p(cg)
    # SST/q first, then one log: exact under power-of-two rescaling of y
    return -0.5 * log_det + 0.5 * (table.n_total - 1) * np.log(table.ss_total / q)


class GPriorBayesFactor(BayesFactorValue):
    """Default Bayes factor from ``default_bf10``.

    ``standard_error`` is always exactly 0.0: the quadrature is
    deterministic.  The field is ignored by the deterministic oracle and
    removed with the benchmark change of ROADMAP item 1.
    """

    __slots__ = ("standard_error",)

    def __init__(self, log_bf: float, direction: str, standard_error: float = 0.0):
        super().__init__(log_bf, direction)
        self._set(standard_error=standard_error)


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
    Raises DomainError when a sum of squares of the data leaves the double
    range, as does ``conditional_bf10``.
    """
    setup = _setup(_fit_block(data.y[None]), _checked(effect), spec.scale)
    return GPriorBayesFactor(float(_evaluate(setup)[0]), "10")


@dataclass(frozen=True)
class _Rule:
    """Spacing and windows of the quadrature (module docstring)."""

    g_step: float = 0.4
    g_below: float = 4.0
    g_above: float = 35.0
    s_step: float = 0.8
    s_max_step: float = 0.2
    s_edge: float = 20.0
    tau_step: float = 1.0 / 64.0  # lattice step in log tau


_RULE = _Rule()
_ROWS = 2**14  # outer nodes taken at once, in whole tables
_NODE_VALUES = 2**17  # (lattice node, log-g node) values taken at once
_LATTICES = 32  # lattices kept, the most recently used
_STENCIL = np.arange(-3, 5)  # lattice nodes of an interval, around its left end
_LOG_TAU_MIN = math.log(1e-12)  # below it, log I_e(tau) = log I_e(0) to within tau


class _Setup(NamedTuple):
    """The set-up of one effect for a block of tables of one design.

    Both marginals of the pair are summed on the numerator's outer
    trapezoid rule on v = log s: table i has ``count[i]`` nodes
    lo + j * step[i], the last at exactly hi[i] (as ``np.linspace``).
    ``rho`` and ``rho_den`` are the two models' residual shares,
    ``log_frac`` holds log frac_e per numerator effect and ``den`` masks the
    denominator's effects among them.  ``c`` and ``df`` hold c_e and df_e per
    numerator effect, and each log I_e is read from the lattice of c_e,
    df_e, ``beta``, the log-g spacing ``g_step`` and ``rule``.
    """

    k: float
    beta: float
    g_step: float
    rule: _Rule
    c: np.ndarray
    df: np.ndarray
    rho: np.ndarray
    rho_den: np.ndarray
    log_frac: np.ndarray  # (tables, effects)
    den: np.ndarray
    lo: float
    hi: np.ndarray
    step: np.ndarray
    count: np.ndarray


def _setup(block: _Block, effect: str, scale: float, rule: _Rule = _RULE) -> _Setup:
    """Set-up of ``effect`` for each table of a block of fits, in arrays.

    Every DegenerateDataError check of ``default_bf10`` runs on every row,
    and the first failing row's error is raised, with the message that
    table gives alone.
    """
    num_effects, den_effects = MODEL_PAIRS[effect]
    ss_total = block.ss_total
    k = 0.5 * (block.n_total - 1)
    c = np.array([float(block.c(e)) for e in num_effects])
    df = np.array([float(block.df(e)) for e in num_effects])
    ss = np.stack([block.ss(e) for e in num_effects], axis=1)
    residual = block.residual(num_effects)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = residual / ss_total
        frac = ss / ss_total[:, None]
        # log g at which the posterior of the farthest-reaching block peaks, at most
        top = np.max(frac / c, axis=1)
        reach = math.log(k) + np.log(np.maximum(top, 1e-300)) - np.log(rho)
    # reach > 300 would take tau^2 and (1/(1 + c g))^2 out of the double range
    overflowed = block.overflowed
    bad = overflowed | (ss_total == 0.0) | (rho == 0.0) | (reach > 300.0)
    if bad.any():
        first, model = int(np.argmax(bad)), "+".join(num_effects)
        if overflowed[first]:
            raise DomainError(_OVERFLOWED)
        if ss_total[first] == 0.0:
            raise DegenerateDataError("constant response: Bayes factor undefined")
        if residual[first] == 0.0:
            raise DegenerateDataError(
                f"zero residual sum of squares under model {model}: "
                "its marginal likelihood diverges"
            )
        raise DegenerateDataError(
            f"residual sum of squares {float(residual[first])!r} too small against "
            f"the effects of model {model}: the posterior of g leaves the double range"
        )
    # A block with df contrasts narrows the integrand of I_e in log g like
    # (df + 1)^-1/2, so the spacing shrinks with it beyond df = 2.
    g_step = rule.g_step * min(1.0, math.sqrt(3.0 / (df.max() + 1.0)))
    lo, hi, count = _outer_rule(k, rho, rule)
    with np.errstate(divide="ignore"):  # an effect of zero sum of squares has tau = 0
        log_frac = np.log(frac)
    return _Setup(
        k, 0.5 * scale**2, g_step, rule, c, df,
        rho, block.residual(den_effects) / ss_total,
        log_frac, np.array([e in den_effects for e in num_effects]),
        lo, hi, (hi - lo) / (count - 1), count,
    )


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


def _log_g_grid(beta: float, step: float, rule: _Rule, n: int):
    """The first n nodes u = log g of the trapezoid rule and their log weights.

    The weights fold in the density of u under Inverse-Gamma(1/2, beta).
    Node i and its weight are the same bits whatever n is.
    """
    u = (math.log(beta) - rule.g_below) + step * np.arange(n)
    log_w0 = math.log(step) + 0.5 * math.log(beta / math.pi)
    return u, log_w0 - 0.5 * u - beta * np.exp(-u)


def _evaluate(setup: _Setup) -> np.ndarray:
    """log BF10 of each table of a set-up, bitwise what it gives alone.

    Tables go in order, in chunks of whole tables of about ``_ROWS`` outer
    nodes.  Each log I_e is read from its lattice once per outer node and
    feeds both marginals; log Gamma(k) and the log of the shared outer step
    cancel in the ratio.
    """
    lattices = [_lattice(float(c), float(df), setup.beta, setup.g_step, setup.rule)
                for c, df in zip(setup.c, setup.df)]
    chunk = (np.cumsum(setup.count) - setup.count) // _ROWS  # of each table's first node
    edges = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), chunk.size]
    out = np.empty(chunk.size)
    for start, stop in zip(edges[:-1], edges[1:]):
        out[start:stop] = _nested_chunk(setup, lattices, slice(start, stop))
    return out


def _nested_chunk(setup: _Setup, lattices: list, tables: slice) -> np.ndarray:
    """log BF10 of a run of consecutive tables.

    Each table's nodes are one segment of the (2, nodes) log-integrands,
    and each marginal's logsumexp is one ragged ``reduceat`` over the
    segments: no padding, so each sum runs over its table's own nodes.
    """
    counts = setup.count[tables]
    ends = np.cumsum(counts)
    starts = ends - counts
    # one column per (table, outer node), at the nodes of np.linspace(lo, hi, count)
    v = (np.arange(ends[-1]) - starts.repeat(counts)) * setup.step[tables].repeat(counts)
    v += setup.lo
    v[ends - 1] = setup.hi[tables]
    log_i_den, log_i_num = 0.0, 0.0
    for effect, lattice in enumerate(lattices):
        log_i = lattice.log_i(v + setup.log_frac[tables, effect].repeat(counts))
        if setup.den[effect]:
            log_i_den = log_i_den + log_i
        else:
            log_i_num = log_i_num + log_i
    s, kv = np.exp(v), setup.k * v
    f = np.empty((2, v.size))  # the numerator's log-integrand, then the denominator's
    np.add(kv - s * setup.rho[tables].repeat(counts), log_i_den + log_i_num, out=f[0])
    np.add(kv - s * setup.rho_den[tables].repeat(counts), log_i_den, out=f[1])
    top = np.maximum.reduceat(f, starts, axis=1)
    np.subtract(f, top.repeat(counts, axis=1), out=f)
    log_m = top + np.log(np.add.reduceat(np.exp(f, out=f), starts, axis=1))
    return log_m[0] - log_m[1]


class _Lattice:
    """log I_e(tau) of one effect block, tabulated on log tau = j * h.

    Node j holds the trapezoid rule of log I_e at tau_j = exp(j h) on the
    log-g grid of the key, over a window fixed by tau_j alone, so its value
    depends only on the key and j.  Nodes are taken as interpolation first
    reaches them, from the lowest interval up, and kept.  Interval j,
    log tau in [j h, (j + 1) h), holds the monomial coefficients in
    t = log tau / h - j of the Lagrange polynomial through nodes j - 3 to
    j + 4.
    """

    def __init__(self, c: float, df: float, beta: float, step: float, rule: _Rule):
        self.c, self.df, self.beta, self.step, self.rule = c, df, beta, step, rule
        self.first = math.floor(_LOG_TAU_MIN / rule.tau_step)  # lowest interval
        self.log_i0 = float(self._nodes(np.array([-np.inf]))[0])
        self.values = np.empty(0)  # nodes first - 3, first - 2, ...
        self.coef = np.empty((_STENCIL.size, 0))  # by power; intervals first, first + 1, ...

    def log_i(self, log_tau: np.ndarray) -> np.ndarray:
        """log I_e at each log tau, elementwise."""
        p = np.maximum(log_tau, _LOG_TAU_MIN) / self.rule.tau_step
        j = np.floor(p)
        t = p - j
        coef = self._intervals(int(j.max()) - self.first + 1)
        interval = j.astype(np.intp) - self.first
        value = coef[-1].take(interval)
        for power in coef[-2::-1]:
            value = value * t + power.take(interval)
        return np.where(log_tau < _LOG_TAU_MIN, self.log_i0, value)

    def _intervals(self, n: int) -> np.ndarray:
        """(powers, intervals) coefficients of at least the n lowest intervals."""
        have = self.coef.shape[1]
        if have >= n:
            return self.coef
        n = -(-n // 64) * 64  # grown 64 intervals at a time
        first_node = self.first + _STENCIL[0]
        new = first_node + np.arange(len(self.values), n + _STENCIL.size - 1)
        self.values = np.concatenate([self.values, self._nodes(new * self.rule.tau_step)])
        # the values at each new interval's stencil, less its left end's
        around = self.values[np.arange(have, n)[:, None] + (_STENCIL - _STENCIL[0])]
        left = around[:, -_STENCIL[0]]
        diff = around - left[:, None]
        coef = np.empty((_STENCIL.size, n - have))
        coef[0] = left
        for power, row in enumerate(_lagrange_matrix()[1:], start=1):
            total = row[0] * diff[:, 0]
            for m in range(1, _STENCIL.size):
                total = total + row[m] * diff[:, m]
            coef[power] = total
        self.coef = np.concatenate([self.coef, coef], axis=1)
        return self.coef

    def _nodes(self, log_tau: np.ndarray) -> np.ndarray:
        """log I_e at each log tau, by the trapezoid rule on its own window."""
        c, rule = self.c, self.rule
        lo = math.log(self.beta) - rule.g_below
        # I_e(tau)'s integrand in u = log g peaks before log(tau / c) and
        # decays at least like e^-u beyond it
        hi = np.maximum(math.log(2.0 * self.beta), log_tau - math.log(c)) + rule.g_above
        count = (np.ceil((hi - lo) / self.step) + 1).astype(int)
        u, log_w = _log_g_grid(self.beta, self.step, rule, count.max())
        shrink = 1.0 / (1.0 + c * np.exp(u))
        log_node = log_w + 0.5 * self.df * np.log(shrink)
        tau = np.exp(log_tau)
        out = np.empty(log_tau.size)
        for n in np.unique(count):
            which = np.flatnonzero(count == n)
            for part in np.array_split(which, -(-which.size * n // _NODE_VALUES)):
                x = np.multiply(tau[part, None], shrink[:n])
                out[part] = _logsumexp(np.subtract(log_node[:n], x, out=x), out=x)
        return out


@lru_cache(maxsize=_LATTICES)
def _lattice(c: float, df: float, beta: float, step: float, rule: _Rule) -> _Lattice:
    """The lattice of log I_e for c_e, df_e, the prior's beta and the rule."""
    return _Lattice(c, df, beta, step, rule)


@lru_cache(maxsize=1)
def _lagrange_matrix() -> np.ndarray:
    """Row p: the coefficients of t^p in the Lagrange basis of ``_STENCIL``.

    The basis polynomial of node m is prod_{i != m} (t - i) / (m - i).  The
    product of integer roots is expanded exactly in Python ints and divided
    once, so each entry rounds once.
    """
    stencil = _STENCIL.tolist()
    columns = []
    for m in stencil:
        coef, denominator = [1], 1  # by power, lowest first
        for i in stencil:
            if i != m:  # times (t - i)
                coef = [low - i * high for low, high in zip([0, *coef], [*coef, 0])]
                denominator *= m - i
        columns.append([c / denominator for c in coef])
    return np.array(columns).T


def _logsumexp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log sum exp over the last axis; ``out`` may be x itself, which it overwrites."""
    # the max is exact in any order, and reduceat over the flattened rows is
    # about three times faster than np.max along short rows
    width = x.shape[-1]
    top = np.maximum.reduceat(x.reshape(-1), np.arange(0, x.size, width)).reshape(x.shape[:-1])
    shifted = np.subtract(x, top[..., None], out=out)
    return top + np.log(np.sum(np.exp(shifted, out=shifted), axis=-1))
