"""Bayes factors from ANOVA and t-test summary statistics.

The Bayes factor for the null against the alternative is approximated from
the BIC difference of the two models.  Written in terms of a reported F
statistic the approximation is

    log BF01 = (df1/2) * ln(n) - (n/2) * ln(1 + f * df1 / df2)

where ``n`` is the number of observations that entered the analysis.  A t
statistic enters through F = t**2 with df1 = 1.  Equivalent routes accept
the BIC difference itself, the residual sums of squares of the two models,
or partial eta squared.

All arithmetic stays in natural-log space.  The radical form
``sqrt(n**df1 * (1 + f*df1/df2)**-n)`` overflows for routine inputs
(already at n = 300, df1 = 2) and is never evaluated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "SummaryStat",
    "BayesFactorValue",
    "EvidenceClass",
    "bf01_from_f",
    "bf01_from_t",
    "bf01_from_stat",
    "delta_bic_10",
    "bf01_from_delta_bic",
    "bf01_from_partial_eta_sq",
    "classify",
    "invert",
]

_DIRECTIONS = ("01", "10")

# Raftery-style category bounds on |log BF|, inclusive on the right.
_CATEGORY_BOUNDS = (
    (math.log(3.0), "weak"),
    (math.log(20.0), "positive"),
    (math.log(150.0), "strong"),
)


def _exp(log_value: float) -> float:
    """exp(log_value), saturating to inf where the double overflows."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SummaryStat:
    """A reported test statistic with its degrees of freedom.

    ``n`` may be None when the source text did not state a sample size; it
    must be filled in before a Bayes factor can be computed.  ``p_reported``
    is carried for provenance only and never enters any computation.  For a
    t statistic ``df1`` is absent (or 1): it enters as F = t**2 with df1 = 1.
    Construction is the one validation of a reported statistic, whichever
    route (``bf01_from_f``, ``bf01_from_t``, parsed text, CLI flags) built it.
    """

    kind: str  # "F" or "t"
    statistic: float
    df1: int | None
    df2: int
    n: int | None = None
    p_reported: float | None = None

    def __post_init__(self):
        if self.kind == "F":
            if not math.isfinite(self.statistic) or self.statistic < 0:
                raise DomainError(f"f must be finite and nonnegative, got {self.statistic}")
            if self.df1 is None or self.df1 < 1:
                raise DomainError(f"df1 must be a positive integer, got {self.df1}")
        elif self.kind == "t":
            if not math.isfinite(self.statistic):
                raise DomainError(f"t must be finite, got {self.statistic}")
            if self.df1 not in (None, 1):
                raise DomainError("a t statistic carries no df1 (it is fixed to 1 on conversion)")
        else:
            raise DomainError(f"kind must be 'F' or 't', got {self.kind!r}")
        if self.df2 < 1:
            raise DomainError(f"df2 must be a positive integer, got {self.df2}")
        if self.n is not None and self.n < 2:
            raise DomainError(f"n must be at least 2, got {self.n}")
        for name in ("df1", "df2", "n"):
            count = getattr(self, name)
            if count is not None and count > sys.float_info.max:  # exact for an int
                raise DomainError(f"{name} must be at most {sys.float_info.max:.6g}")
        if self.p_reported is not None and not 0.0 <= self.p_reported <= 1.0:
            raise DomainError(f"p_reported must lie in [0, 1], got {self.p_reported}")


@dataclass(frozen=True)
class BayesFactorValue:
    """A Bayes factor held in natural-log space with an explicit direction.

    ``direction`` "01" means the stored value is BF01 (evidence for the null
    over the alternative); "10" is the reciprocal orientation.
    """

    log_bf: float
    direction: str

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise DomainError(f"direction must be '01' or '10', got {self.direction!r}")
        if not math.isfinite(self.log_bf):
            raise DomainError("log_bf must be finite")

    @property
    def bf(self) -> float:
        """The Bayes factor on the natural scale (inf if exp overflows)."""
        return _exp(self.log_bf)

    def in_direction(self, direction: str) -> "BayesFactorValue":
        """The same evidence expressed in the requested direction."""
        if direction not in _DIRECTIONS:
            raise DomainError(f"direction must be '01' or '10', got {direction!r}")
        if direction == self.direction:
            return BayesFactorValue(self.log_bf, self.direction)
        return invert(self)


@dataclass(frozen=True)
class EvidenceClass:
    """Folded evidence label: which hypothesis is favored and how strongly."""

    favored: str  # "H0" or "H1"
    category: str  # "weak" | "positive" | "strong" | "very strong"
    bf_in_favored_direction: float


def bf01_from_f(f: float, df1: int, df2: int, n: int) -> BayesFactorValue:
    """BF01 for a reported F(df1, df2) = f from n observations (see bf01_from_stat)."""
    return bf01_from_stat(SummaryStat("F", f, df1, df2, n))


def bf01_from_t(t: float, df2: int, n: int) -> BayesFactorValue:
    """BF01 for a reported t statistic; identical to an F test with F = t**2."""
    return bf01_from_stat(SummaryStat("t", t, None, df2, n))


def bf01_from_stat(stat: SummaryStat) -> BayesFactorValue:
    """BF01 for a summary statistic; requires ``stat.n``.

    Returns a direction-01 value with
    log_bf = (df1/2)*ln(n) - (n/2)*ln(1 + F*df1/df2), where a t enters as
    F = t**2 with df1 = 1.  Where F*df1/df2 overflows a double, the log term
    is taken as ln F + ln df1 - ln df2 + log1p(df2/(df1*F)), with
    ln F = 2 ln|t| for a t, so every finite statistic has a finite log BF.
    """
    if stat.n is None:
        raise DomainError("no sample size: supply n before computing a Bayes factor")
    s, df1, df2 = stat.statistic, stat.df1 or 1, stat.df2
    is_t = stat.kind == "t"
    ratio = (s * s if is_t else s) * df1 / df2
    if math.isfinite(ratio):
        log1p_ratio = math.log1p(ratio)
    else:  # ln(1 + R) = ln R + log1p(1/R), with R = F*df1/df2 taken apart
        log_f = 2.0 * math.log(abs(s)) if is_t else math.log(s)
        inv_ratio = df2 / df1 / s / s if is_t else df2 / df1 / s
        log1p_ratio = log_f + math.log(df1) - math.log(df2) + math.log1p(inv_ratio)
        # R is above every ratio the finite branch sees; rounding must not put
        # its log term below theirs, or log BF01 would rise with F
        log1p_ratio = max(log1p_ratio, math.log1p(sys.float_info.max / df2))
    return BayesFactorValue(0.5 * df1 * math.log(stat.n) - 0.5 * stat.n * log1p_ratio, "01")


def delta_bic_10(sse1: float, sse0: float, n: int, dk: int) -> float:
    """BIC difference of the alternative against the null model.

    ``sse1``/``sse0`` are the residual sums of squares under the alternative
    and null models; ``dk`` the number of extra parameters the alternative
    spends.  Returns n*ln(sse1/sse0) + dk*ln(n).
    """
    if not sse1 > 0:
        raise DomainError(f"sse1 must be positive, got {sse1}")
    if sse0 < sse1:
        raise DomainError(f"sse0 must be at least sse1, got sse0={sse0} < sse1={sse1}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if dk < 1:
        raise DomainError(f"dk must be at least 1, got {dk}")
    return n * math.log(sse1 / sse0) + dk * math.log(n)


def bf01_from_delta_bic(delta_bic_10: float) -> BayesFactorValue:
    """BF01 = exp(delta_bic_10 / 2), held in log space."""
    if not math.isfinite(delta_bic_10):
        raise DomainError(f"delta_bic_10 must be finite, got {delta_bic_10}")
    return BayesFactorValue(0.5 * delta_bic_10, "01")


def bf01_from_partial_eta_sq(eta_p2: float, n: int, df1: int) -> BayesFactorValue:
    """BF01 from partial eta squared, using SSE1/SSE0 = 1 - eta_p2."""
    if not 0.0 <= eta_p2 < 1.0:
        raise DomainError(f"eta_p2 must lie in [0, 1), got {eta_p2}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if df1 < 1:
        raise DomainError(f"df1 must be at least 1, got {df1}")
    log_bf = 0.5 * (n * math.log1p(-eta_p2) + df1 * math.log(n))
    return BayesFactorValue(log_bf, "01")


def classify(bf: BayesFactorValue) -> EvidenceClass:
    """Fold ``bf`` so the favored hypothesis has BF >= 1, then categorize.

    Boundaries on the folded scale: (1,3] weak, (3,20] positive, (20,150]
    strong, above 150 very strong.  BF exactly 1 reports weak evidence for
    H0 by convention.
    """
    magnitude = abs(bf.log_bf)
    if bf.log_bf == 0.0:
        favored = "H0"
    else:
        toward_numerator = bf.log_bf > 0
        numerator_is_h0 = bf.direction == "01"
        favored = "H0" if toward_numerator == numerator_is_h0 else "H1"
    for bound, name in _CATEGORY_BOUNDS:
        if magnitude <= bound:
            category = name
            break
    else:
        category = "very strong"
    return EvidenceClass(favored, category, _exp(magnitude))


def invert(bf: BayesFactorValue) -> BayesFactorValue:
    """The reciprocal Bayes factor: negated log, flipped direction."""
    flipped = "10" if bf.direction == "01" else "01"
    return BayesFactorValue(-bf.log_bf, flipped)
