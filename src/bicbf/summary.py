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
import operator
import sys

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
_MOST = sys.float_info.max  # the largest count the summary routes take

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


class _Value:
    """Base of the frozen value types: fields in ``__slots__``, set once.

    A subclass lists its own fields in ``__slots__``, after those of its
    bases, and its ``__init__`` validates them and sets them with ``_set``.
    Instances compare equal by type and fields, hash, repr and pickle as a
    frozen dataclass would, and refuse assignment and deletion.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())
        cls.__match_args__ = cls._fields

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated as a new value."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _count(name: str, value, least: int, most: float = math.inf) -> int:
    """``value`` as an int: an integer (numpy's too) other than a bool, of at
    least ``least`` and at most ``most``; else a DomainError naming ``name``.

    The one rule for a count the package takes from outside.  The summary
    routes pass ``most = _MOST``: a larger count cannot enter the float
    arithmetic.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if count < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise DomainError(f"{name} must be {bound}, got {count}")
    if count > most:  # exact for an int
        raise DomainError(f"{name} must be at most {most:.6g}")
    return count


def _real(name: str, value) -> float:
    """``value`` as a float: a real number, what ``math.isfinite`` takes (an
    int, a float, a numpy integer or floating scalar, a Decimal, a
    Fraction), other than a bool (numpy's too); else a DomainError naming
    ``name``.

    The one rule for a real number the package takes from outside.  NaN
    and the infinities pass: each site checks finiteness and range itself.
    A finite value beyond the double range is refused.
    """
    real = None
    # a numpy value must be of an integer or floating dtype: not a bool, not a complex
    if not isinstance(value, bool) and getattr(getattr(value, "dtype", None), "kind", "f") in "iuf":
        try:
            math.isfinite(value)  # refuses a str, None or a complex
            real = float(value)
        except (TypeError, ValueError):  # ValueError: a signalling Decimal NaN
            pass
        except OverflowError:  # an int or a Fraction beyond the double range
            real = math.inf
    if real is None:
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if math.isinf(real) and value != real:  # a Decimal or long double rounds to inf
        raise DomainError(f"{name} must be at most {sys.float_info.max:.6g} in magnitude")
    return real


class SummaryStat(_Value):
    """A reported test statistic with its degrees of freedom.

    ``n`` may be None when the source text did not state a sample size; it
    must be filled in before a Bayes factor can be computed.  ``p_reported``
    is carried for provenance only and never enters any computation.  For a
    t statistic ``df1`` is absent (or 1): it enters as F = t**2 with df1 = 1.
    Construction is the one validation of a reported statistic, whichever
    route (``bf01_from_f``, ``bf01_from_t``, parsed text, CLI flags) built it:
    the statistic and ``p_reported`` must be real numbers (``_real``: numpy
    scalars, Decimals and Fractions too), kept as floats, and the counts
    integers (``_count``), kept as ints; none may be a bool.  So a stat
    renders as text that parses back to it, whatever types built it.
    """

    __slots__ = ("kind", "statistic", "df1", "df2", "n", "p_reported")

    def __init__(self, kind: str, statistic: float, df1: int | None, df2: int,
                 n: int | None = None, p_reported: float | None = None):
        if kind not in ("F", "t"):
            raise DomainError(f"kind must be 'F' or 't', got {kind!r}")
        statistic = _real(kind.lower(), statistic)
        if kind == "F" and not (math.isfinite(statistic) and statistic >= 0):
            raise DomainError(f"f must be finite and nonnegative, got {statistic}")
        if not math.isfinite(statistic):
            raise DomainError(f"t must be finite, got {statistic}")
        if kind == "F" or df1 is not None:
            df1 = _count("df1", df1, 1, _MOST)
        if kind == "t" and df1 not in (None, 1):
            raise DomainError("a t statistic carries no df1 (it is fixed to 1 on conversion)")
        df2 = _count("df2", df2, 1, _MOST)
        if n is not None:
            n = _count("n", n, 2, _MOST)
        if p_reported is not None:
            p_reported = _real("p_reported", p_reported)
            if not 0.0 <= p_reported <= 1.0:
                raise DomainError(f"p_reported must lie in [0, 1], got {p_reported}")
        self._set(kind=kind, statistic=statistic, df1=df1, df2=df2, n=n,
                  p_reported=p_reported)


class BayesFactorValue(_Value):
    """A Bayes factor held in natural-log space with an explicit direction.

    ``direction`` "01" means the stored value is BF01 (evidence for the null
    over the alternative); "10" is the reciprocal orientation.
    """

    __slots__ = ("log_bf", "direction")

    def __init__(self, log_bf: float, direction: str):
        if direction not in _DIRECTIONS:
            raise DomainError(f"direction must be '01' or '10', got {direction!r}")
        log_bf = _real("log_bf", log_bf)
        if not math.isfinite(log_bf):
            raise DomainError("log_bf must be finite")
        self._set(log_bf=log_bf, direction=direction)

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


class EvidenceClass(_Value):
    """Folded evidence label: which hypothesis is favored and how strongly.

    ``favored`` is "H0" or "H1"; ``category`` one of "weak", "positive",
    "strong" and "very strong".
    """

    __slots__ = ("favored", "category", "bf_in_favored_direction")

    def __init__(self, favored: str, category: str, bf_in_favored_direction: float):
        self._set(favored=favored, category=category,
                  bf_in_favored_direction=bf_in_favored_direction)


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
    return BayesFactorValue(_bic_log_bf01(df1, stat.n, log1p_ratio), "01")


def _bic_log_bf01(df1: int, n: int, log1p_ratio):
    """log BF01 = (df1/2) ln(n) - (n/2) ln(1 + F*df1/df2), given that last log.

    The same operations on a float or on each element of an array.
    """
    return 0.5 * df1 * math.log(n) - 0.5 * n * log1p_ratio


def delta_bic_10(sse1: float, sse0: float, n: int, dk: int) -> float:
    """BIC difference of the alternative against the null model.

    ``sse1``/``sse0`` are the residual sums of squares under the alternative
    and null models; ``dk`` the number of extra parameters the alternative
    spends.  Returns n*ln(sse1/sse0) + dk*ln(n); where sse1/sse0 underflows
    a normal double, ln(sse1/sse0) is taken as ln sse1 - ln sse0.  Raises
    DomainError where the difference itself leaves the double range.
    """
    sse1, sse0 = _real("sse1", sse1), _real("sse0", sse0)
    for name, sse in (("sse1", sse1), ("sse0", sse0)):
        if not math.isfinite(sse):
            raise DomainError(f"{name} must be finite, got {sse}")
    if not sse1 > 0:
        raise DomainError(f"sse1 must be positive, got {sse1}")
    if sse0 < sse1:
        raise DomainError(f"sse0 must be at least sse1, got sse0={sse0} < sse1={sse1}")
    n, dk = _count("n", n, 2, _MOST), _count("dk", dk, 1, _MOST)
    ratio = sse1 / sse0
    if ratio >= sys.float_info.min:
        log_ratio = math.log(ratio)
    else:
        log_ratio = math.log(sse1) - math.log(sse0)
    delta = n * log_ratio + dk * math.log(n)
    if not math.isfinite(delta):
        raise DomainError("the BIC difference lies outside the double range")
    return delta


def bf01_from_delta_bic(delta_bic_10: float) -> BayesFactorValue:
    """BF01 = exp(delta_bic_10 / 2), held in log space."""
    delta_bic_10 = _real("delta_bic_10", delta_bic_10)
    if not math.isfinite(delta_bic_10):
        raise DomainError(f"delta_bic_10 must be finite, got {delta_bic_10}")
    return BayesFactorValue(0.5 * delta_bic_10, "01")


def bf01_from_partial_eta_sq(eta_p2: float, n: int, df1: int) -> BayesFactorValue:
    """BF01 from partial eta squared, using SSE1/SSE0 = 1 - eta_p2."""
    eta_p2 = _real("eta_p2", eta_p2)
    if not 0.0 <= eta_p2 < 1.0:
        raise DomainError(f"eta_p2 must lie in [0, 1), got {eta_p2}")
    n, df1 = _count("n", n, 2, _MOST), _count("df1", df1, 1, _MOST)
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
