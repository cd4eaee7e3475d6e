"""Parse reported test statistics like "F(1,17)=2.584, p=0.126" or "t(71)=2.0".

Grammar (case-insensitive, whitespace-tolerant):

    F(<df1>,<df2>)=<value>[, p<cmp><value>][, n=<value>]
    t(<df2>)=<value>[, p<cmp><value>][, n=<value>]

with <cmp> one of ``=``, ``<``, ``>``.  A p clause is recorded but never used
in any computation; its comparator survives only in the warning text.  The
sample size may come from the text or from the ``n`` argument, the argument
winning when both are present.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .summary import SummaryStat, _Value

__all__ = ["ParsedReport", "parse_stat", "render_stat"]

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

# Papers sometimes report corrected (fractional) dfs; corrections are out of
# scope, so a df that is not integral to this tolerance is rejected.
_DF_TOLERANCE = 1e-9


class ParsedReport(_Value):
    """A parsed statistic together with its source text and any warnings."""

    __slots__ = ("stat", "raw", "warnings")

    def __init__(self, stat: SummaryStat, raw: str, warnings: tuple[str, ...]):
        self._set(stat=stat, raw=raw, warnings=warnings)


class _Cursor:
    """Position-tracking scanner over the input text."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, literal: str) -> bool:
        """Consume ``literal`` (case-insensitively) if it comes next."""
        self.skip_ws()
        end = self.pos + len(literal)
        if self.text[self.pos:end].lower() == literal:
            self.pos = end
            return True
        return False

    def expect(self, literal: str, what: str) -> None:
        if not self.take(literal):
            raise ParseError(f"expected {what}", self.pos)

    def number(self, what: str) -> tuple[float, str]:
        """Read a numeric literal; returns (value, verbatim lexeme)."""
        self.skip_ws()
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            raise ParseError(f"expected {what}", self.pos)
        self.pos = match.end()
        return float(match.group()), match.group()

    def integer(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        value, lexeme = self.number(what)
        if value > sys.float_info.max:  # the lexeme read as inf
            raise ParseError(f"{what} must be at most {sys.float_info.max:.6g}", start)
        if abs(value - round(value)) > _DF_TOLERANCE:
            raise ParseError(f"{what} must be an integer, got {lexeme}", start)
        return int(round(value))


def parse_stat(text: str, n: int | None = None) -> ParsedReport:
    """Parse reported-statistic text into a SummaryStat.

    Raises ParseError (with the character position) for text outside the
    grammar and DomainError for values outside the statistic's domain, e.g.
    a negative F.  A report without a sample size parses fine but carries a
    warning; it cannot feed a Bayes factor until n is supplied.
    """
    cur = _Cursor(text)
    cur.skip_ws()
    if cur.pos >= len(text):
        raise ParseError("empty input", cur.pos)

    if cur.take("f"):
        kind = "F"
    elif cur.take("t"):
        kind = "t"
    else:
        raise ParseError("expected 'F' or 't'", cur.pos)
    cur.expect("(", "'('")
    if kind == "F":
        df1: int | None = cur.integer("df1")
        cur.expect(",", "',' between degrees of freedom")
    else:
        df1 = None
    df2 = cur.integer("df2" if kind == "F" else "df")
    cur.expect(")", "')'")
    cur.expect("=", "'='")
    statistic, _ = cur.number("statistic value")

    warnings: list[str] = []
    p_reported: float | None = None
    n_text: int | None = None
    if cur.take(","):
        if cur.take("p"):
            cur.skip_ws()
            if cur.pos < len(text) and text[cur.pos] in "=<>":
                cmp = text[cur.pos]
                cur.pos += 1
            else:
                raise ParseError("expected '=', '<', or '>' after p", cur.pos)
            p_reported, p_lexeme = cur.number("p value")
            warnings.append(
                f"p{cmp}{p_lexeme} noted but ignored: "
                "p-values do not enter the computation"
            )
            if cur.take(","):
                _expect_n_clause(cur)
                n_text = cur.integer("n")
        else:
            _expect_n_clause(cur)
            n_text = cur.integer("n")
    cur.skip_ws()
    if cur.pos < len(text):
        raise ParseError("unexpected trailing text", cur.pos)

    n_final = n_text
    if n is not None:
        if n_text is not None and n_text != int(n):
            warnings.append(f"n={n} argument overrides n={n_text} from text")
        n_final = int(n)
    if n_final is None:
        warnings.append("no sample size given: supply n before computing a Bayes factor")

    stat = SummaryStat(kind, statistic, df1, df2, n_final, p_reported)
    return ParsedReport(stat, text, tuple(warnings))


def _expect_n_clause(cur: _Cursor) -> None:
    if not cur.take("n"):
        raise ParseError("expected 'p' or 'n' clause after ','", cur.pos)
    cur.expect("=", "'=' after n")


def render_stat(stat: SummaryStat) -> str:
    """Canonical text for ``stat``; re-parsing it recovers the same stat.

    Floats are written with repr, which round-trips exactly.
    """
    if stat.kind == "F":
        head = f"F({stat.df1},{stat.df2})={stat.statistic!r}"
    else:
        head = f"t({stat.df2})={stat.statistic!r}"
    parts = [head]
    if stat.p_reported is not None:
        parts.append(f"p={stat.p_reported!r}")
    if stat.n is not None:
        parts.append(f"n={stat.n}")
    return ", ".join(parts)
