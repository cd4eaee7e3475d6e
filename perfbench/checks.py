"""Independent evaluations the benchmark checks the program's outputs against.

Nothing here calls the program's numerical code: every expected value is
recomputed from the inputs the benchmark generated, or from the raw dataset.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

EFFECTS = ("A", "B", "AB")
JSON_TOL = 1e-12  # json and csv print 17 significant digits
BIC_TOL = 1e-9  # sums of squares recomputed by another route
QUAD_Z_MAX = 5.0  # "a few standard errors" of the Monte Carlo oracle
QUAD_EXACT_TOL = 1e-6  # log BF agreement required of an oracle with no standard error
QUAD_NODES = 128

_CATEGORY_BOUNDS = ((math.log(3.0), "weak"), (math.log(20.0), "positive"),
                    (math.log(150.0), "strong"))
_PLAIN_BF = re.compile(r"^BF(01|10) = (\S+) \(log BF(01|10) = (\S+)\)$")
_PLAIN_EVIDENCE = re.compile(r"^evidence: (.+), favoring (H[01])$")


def log_bf01(stat) -> float:
    """(df1/2) ln n - (n/2) ln(1 + F df1/df2), a t entering as F = t^2."""
    value = float(stat.value)
    f, df1 = (value, stat.df1) if stat.kind == "F" else (value * value, 1)
    return 0.5 * df1 * math.log(stat.n) - 0.5 * stat.n * math.log1p(f * df1 / stat.df2)


def _category(magnitude: float) -> str:
    for bound, name in _CATEGORY_BOUNDS:
        if magnitude <= bound:
            return name
    return "very strong"


def evidence(log_bf: float, direction: str) -> tuple[str, set[str]]:
    """Favored hypothesis and the acceptable categories.

    Within 1e-9 of a category bound either neighbour is accepted, since the
    program may round the last bit differently.
    """
    if log_bf == 0.0:
        favored = "H0"
    else:
        favored = "H0" if (log_bf > 0) == (direction == "01") else "H1"
    magnitude = abs(log_bf)
    return favored, {_category(magnitude - 1e-9), _category(magnitude + 1e-9)}


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def close_sig4(printed: str, want: float) -> bool:
    """``printed`` is ``want`` to four significant digits."""
    got = float(printed)
    if want == 0.0 or not math.isfinite(want):
        return got == want
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 3)
    return abs(got - want) <= half_unit * (1 + 1e-9)


def check_bf_output(cmd, out: str) -> list[str]:
    want_log = log_bf01(cmd.stat) * (1 if cmd.direction == "01" else -1)
    want_bf = math.exp(want_log)
    favored, categories = evidence(want_log, cmd.direction)
    problems = []
    if cmd.fmt == "plain":
        lines = out.splitlines()
        head = _PLAIN_BF.match(lines[0]) if lines else None
        tail = _PLAIN_EVIDENCE.match(lines[1]) if len(lines) > 1 else None
        if head is None or tail is None or len(lines) != 2:
            return [f"unexpected plain output {out!r}"]
        got = {"direction": head.group(1), "favored": tail.group(2),
               "category": tail.group(1)}
        if head.group(3) != head.group(1):
            problems.append("log label direction differs")
        if not close_sig4(head.group(2), want_bf):
            problems.append(f"bf {head.group(2)} != {want_bf:.6g}")
        if not close_sig4(head.group(4), want_log):
            problems.append(f"log_bf {head.group(4)} != {want_log:.6g}")
    else:
        if cmd.fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
            if len(rows) != 1:
                return [f"expected one csv row, got {len(rows)}"]
            got = rows[0]
        else:
            got = json.loads(out)
        if not close(float(got["log_bf"]), want_log, JSON_TOL):
            problems.append(f"log_bf {got['log_bf']} != {want_log!r}")
        if not close(float(got["bf"]), want_bf, JSON_TOL * max(1.0, abs(want_log))):
            problems.append(f"bf {got['bf']} != {want_bf!r}")
    if got["direction"] != cmd.direction:
        problems.append(f"direction {got['direction']} != {cmd.direction}")
    if got["favored"] != favored:
        problems.append(f"favored {got['favored']} != {favored}")
    if got["category"] not in categories:
        problems.append(f"category {got['category']} not in {sorted(categories)}")
    return problems


def canonical(stat, n: int | None) -> str:
    value = float(stat.value)
    head = (f"F({stat.df1},{stat.df2})={value!r}" if stat.kind == "F"
            else f"t({stat.df2})={value!r}")
    parts = [head]
    if stat.p is not None:
        parts.append(f"p={float(stat.p)!r}")
    if n is not None:
        parts.append(f"n={n}")
    return ", ".join(parts)


def check_parse_output(cmd, out: str) -> list[str]:
    stat = cmd.stat
    n = stat.n if (stat.n_in_text or cmd.n_flag) else None
    want = {"kind": stat.kind, "statistic": float(stat.value), "df1": stat.df1,
            "df2": stat.df2, "n": n, "p_reported": None if stat.p is None else float(stat.p),
            "canonical": canonical(stat, n)}
    if cmd.fmt == "plain":
        fields, warnings = {}, []
        for line in out.splitlines():
            if line.startswith("warning: "):
                warnings.append(line)
            else:
                key, _, value = line.partition(" = ")
                fields[key] = value
        got = {k: _typed(k, fields.get(k), "None") for k in want}
        warnings = "\n".join(warnings)
    elif cmd.fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != 1:
            return [f"expected one csv row, got {len(rows)}"]
        got = {k: _typed(k, rows[0].get(k), "") for k in want}
        warnings = rows[0]["warnings"]
    else:
        obj = json.loads(out)
        got = {k: obj.get(k) for k in want}
        warnings = "\n".join(obj["warnings"])
    problems = [f"{k} {got[k]!r} != {want[k]!r}" for k in want if got[k] != want[k]]
    for phrase, expected in (("noted but ignored", stat.p is not None),
                             ("no sample size", n is None)):
        if warnings.count(phrase) != expected:
            problems.append(f"warning {phrase!r} seen {warnings.count(phrase)} times")
    return problems


def _typed(key: str, text: str | None, none: str):
    if text is None or text == none:
        return None
    if key in ("statistic", "p_reported"):
        return float(text)
    if key in ("df1", "df2", "n"):
        return int(text)
    return text


def check_command(cmd, out: str) -> list[str]:
    try:
        if cmd.route == "parse":
            return check_parse_output(cmd, out)
        return check_bf_output(cmd, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output {out!r}: {exc!r}"]


# --- simulation study ------------------------------------------------------


def sums_of_squares(y) -> dict:
    """Two-way sums of squares from raw totals (the computational formulas)."""
    a, b, n = y.shape
    total_n = a * b * n
    correction = float(y.sum()) ** 2 / total_n
    cells = y.sum(axis=2)
    ss_cells = float((cells**2).sum()) / n - correction
    ss = {"A": float((y.sum(axis=(1, 2)) ** 2).sum()) / (b * n) - correction,
          "B": float((y.sum(axis=(0, 2)) ** 2).sum()) / (a * n) - correction}
    ss["AB"] = ss_cells - ss["A"] - ss["B"]
    ss["total"] = float((y**2).sum()) - correction
    ss["error"] = ss["total"] - ss_cells
    return ss


def bic_log_bf10(ss: dict, effect: str, total_n: int, df: int) -> float:
    """log BF10 = (N/2) ln(1 + SS_e/SSE) - (df_e/2) ln N."""
    return 0.5 * total_n * math.log1p(ss[effect] / ss["error"]) - 0.5 * df * math.log(total_n)


def results_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))[1:]


def check_results_bic(rows, datasets) -> list[str]:
    """Row i must be (trial, effect) number i, with the recomputed BIC value.

    ``datasets`` yields the raw y array of each trial in order.
    """
    problems = []
    checked = 0
    for trial, y in enumerate(datasets):
        checked += 1
        a, b, n = y.shape
        ss = sums_of_squares(y)
        dfs = {"A": a - 1, "B": b - 1, "AB": (a - 1) * (b - 1)}
        for k, effect in enumerate(EFFECTS):
            index = 3 * trial + k
            if index >= len(rows):
                problems.append(f"results file ends before trial {trial}")
                return problems
            row = rows[index]
            want = bic_log_bf10(ss, effect, a * b * n, dfs[effect])
            if (row[0], row[1]) != (str(trial), effect):
                problems.append(f"row {index + 2} is ({row[0]},{row[1]}), "
                                f"expected ({trial},{effect})")
            elif not close(float(row[2]), want, BIC_TOL):
                problems.append(f"trial {trial} {effect}: BIC {row[2]} != {want!r}")
    if len(rows) != 3 * checked:
        problems.append(f"{len(rows)} rows for {checked} trials")
    return problems


def quad_log_bf10_a(y, scale: float, c_factor: int | None = None) -> float:
    """log BF10 of effect A (one contrast, a = 2) by Gauss-Legendre over log g.

    Conditional on g, log BF10(g) = -1/2 log(1 + c g)
    + ((N-1)/2) log(SST / (SST - SS_A c g/(1 + c g))) with c = b * cell_n,
    and g ~ Inverse-Gamma(1/2, r^2/2).  ``c_factor`` replaces b in c; the
    self-test uses it to build a wrong reference.
    """
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    a, b, n = y.shape
    total_n = a * b * n
    ss = sums_of_squares(y)
    c = (b if c_factor is None else c_factor) * n
    beta = 0.5 * scale * scale
    lo, hi = math.log(beta) - 12.0, math.log(beta) + 40.0
    nodes, weights = leggauss(QUAD_NODES)
    u = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    g = np.exp(u)
    # density of u = log g: beta^(1/2) / sqrt(pi) * g^(-1/2) * exp(-beta / g)
    log_prior = 0.5 * math.log(beta / math.pi) - 0.5 * u - beta / g
    shrink = c * g / (1.0 + c * g)
    log_cond = (-0.5 * (a - 1) * np.log1p(c * g)
                + 0.5 * (total_n - 1) * np.log(ss["total"] / (ss["total"] - ss["A"] * shrink)))
    terms = log_prior + log_cond + np.log(0.5 * (hi - lo) * weights)
    top = float(terms.max())
    return top + math.log(float(np.exp(terms - top).sum()))


def five_number(values) -> tuple:
    import numpy as np

    return tuple(float(v) for v in np.percentile(np.asarray(values), [0, 25, 50, 75, 100]))


def check_summaries(records, summaries) -> list[str]:
    """Five-number summaries and consistency recomputed from the records."""
    problems = []
    for effect in EFFECTS:
        group = [r for r in records if r.effect == effect]
        s = summaries.get(effect)
        if s is None:
            problems.append(f"no summary for {effect}")
            continue
        agree = sum(r.decision_bic == r.decision_default for r in group) / len(group)
        want_bic = five_number([r.log_bf10_bic for r in group])
        want_default = five_number([r.log_bf10_default for r in group])
        if s.n_trials != len(group) or s.consistency != agree:
            problems.append(f"{effect}: n_trials/consistency differ")
        for got, want in ((s.bic.as_tuple(), want_bic), (s.default.as_tuple(), want_default)):
            if not all(close(x, w, JSON_TOL) for x, w in zip(got, want)):
                problems.append(f"{effect}: five-number summary {got} != {want}")
    return problems


def check_density(data: bytes, grid_points: int = 512) -> list[str]:
    """Six series of ``grid_points`` rows, each integrating to about 1."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["effect", "bf_type", "x", "density"]:
        return [f"density header {rows[0]}"]
    series: dict = {}
    for effect, bf_type, x, d in rows[1:]:
        series.setdefault((effect, bf_type), []).append((float(x), float(d)))
    problems = []
    if len(series) != 6:
        problems.append(f"{len(series)} density series, expected 6")
    for key, points in series.items():
        if len(points) != grid_points:
            problems.append(f"{key}: {len(points)} grid points")
            continue
        area = sum(0.5 * (d0 + d1) * (x1 - x0)
                   for (x0, d0), (x1, d1) in zip(points, points[1:]))
        if not 0.99 <= area <= 1.001:
            problems.append(f"{key}: density integrates to {area:.5f}")
    return problems
