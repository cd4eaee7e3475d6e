"""Command-line interface.

Subcommands:

    bf        Bayes factor from a reported statistic (flags or quoted text)
    parse     parse reported-statistic text and show the fields
    simulate  run the simulation study and write a results file
    report    summarize a results file or emit density data

Output formats are plain (human-readable), csv, and json, selected with
``--format`` or the BICBF_FORMAT environment variable; all three carry the
same numbers.  A csv float is written as its repr, the shortest text that
reads back to the same double, so csv and json show the same digits; None
is an empty cell.  A non-finite value is ``inf`` in plain and csv output and
``null`` in json.  Results and density files are not this output: they keep
17 significant digits.  Exit codes: 0 success, 1 domain or runtime error,
2 usage error.  A reader that closes the output early (``| head -1``) ends
the command with 1 and no message.  A number flag only reads an int or a
float, so text that is not one is a usage error; the package rule of the
flag's field refuses a value out of range, a domain error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from collections.abc import Sequence

from .errors import BicbfError
from .parsing import parse_stat, render_stat
from .summary import SummaryStat, bf01_from_stat, classify

FORMATS = ("plain", "csv", "json")

FORMAT_ENV_VAR = "BICBF_FORMAT"


class _UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit code 2."""


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself: 2 on usage, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early is met here, not at exit
        return code
    except BrokenPipeError:  # the reader closed the output early: `| head -1`
        _drop_stdout()
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BicbfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def _drop_stdout() -> None:
    """Point standard output at the null device, so what is left in its
    buffer goes there at exit, not into the closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file: nothing is flushed to it
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


class _Parser(argparse.ArgumentParser):
    """Reads "-1e200" and "-1e-3" as negative numbers, not as unknown options.

    The pattern argparse itself uses on Python 3.10 and 3.11 knows only the
    -1 and -1.5 forms.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bicbf",
        description="Approximate Bayes factors from ANOVA and t-test summaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bf = sub.add_parser("bf", help="Bayes factor from a reported statistic")
    p_bf.add_argument("stat", nargs="?", help='statistic text, e.g. "F(1,17)=2.584"')
    p_bf.add_argument("--f", type=float, help="F statistic (needs --df1, --df2, --n)")
    p_bf.add_argument("--t", type=float, help="t statistic (needs --df2, --n)")
    p_bf.add_argument("--df1", type=int, help="numerator degrees of freedom")
    p_bf.add_argument("--df2", type=int, help="denominator degrees of freedom")
    p_bf.add_argument("--n", type=int, help="number of observations")
    p_bf.add_argument("--direction", choices=("01", "10"), default="01",
                      help="report BF01 (default) or BF10")
    _add_format_flag(p_bf)
    p_bf.set_defaults(func=cmd_bf)

    p_parse = sub.add_parser("parse", help="parse reported-statistic text")
    p_parse.add_argument("stat", help='statistic text, e.g. "t(71)=2.0, n=73"')
    p_parse.add_argument("--n", type=int, help="sample size override")
    _add_format_flag(p_parse)
    p_parse.set_defaults(func=cmd_parse)

    p_sim = sub.add_parser("simulate", help="run the simulation study")
    p_sim.add_argument("--config", help="config file; flags override its values")
    p_sim.add_argument("--cell-n", type=int, help="observations per cell")
    p_sim.add_argument("--g", type=float, help="effect variance")
    p_sim.add_argument("--trials", type=int, help="number of trials")
    p_sim.add_argument("--seed", type=int, help="data-generating seed")
    p_sim.add_argument("--a-levels", type=int, help="levels of factor A (default 2)")
    p_sim.add_argument("--b-levels", type=int, help="levels of factor B (default 3)")
    p_sim.add_argument("--prior-scale", type=float,
                       help="g-prior scale r (default sqrt(2)/2)")
    p_sim.add_argument("--out", required=True, help="results file to write")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="summarize a results file")
    p_rep.add_argument("results", help="results file from `bicbf simulate`")
    p_rep.add_argument("--table", action="store_true",
                       help="print five-number summaries and consistency (default)")
    p_rep.add_argument("--density", action="store_true",
                       help="write kernel density series (needs --out)")
    p_rep.add_argument("--out", help="output path for --density")
    p_rep.add_argument("--bandwidth", type=float,
                       help="kernel bandwidth (default: Silverman's rule)")
    _add_format_flag(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help=f"output format (default: ${FORMAT_ENV_VAR} or plain)")


def _resolve_format(args) -> str:
    fmt = args.format or os.environ.get(FORMAT_ENV_VAR) or "plain"
    if fmt not in FORMATS:
        raise _UsageError(
            f"unknown output format {fmt!r} (from ${FORMAT_ENV_VAR}); choose from {FORMATS}"
        )
    return fmt


def _sig4(value: float) -> str:
    return "%.4g" % value


def cmd_bf(args) -> int:
    fmt = _resolve_format(args)
    warnings: tuple[str, ...] = ()
    if args.stat is not None:
        if args.f is not None or args.t is not None:
            raise _UsageError("give a statistic string or --f/--t flags, not both")
        given = [flag for flag in ("df1", "df2") if getattr(args, flag) is not None]
        if given:
            flags = "/".join("--" + flag for flag in given)
            raise _UsageError(f"the statistic string gives the degrees of freedom; drop {flags}")
        report = parse_stat(args.stat, n=args.n)
        stat, warnings = report.stat, report.warnings
    elif args.f is not None:
        if args.t is not None:
            raise _UsageError("--f and --t are mutually exclusive")
        if args.df1 is None or args.df2 is None or args.n is None:
            raise _UsageError("--f needs --df1, --df2, and --n")
        stat = SummaryStat("F", args.f, args.df1, args.df2, args.n)
    elif args.t is not None:
        if args.df1 is not None and args.df1 != 1:
            raise _UsageError("--t fixes df1 to 1; drop --df1")
        if args.df2 is None or args.n is None:
            raise _UsageError("--t needs --df2 and --n")
        stat = SummaryStat("t", args.t, None, args.df2, args.n)
    else:
        raise _UsageError("give a statistic string or --f/--t flags")

    value = bf01_from_stat(stat).in_direction(args.direction)
    evidence = classify(value)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    label = f"BF{value.direction}"
    fields = {"direction": value.direction, "bf": value.bf, "log_bf": value.log_bf,
              "favored": evidence.favored, "category": evidence.category}
    _emit(fmt, fields, [f"{label} = {_sig4(value.bf)} (log {label} = {_sig4(value.log_bf)})",
                        f"evidence: {evidence.category}, favoring {evidence.favored}"])
    return 0


def cmd_parse(args) -> int:
    fmt = _resolve_format(args)
    report = parse_stat(args.stat, n=args.n)
    stat = report.stat
    fields = {
        "kind": stat.kind,
        "statistic": stat.statistic,
        "df1": stat.df1,
        "df2": stat.df2,
        "n": stat.n,
        "p_reported": stat.p_reported,
        "canonical": render_stat(stat),
        "warnings": list(report.warnings),
    }
    plain = [f"{key} = {value}" for key, value in fields.items() if key != "warnings"]
    _emit(fmt, fields, plain + [f"warning: {warning}" for warning in report.warnings])
    return 0


def cmd_simulate(args) -> int:
    from dataclasses import MISSING, fields, replace

    # the config is built and checked without numpy; bicbf.simulate loads to run it
    from .config import GPriorSpec, SimulationConfig, read_config

    def given(**flags):
        return {name: value for name, value in flags.items() if value is not None}

    settings = given(cell_n=args.cell_n, g=args.g, trials=args.trials, seed=args.seed,
                     a_levels=args.a_levels, b_levels=args.b_levels)
    oracle_settings = given(scale=args.prior_scale)
    if args.config:
        base = read_config(args.config)
        config = replace(base, **settings, oracle=replace(base.oracle, **oracle_settings))
    else:
        for f in fields(SimulationConfig):
            if f.default is MISSING and f.name not in settings:
                flag = "--" + f.name.replace("_", "-")
                raise _UsageError(f"missing {flag} (give the flag or a --config file)")
        config = SimulationConfig(**settings, oracle=GPriorSpec(**oracle_settings))

    from .simulate import run_simulation, write_records

    start = time.perf_counter()
    step = max(1, config.trials // 20)
    # a carriage return redraws a terminal line but piles up in a log file
    live = sys.stderr.isatty()

    def progress(done: int, total: int) -> None:
        if done == total or done % step == 0:
            print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)

    records = run_simulation(config, progress=progress if live else None)
    if live:
        print(file=sys.stderr)
    write_records(records, args.out)
    elapsed = time.perf_counter() - start
    print(f"wrote {args.out} ({len(records)} rows) in {elapsed:.1f} s", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    from .simulate import (_bandwidth, emit_density_data, read_records, summarize,
                           write_density_data)

    if args.density and not args.out:
        raise _UsageError("--density needs --out")
    if not args.density and (args.out is not None or args.bandwidth is not None):
        raise _UsageError("--out and --bandwidth need --density")
    fmt = _resolve_format(args)
    if args.bandwidth is not None:
        _bandwidth(args.bandwidth)  # refused before the results file is read
    records = read_records(args.results)

    wrote_density = False
    if args.density:
        series = emit_density_data(records, bandwidth=args.bandwidth)
        write_density_data(series, args.out)
        print(f"wrote {args.out} ({len(series)} series)", file=sys.stderr)
        wrote_density = True

    if args.table or not wrote_density:
        five_keys = ("min", "q1", "median", "q3", "max")
        rows = [
            {"effect": effect, "bf_type": bf_type, "n_trials": summary.n_trials,
             **dict(zip(five_keys, five.as_tuple())), "consistency": summary.consistency}
            for effect, summary in summarize(records).items()
            for bf_type, five in (("bic", summary.bic), ("default", summary.default))
        ]
        plain = ["{:<7} {:<8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}".format(
            "effect", "route", "trials", *five_keys, "consistency")]
        for row in rows:
            cells = " ".join(f"{row[key]:9.2f}" for key in five_keys)
            plain.append(f"{row['effect']:<7} {row['bf_type']:<8} {row['n_trials']:>6} "
                         f"{cells} {row['consistency']:>12.3f}")
        _emit(fmt, rows, plain)
    return 0


def _emit(fmt: str, rows: dict | list[dict], plain: list[str]) -> None:
    """Print one dict of fields, or a list of them, in the chosen format.

    plain prints the given lines.  csv writes a header from the keys and
    one row per dict: a float as its repr (csv.writer's rule), None as an
    empty cell, a list joined by "; ".  json writes a non-finite float as
    null, since strict JSON has no inf, and a dict as an object.  csv and
    json are imported here, by the one format that needs each.
    """
    table = rows if isinstance(rows, list) else [rows]
    if fmt == "plain":
        print("\n".join(plain))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(table[0].keys())
        for row in table:
            writer.writerow("; ".join(v) if isinstance(v, list) else v for v in row.values())
    else:
        import json

        strict = [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                   for key, v in row.items()} for row in table]
        print(json.dumps(strict if isinstance(rows, list) else strict[0]))


if __name__ == "__main__":
    sys.exit(main())
