#!/usr/bin/env python3
"""Benchmark of the bicbf package: end-to-end metrics, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` the last line of standard output is
a JSON object holding every end-to-end metric, with ``--trace 1`` every
per-layer metric.  Every output of the program is checked; a failed check
counts as a failed operation.  Workloads, metrics and the compare rule are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import checks
import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
# BENCHMARK.json alone defines the workloads, the metric units and the run length
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

# percentiles the tail is read at; the highest with ten samples beyond it
# wins.  It stops at p99: further out, the value follows a few scheduler
# stalls of a shared host, and the rung would change with the pass count.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
SETUP_REPEATS = 9  # outside --seconds; a median of 9 rides out one slow start
PROBE_REPEATS = 5
QUAD_TRIALS = 5  # leading trials of each condition checked against quadrature
CLI_TRACE_PASSES = 25  # in-process passes over the command corpus when traced
PROBE_BF = ["bf", "--f", "2.584", "--df1", "1", "--df2", "17", "--n", "18"]
HEAVY_PROBE = f"""
import contextlib, io, sys
from bicbf.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({PROBE_BF!r})
print(sum(1 for name in sys.modules if name.startswith(("numpy", "scipy"))))
"""

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def _per_layer_units() -> dict:
    units = {"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.heavy_modules": "count",
             "cli.main_us": "us"}
    timed = {  # span name -> the statistics reported for it
        "parsing.parse_stat": ("calls", "busy_s", "mean_us"),
        "summary.bf01_from_stat": ("calls", "busy_s", "mean_us"),
        "summary.classify": ("calls", "busy_s", "mean_us"),
        "rng.substream": ("calls", "busy_s"),
        "anova.fit_two_way": ("calls", "busy_s", "mean_us"),
        "anova.bic_bf_for_effect": ("calls", "busy_s"),
        "simulate.generate_dataset": ("calls", "busy_s", "mean_us"),
        "simulate.write_records": ("busy_s",),
        "simulate.read_records": ("busy_s",),
        "simulate.summarize": ("busy_s",),
        "simulate.emit_density_data": ("busy_s",),
        "simulate.write_density_data": ("busy_s",),
        "gprior.default_bf10.A": ("calls", "busy_s", "mean_ms"),
        "gprior.default_bf10.B": ("calls", "busy_s", "mean_ms"),
        "gprior.default_bf10.AB": ("calls", "busy_s", "mean_ms"),
        "gprior.effect_design": ("calls", "busy_s"),
    }
    stat_units = {"calls": "count", "busy_s": "s", "mean_us": "us", "mean_ms": "ms"}
    for name, stats in timed.items():
        for stat in stats:
            units[f"{name}.{stat}"] = stat_units[stat]
    units.update({
        "simulate.run_simulation.self_s": "s",
        "simulate.first_trial_ms": "ms",
        "simulate.results_bytes": "bytes",
        "gprior.draws": "count",
        "gprior.draws_per_s": "1/s",
        "gprior.prior_draws_ms": "ms",
        "gprior.ess_ratio.A": "ratio",
        "gprior.ess_ratio.B": "ratio",
        "gprior.ess_ratio.AB": "ratio",
        "gprior.quad_max_z": "sd",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


LAYERS = ("cli", "parsing", "summary", "anova", "gprior", "rng", "simulate")
PER_LAYER = _per_layer_units()


class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems[:3])}")


@dataclass
class Measured:
    """Latencies of the operations and wall times of the complete passes."""

    latencies: list = field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0  # time the items took, for items_per_s
    pass_walls: list = field(default_factory=list)


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BICBF_FORMAT", None)
    return env


def import_program():
    """The bicbf package of this checkout, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bicbf

    if Path(bicbf.__file__).resolve().parent != (SRC / "bicbf").resolve():
        raise SystemExit(f"perfbench: imported bicbf from {bicbf.__file__}, not {SRC}")
    return bicbf


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder rung
    that leaves at least ten samples beyond it (nearest-rank percentiles)."""
    ordered = sorted(samples)
    found = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            found = (p, ordered[rank - 1], len(ordered) - rank)
    if found is None:
        raise RuntimeError(f"{len(ordered)} samples cannot give a tail percentile")
    return found


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_child.py"), workload,
                        str(seed)], env=program_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# --- cli-oneshot --------------------------------------------------------------


def perturb_log_bf(out: str) -> str:
    obj = json.loads(out)
    obj["log_bf"] += 1e-6
    return json.dumps(obj) + "\n"


def run_cli(corpus, seconds: float, tally: Tally, inject: str | None) -> Measured:
    """Back-to-back fresh ``python -m bicbf.cli`` processes, one client."""
    base = program_env()
    envs = {fmt: dict(base, BICBF_FORMAT=fmt) for fmt in ("plain", "csv", "json")}
    perturbed = next(i for i, c in enumerate(corpus) if c.fmt == "json" and c.route != "parse")

    def invoke(cmd):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "bicbf.cli", *cmd.argv],
                              env=envs[cmd.env_format] if cmd.env_format else base,
                              cwd=ROOT, capture_output=True, text=True)
        return perf_counter() - start, proc

    invoke(corpus[0])  # page cache and bytecode, which every later user has warm
    m = Measured()
    start = perf_counter()
    i = 0
    while i < len(corpus) or perf_counter() - start < seconds:
        cmd = corpus[i % len(corpus)]
        elapsed, proc = invoke(cmd)
        m.latencies.append(elapsed)
        out = proc.stdout
        if inject == "cli-perturb" and i == perturbed:
            out = perturb_log_bf(out)
        if proc.returncode != 0:
            problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            problems = checks.check_command(cmd, out)
        tally.record(problems, f"bicbf {' '.join(cmd.argv)}")
        i += 1
        if i % len(corpus) == 0:
            m.pass_walls.append(sum(m.latencies[-len(corpus):]))
    m.items = len(m.latencies)
    m.busy_s = sum(m.latencies)
    return m


@contextlib.contextmanager
def format_env(fmt: str | None):
    if fmt is None:
        yield
        return
    os.environ["BICBF_FORMAT"] = fmt
    try:
        yield
    finally:
        del os.environ["BICBF_FORMAT"]


def cli_in_process(cli, corpus, passes: int, tally: Tally, tracer=None) -> list[float]:
    """Warm ``main(argv)`` calls over the corpus; returns each call's time."""
    times = []
    for _ in range(passes):
        for cmd in corpus:
            out = io.StringIO()
            with format_env(cmd.env_format), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = perf_counter()
                if tracer is None:
                    code = cli.main(list(cmd.argv))
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(list(cmd.argv))
                times.append(perf_counter() - start)
            problems = [f"exit {code}"] if code else checks.check_command(cmd, out.getvalue())
            tally.record(problems, f"main({list(cmd.argv)})")
    return times


def cli_probes(corpus, tally: Tally) -> dict:
    """Interpreter floor, import cost and heavy modules, in fresh processes."""
    env = program_env()

    def wall(code: str) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            times.append(perf_counter() - start)
        return statistics.median(times)

    interp = wall("pass")
    imported = wall("import bicbf.cli")
    heavy = subprocess.run([sys.executable, "-c", HEAVY_PROBE], env=env, cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout
    import bicbf.cli

    main_times = cli_in_process(bicbf.cli, corpus, 5, tally)
    return {"cli.interp_ms": interp * 1e3, "cli.import_ms": (imported - interp) * 1e3,
            "cli.heavy_modules": int(heavy), "cli.main_us": statistics.fmean(main_times) * 1e6}


def trace_cli(corpus, tally: Tally, tracer: spans.Tracer) -> tuple[float, float]:
    """Untraced then traced in-process passes; returns both total times."""
    import bicbf.cli as cli

    untraced = sum(cli_in_process(cli, corpus, CLI_TRACE_PASSES, tally))
    for attr, name in (("parse_stat", "parsing.parse_stat"),
                       ("render_stat", "parsing.render_stat"),
                       ("bf01_from_stat", "summary.bf01_from_stat"),
                       ("bf01_from_f", "summary.bf01_from_f"),
                       ("bf01_from_t", "summary.bf01_from_t"),
                       ("classify", "summary.classify")):
        tracer.wrap(cli, attr, name)
    try:
        traced = sum(cli_in_process(cli, corpus, CLI_TRACE_PASSES, tally, tracer))
    finally:
        tracer.restore()
    return untraced, traced


# --- studies ------------------------------------------------------------------


@dataclass
class Condition:
    """One g of one study pass: the simulate phase and the report tail."""

    config: object
    records: list
    read_back: list
    summaries: dict
    start: float
    stamps: list  # perf_counter at each progress callback
    simulated: float
    finished: float
    results: bytes
    density: bytes


def study_pass(S, configs, jobs: int, workdir: Path, inject: str | None = None,
               tracer=None) -> list[Condition]:
    """run_simulation, then write -> read -> summarize -> density, per g."""
    done = []
    for k, config in enumerate(configs):
        results = workdir / f"results-{k}.csv"
        density = workdir / f"density-{k}.csv"
        stamps: list = []
        span = tracer.span("bench.condition") if tracer else contextlib.nullcontext()
        with span:
            start = perf_counter()
            records = S.run_simulation(config, progress=lambda done, total: stamps.append(
                perf_counter()), **job_kwargs(S, jobs))
            simulated = perf_counter()
            S.write_records(records, results)
            if inject == "swap-row" and k == 0:
                lines = results.read_bytes().splitlines(keepends=True)
                lines[1], lines[4] = lines[4], lines[1]  # trial 0 A <-> trial 1 A
                results.write_bytes(b"".join(lines))
            read_back = S.read_records(results)
            summaries = S.summarize(read_back)
            S.write_density_data(S.emit_density_data(read_back), density)
            finished = perf_counter()
        done.append(Condition(config, records, read_back, summaries, start, stamps,
                              simulated, finished, results.read_bytes(), density.read_bytes()))
    return done


def job_kwargs(S, jobs: int) -> dict:
    """``n_jobs`` for a run_simulation that still takes it."""
    takes_jobs = "n_jobs" in inspect.signature(S.run_simulation).parameters
    return {"n_jobs": jobs} if takes_jobs else {}


def trial_windows(cond: Condition, jobs: int) -> list[float]:
    """Time from completion k - jobs to completion k: one trial's stay in a
    worker, including dispatch; for one job the trial's latency."""
    times = [cond.start] * jobs + cond.stamps
    return [times[i + jobs] - times[i] for i in range(len(cond.stamps))]


def check_study(bicbf, conds, tally: Tally, inject: str | None) -> float:
    """Every check on one study pass; returns the largest quadrature |z|."""
    S = bicbf.simulate
    max_z = 0.0
    for cond in conds:
        config = cond.config
        tally.record([] if cond.read_back == cond.records else
                     ["read_records(write_records(x)) != x"], f"g={config.g} round trip")
        rows = checks.results_rows(cond.results)
        datasets = (S.generate_dataset(config, t).y for t in range(config.trials))
        tally.record(checks.check_results_bic(rows, datasets), f"g={config.g} results BIC")
        tally.record(checks.check_summaries(cond.records, cond.summaries),
                     f"g={config.g} summarize")
        tally.record(checks.check_density(cond.density), f"g={config.g} density")
        for t in range(QUAD_TRIALS):
            data = S.generate_dataset(config, t)
            oracle = bicbf.gprior.default_bf10(data, "A", config.oracle, stream_index=t)
            c_factor = config.a_levels if inject == "bad-quad" else None
            quad = checks.quad_log_bf10_a(data.y, config.oracle.scale, c_factor)
            diff = oracle.log_bf - quad
            if oracle.standard_error > 0:
                z = diff / oracle.standard_error
            else:  # a deterministic oracle must match to quadrature accuracy
                z = 0.0 if abs(diff) <= checks.QUAD_EXACT_TOL else math.inf
            max_z = max(max_z, abs(z))
            problems = []
            if float(rows[3 * t][3]) != oracle.log_bf:
                problems.append(f"results file {rows[3 * t][3]} != oracle {oracle.log_bf!r}")
            if not abs(z) <= checks.QUAD_Z_MAX:
                problems.append(f"oracle {oracle.log_bf:.6f} vs quadrature {quad:.6f}: z={z:.2f}")
            tally.record(problems, f"g={config.g} trial {t} quadrature")
    return max_z


def check_same_bytes(reference, conds, tally: Tally, what: str) -> None:
    for ref, cond in zip(reference, conds):
        same = ref.results == cond.results and ref.density == cond.density
        tally.record([] if same else ["results or density file differs"],
                     f"g={cond.config.g} {what} byte-identical")


def attempt_pass(S, configs, jobs, workdir, tally: Tally, inject=None, tracer=None):
    """A study pass, or None when the program raised (all its trials fail)."""
    try:
        conds = study_pass(S, configs, jobs, workdir, inject, tracer)
    except Exception:
        traceback.print_exc()
        for config in configs:
            for _ in range(config.trials):
                tally.record(["pass raised"], "trial")
        return None
    for config in configs:
        tally.attempted += config.trials
    return conds


def run_study(bicbf, configs, jobs: int, seconds: float, workdir: Path, tally: Tally,
              inject: str | None) -> Measured:
    """Repeat the whole study (same seed) until ``seconds`` pass, twice at least."""
    S = bicbf.simulate
    S.run_simulation(replace(configs[0], trials=2))  # warm-up
    m = Measured()
    reference = None
    start = perf_counter()
    while len(m.pass_walls) < 2 or perf_counter() - start < seconds:
        conds = attempt_pass(S, configs, jobs, workdir, tally, inject)
        if conds is None:
            break
        for cond in conds:
            m.latencies += trial_windows(cond, jobs)
            m.items += cond.config.trials
            m.busy_s += cond.simulated - cond.start
        m.pass_walls.append(sum(c.finished - c.start for c in conds))
        if reference is None:
            reference = conds
            check_study(bicbf, conds, tally, inject)
        else:
            check_same_bytes(reference, conds, tally, "repeat pass")
        del conds  # hold two passes at most, whatever the pass count
    return m


def trace_study(bicbf, configs, jobs: int, workdir: Path, tally: Tally,
                tracer: spans.Tracer, inject: str | None) -> tuple[float, float, dict]:
    """Untraced pass at the workload's job count, an untraced and a traced
    single-process pass; returns (untraced, traced, extra metrics)."""
    S = bicbf.simulate

    def must_pass(jobs, tracer=None):
        conds = attempt_pass(S, configs, jobs, workdir, tally, inject, tracer)
        if conds is None:
            raise RuntimeError("the study raised; no layer metrics")
        return conds

    S.run_simulation(replace(configs[0], trials=2))
    extra = {}
    reference = must_pass(jobs)
    extra["gprior.quad_max_z"] = check_study(bicbf, reference, tally, inject)
    extra["simulate.first_trial_ms"] = 1e3 * statistics.median(
        c.stamps[0] - c.start for c in reference)
    extra["simulate.results_bytes"] = sum(len(c.results) for c in reference)
    if jobs == 1:
        untraced_conds = reference
    else:
        untraced_conds = must_pass(1)
        check_same_bytes(reference, untraced_conds, tally, "single-process")
    oracles: dict = {"A": [], "B": [], "AB": []}

    def keep_oracle(name, result):
        oracles[name.rsplit(".", 1)[1]].append((result.standard_error, result.n_samples))

    def trial_arg(args, kwargs):
        return args[1] if len(args) > 1 else kwargs["trial"]

    def effect_arg(args, kwargs):
        return args[1] if len(args) > 1 else kwargs["effect"]

    sim, gp, an = bicbf.simulate, bicbf.gprior, bicbf.anova
    tracer.wrap(sim, "generate_dataset", "simulate.generate_dataset", trial=trial_arg)
    tracer.wrap(sim, "fit_two_way", "anova.fit_two_way")
    tracer.wrap(sim, "bic_bf_for_effect", "anova.bic_bf_for_effect")
    tracer.wrap(sim, "default_bf10", "gprior.default_bf10", suffix=effect_arg,
                on_result=keep_oracle)
    tracer.wrap(sim, "invert", "summary.invert")
    tracer.wrap(sim, "substream", "rng.substream")
    tracer.wrap(gp, "effect_design", "gprior.effect_design")
    tracer.wrap(gp, "substream", "rng.substream")
    tracer.wrap(an, "bf01_from_f", "summary.bf01_from_f")
    for attr in ("run_simulation", "write_records", "read_records", "summarize",
                 "emit_density_data", "write_density_data"):
        tracer.wrap(sim, attr, f"simulate.{attr}")
    try:
        traced_conds = must_pass(1, tracer)
    finally:
        tracer.restore()
    check_same_bytes(reference, traced_conds, tally, "traced")
    for effect, results in oracles.items():
        if results:
            extra[f"gprior.ess_ratio.{effect}"] = statistics.median(
                1.0 / (1.0 + n * se * se) for se, n in results)
    extra["gprior.draws"] = sum(n for results in oracles.values() for _, n in results)

    def wall(conds):
        return sum(c.finished - c.start for c in conds)

    return wall(untraced_conds), wall(traced_conds), extra


def prior_draws_ms(bicbf, mc_samples: int, seed: int) -> float:
    """Median time to draw one (mc_samples x 3) Inverse-Gamma batch for AB."""
    r_sq = bicbf.DEFAULT_PRIOR_SCALE ** 2
    times = []
    for index in range(20):
        start = perf_counter()
        rng = bicbf.rng.substream(seed, "gprior/AB", index)
        1.0 / rng.gamma(0.5, 2.0 / r_sq, size=(mc_samples, 3))
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


# --- metrics and output -----------------------------------------------------------


def end_to_end(setup_s: float, m: Measured) -> dict:
    """Means over the run, not medians: the host's speed comes in phases
    of seconds to minutes, and a median jumps between them."""
    return {"setup_s": setup_s,
            "items_per_s": m.items / m.busy_s,
            "wall_s": statistics.fmean(m.pass_walls),
            "peak_rss_mb": peak_rss_mb()}


def layer_metrics(tracer: spans.Tracer, probes: dict, extra: dict, untraced: float,
                  traced: float) -> tuple[dict, dict]:
    """Every per-layer metric (zero where the workload never calls the
    function) and the per-layer busy/self table."""
    by_name, by_layer = spans.summarize_spans(tracer.spans)
    values = {k: 0 if unit in ("count", "bytes") else 0.0 for k, unit in PER_LAYER.items()}
    values.update(probes)
    for key in PER_LAYER:
        name, _, stat = key.rpartition(".")
        entry = by_name.get(name)
        if entry is None or stat not in ("calls", "busy_s", "mean_us", "mean_ms"):
            continue
        calls, busy = entry["calls"], entry["busy_s"]
        values[key] = {"calls": calls, "busy_s": busy, "mean_us": 1e6 * busy / calls,
                       "mean_ms": 1e3 * busy / calls}[stat]
    own = spans.self_times(tracer.spans)
    values["simulate.run_simulation.self_s"] = sum(
        (t for s, t in zip(tracer.spans, own) if s[spans.NAME] == "simulate.run_simulation"), 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = by_layer.get(layer, {}).get("self_s", 0.0)
    values.update(extra)
    oracle_busy = sum(v["busy_s"] for k, v in by_name.items()
                      if k.startswith("gprior.default_bf10."))
    if oracle_busy:
        values["gprior.draws_per_s"] = values["gprior.draws"] / oracle_busy
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return values, by_layer


def print_layer_table(workload: str, by_layer: dict, untraced: float, traced: float) -> None:
    total = sum(v["self_s"] for v in by_layer.values())
    print(f"# per-layer time, traced {workload} pass ({traced:.4f} s traced, "
          f"{untraced:.4f} s untraced, overhead {traced - untraced:+.4f} s)")
    print(f"# {'layer':<10} {'busy_s':>10} {'self_s':>10} {'self %':>7}")
    for layer, v in sorted(by_layer.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * v["self_s"] / total if total else 0.0
        print(f"# {layer:<10} {v['busy_s']:>10.4f} {v['self_s']:>10.4f} {share:>6.1f}%")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, args) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "nproc": inputs.nproc(),
            "cpu": cpu_model(), "workload": workload, "params": inputs.params(workload),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def emit(result: dict, env: dict, notes: list[str], workload: str, seed: int,
         trace: int) -> None:
    for note in notes:
        print(f"# {note}")
    print("# env " + json.dumps(env, sort_keys=True))
    manifest = OUT / f"{workload}-s{seed}-trace{trace}.json"
    manifest.write_text(json.dumps({"env": env, "notes": notes, **result}, indent=1) + "\n")
    print(json.dumps(result))


def run_one(args) -> int:
    workload, seed = args.workload, args.seed
    tally = Tally()
    notes: list[str] = []
    env = environment(workload, args)
    os.environ.pop("BICBF_FORMAT", None)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics = traced_run(args, tally, workdir, notes)
            units = PER_LAYER
        else:
            metrics = timed_run(args, tally, workdir, notes)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"error_rate = {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / max(tally.attempted, 1):.6g} (failed/attempted)")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    emit(result, env, notes, workload, seed, args.trace)
    return 0


def timed_run(args, tally: Tally, workdir: Path, notes: list[str]) -> dict:
    workload, seed, seconds = args.workload, args.seed, float(args.seconds)
    setup_s = measure_setup(workload, seed)
    if workload == "cli-oneshot":
        m = run_cli(inputs.cli_corpus(seed), seconds, tally, args.inject)
    else:
        bicbf = import_program()
        study = inputs.STUDIES[workload]
        m = run_study(bicbf, inputs.study_configs(workload, seed), study.jobs, seconds,
                      workdir, tally, args.inject)
    metrics = end_to_end(setup_s, m)
    p, value, beyond = tail(m.latencies)
    notes.append(f"p50: {1e3 * statistics.median(m.latencies):.6g} ms; tail: p{p:g} = "
                 f"{1e3 * value:.6g} ms of {len(m.latencies)} operations ({beyond} beyond "
                 f"it); {len(m.pass_walls)} complete passes")
    for name, unit in END_TO_END.items():
        notes.append(f"{name} = {metrics[name]:.6g} {unit}")
    return metrics


def traced_run(args, tally: Tally, workdir: Path, notes: list[str]) -> dict:
    workload, seed = args.workload, args.seed
    bicbf = import_program()
    tracer = spans.Tracer()
    probes = cli_probes(inputs.cli_corpus(seed), tally)
    mc = inputs.STUDIES[workload].mc_samples if workload in inputs.STUDIES else \
        bicbf.GPriorSpec().mc_samples
    probes["gprior.prior_draws_ms"] = prior_draws_ms(bicbf, mc, seed)
    extra: dict = {}
    if workload == "cli-oneshot":
        untraced, traced = trace_cli(inputs.cli_corpus(seed), tally, tracer)
    else:
        study = inputs.STUDIES[workload]
        untraced, traced, extra = trace_study(bicbf, inputs.study_configs(workload, seed),
                                              study.jobs, workdir, tally, tracer, args.inject)
    values, by_layer = layer_metrics(tracer, probes, extra, untraced, traced)
    print_layer_table(workload, by_layer, untraced, traced)
    dump = OUT / f"spans-{workload}-s{seed}.csv"
    tracer.dump(dump)
    notes.append(f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
    for name, unit in PER_LAYER.items():
        notes.append(f"{name} = {values[name]:.6g} {unit}")
    return values


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} error_rate="
              f"{result['failed']}/{result['attempted']}")
        for note in lines[:-1]:
            if note.startswith(("# p50", "# per-layer")):
                print(f"  {note[2:]}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("cli-perturb", "swap-row", "bad-quad"),
                        help="corrupt one output on purpose; the run must fail (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bicbf" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'bicbf'}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
