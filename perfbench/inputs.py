"""Workload parameters and the seeded inputs the benchmark feeds the program.

Standard library only: ``setup_child.py`` times a fresh interpreter that
imports this module, so nothing here may cost more than the program itself.
The same ``--seed`` always yields the same inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

G_VALUES = (0.0, 0.05, 0.2)

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; a claim must also hold here.
HELDOUT_SEED = 90417

CLI_COMMANDS = 40  # one pass; its 40 latencies give a p75 with 10 beyond


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class StudyParams:
    cell_n: int
    trials: int
    mc_samples: int
    jobs: int
    a_levels: int = 2
    b_levels: int = 3
    g_values: tuple[float, ...] = G_VALUES


STUDIES = {
    # the ROADMAP desk study, single process: the oracle dominates a trial
    "study-desk": StudyParams(cell_n=50, trials=300, mc_samples=4000, jobs=1),
    # many cheap trials through the process pool: fixed per-trial cost and
    # pool dispatch are about half of each trial, and the report tail is large
    "study-wide": StudyParams(cell_n=20, trials=1000, mc_samples=1000, jobs=nproc()),
}

def params(workload: str) -> dict:
    """The workload's parameters, as recorded in the run manifest."""
    if workload == "cli-oneshot":
        return {"commands": CLI_COMMANDS, "clients": 1, "loop": "closed"}
    study = STUDIES[workload]
    return {"cell_n": study.cell_n, "a_levels": study.a_levels,
            "b_levels": study.b_levels, "g": list(study.g_values),
            "trials": study.trials, "mc_samples": study.mc_samples,
            "n_jobs": study.jobs, "clients": 1, "loop": "closed"}


@dataclass(frozen=True)
class Stat:
    """A reported statistic as the benchmark writes it, with its true fields."""

    kind: str  # "F" or "t"
    value: str  # the statistic's lexeme
    df1: int | None
    df2: int
    n: int
    p: str | None  # p lexeme
    p_cmp: str
    n_in_text: bool
    spacing: tuple[str, str]  # (clause separator, equals sign)

    def text(self) -> str:
        sep, eq = self.spacing
        if self.kind == "F":
            head = f"F({self.df1},{self.df2}){eq}{self.value}"
        else:
            head = f"t({self.df2}){eq}{self.value}"
        parts = [head]
        if self.p is not None:
            parts.append(f"p{self.p_cmp}{self.p}")
        if self.n_in_text:
            parts.append(f"n{eq}{self.n}")
        return sep.join(parts)


def random_stat(rng: random.Random) -> Stat:
    kind = rng.choice("Ft")
    df2 = rng.randint(5, 200)
    if kind == "F":
        df1 = rng.randint(1, 5)
        value = f"{rng.uniform(0.0, 12.0):.3f}"
    else:
        df1 = None
        value = f"{rng.uniform(-5.0, 5.0):.3f}"
    n = df2 + (df1 or 1) + 1
    p = f"{rng.uniform(0.001, 0.999):.3f}" if rng.random() < 0.5 else None
    return Stat(kind, value, df1, df2, n, p, rng.choice("=<"), rng.random() < 0.6,
                (rng.choice((", ", ",")), rng.choice(("=", " = "))))


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments and what it must print."""

    argv: tuple[str, ...]
    env_format: str | None  # format given through BICBF_FORMAT instead of a flag
    route: str  # "bf-text", "bf-flags" or "parse"
    fmt: str
    stat: Stat
    direction: str
    n_flag: bool  # --n given on the command line


def cli_corpus(seed: int) -> list[Command]:
    """Every (route, format) pair at least four times, in seeded order."""
    rng = random.Random(f"cli/{seed}")
    pairs = [(route, fmt) for route in ("bf-text", "bf-flags", "parse")
             for fmt in ("plain", "csv", "json")]
    cycle = [pairs[i % len(pairs)] for i in range(CLI_COMMANDS)]
    rng.shuffle(cycle)
    return [_command(rng, route, fmt) for route, fmt in cycle]


def _command(rng: random.Random, route: str, fmt: str) -> Command:
    stat = random_stat(rng)
    direction = rng.choice(("01", "10"))
    if route == "bf-flags":
        if stat.kind == "F":
            argv = ["bf", "--f", stat.value, "--df1", str(stat.df1)]
        else:
            argv = ["bf", "--t", stat.value]
        argv += ["--df2", str(stat.df2), "--n", str(stat.n)]
        n_flag = True
    else:
        argv = [route.split("-")[0], stat.text()]
        if stat.n_in_text:
            n_flag = rng.random() < 0.15  # same n as the text: no override
        else:
            # bf needs a sample size; parse only warns without one
            n_flag = route == "bf-text" or rng.random() < 0.5
        if n_flag:
            argv += ["--n", str(stat.n)]
    if route != "parse" and (direction == "10" or rng.random() < 0.3):
        argv += ["--direction", direction]
    env_format = fmt if rng.random() < 0.25 else None
    if env_format is None:
        argv += ["--format", fmt]
    return Command(tuple(argv), env_format, route, fmt, stat, direction, n_flag)


def study_configs(workload: str, seed: int) -> list:
    """One SimulationConfig per g; the g values share data seeds (coupled)."""
    from bicbf import GPriorSpec, SimulationConfig

    study = STUDIES[workload]
    oracle = GPriorSpec(mc_samples=study.mc_samples, seed=seed)
    return [SimulationConfig(cell_n=study.cell_n, g=g, trials=study.trials, seed=seed,
                             a_levels=study.a_levels, b_levels=study.b_levels,
                             oracle=oracle)
            for g in study.g_values]


def build(workload: str, seed: int):
    """Import what the workload drives and build its inputs."""
    if workload == "cli-oneshot":
        import bicbf.cli  # noqa: F401  every invocation imports this

        return cli_corpus(seed)
    return study_configs(workload, seed)
