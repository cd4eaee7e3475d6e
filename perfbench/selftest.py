#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--quick]

Corrupting one output on purpose (a CLI value moved by 1e-6, two results
rows swapped, a wrong quadrature reference) must fail the run; the span
self-time arithmetic, the tail percentile and the compare rule must give
known answers on synthetic input; compare must refuse a claim it cannot
judge; the per-layer metrics must be those of BENCHMARK.json.  --quick
skips the corrupted runs, which take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import compare
import run
import spans

BENCH_DIR = Path(__file__).resolve().parent


def test_self_times() -> None:
    # cli.main [0, 10] holds parsing [1, 4] (which holds summary [2, 3]) and
    # summary [5, 9] (which holds summary [6, 7]); bench [20, 21] is a root
    synthetic = [
        ["cli.main", 0.0, 10.0, -1, -1],
        ["parsing.parse_stat", 1.0, 4.0, 0, -1],
        ["summary.bf01_from_f", 2.0, 3.0, 1, -1],
        ["summary.classify", 5.0, 9.0, 0, 7],
        ["summary.invert", 6.0, 7.0, 3, 7],
        ["bench.pass", 20.0, 21.0, -1, -1],
    ]
    assert spans.self_times(synthetic) == [3.0, 2.0, 1.0, 3.0, 1.0, 1.0]
    by_name, by_layer = spans.summarize_spans(synthetic)
    assert by_layer["cli"] == {"busy_s": 10.0, "self_s": 3.0}
    assert by_layer["parsing"] == {"busy_s": 3.0, "self_s": 2.0}
    # the nested summary span inside summary.classify is not counted twice
    assert by_layer["summary"] == {"busy_s": 5.0, "self_s": 5.0}
    assert by_name["summary.classify"] == {"calls": 1, "busy_s": 4.0}
    assert sum(v["self_s"] for v in by_layer.values()) == 11.0  # root durations


def test_tracer_wraps_and_restores() -> None:
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = spans.Tracer()
    tracer.wrap(module, "f", "parsing.f")
    with tracer.span("bench.outer"):
        assert module.f(1) == 2
    tracer.restore()
    assert module.f is original
    assert [s[spans.NAME] for s in tracer.spans] == ["bench.outer", "parsing.f"]
    assert tracer.spans[1][spans.PARENT] == 0


def test_tail() -> None:
    assert run.tail(range(1, 41)) == (75.0, 30, 10)
    assert run.tail(range(1, 1000))[0] == 95.0  # p99 would leave 9 beyond
    assert run.tail(range(1, 1001)) == (99.0, 990, 10)
    assert run.tail(range(1, 100001))[0] == 99.0  # the ladder stops at p99


def test_compare_rule() -> None:
    lower = {"better": "lower", "bound": 0.1}
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(lower, parent, faster, claimed=True) == "claim met"
    assert compare.verdict(lower, parent, parent, claimed=True) == "claim NOT met"
    assert compare.verdict(lower, parent, faster, claimed=False) == "better"
    assert compare.verdict(lower, parent, [v * 1.05 for v in parent], False) == "ok"
    assert compare.verdict(lower, parent, [v * 1.2 for v in parent], False) == "REGRESSED"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(lower, parent, noisy, False) == "unresolved"
    higher = {"better": "higher", "bound": 0.1}
    assert compare.verdict(higher, parent, faster, False) == "REGRESSED"


def test_compare_rejects_unknown_claims() -> None:
    # a claim no row could judge would pass silently; it must stop compare
    # before a single run
    root = str(BENCH_DIR.parent)
    collect = compare.collect

    def no_runs(*args):
        raise AssertionError(f"compare started runs for {argv}")

    compare.collect = no_runs
    try:
        for argv in (["--claim", "stats_per_s@cli-oneshot"],
                     ["--claim", "items_per_s@stats-batch"],
                     ["--workloads", "study-desk", "--claim", "items_per_s@cli-oneshot"]):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    compare.main(["--parent", root, "--change", root, *argv])
                except SystemExit as stop:
                    assert stop.code == 2, (argv, stop.code)
            assert "claim on" in err.getvalue(), (argv, err.getvalue())
    finally:
        compare.collect = collect


def test_layer_metrics_match_spec() -> None:
    spec = {m["name"]: m["unit"] for m in run.SPEC["per_layer"]}
    assert run.PER_LAYER == spec, set(run.PER_LAYER) ^ set(spec)


INJECTIONS = (
    # (workload, fault, a word every failure message must contain)
    ("cli-oneshot", "cli-perturb", "log_bf"),
    ("study-desk", "swap-row", "g=0.0"),
    ("study-desk", "bad-quad", "quadrature"),
)


def test_injected_faults_fail_the_run() -> None:
    for workload, fault, word in INJECTIONS:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                               workload, "--seconds", "1", "--inject", fault],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures = [line for line in proc.stderr.splitlines()
                    if line.startswith("check failed")]
        assert not result["correct"] and result["failed"] >= 1, (fault, result)
        assert failures and all(word in line for line in failures), (fault, failures)
        print(f"  {fault}: {result['failed']}/{result['attempted']} failed, e.g. "
              f"{failures[0][:120]}")


def main(argv) -> int:
    tests = [test_self_times, test_tracer_wraps_and_restores, test_tail, test_compare_rule,
             test_compare_rejects_unknown_claims, test_layer_metrics_match_spec]
    if "--quick" not in argv:
        tests.append(test_injected_faults_fail_the_run)
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
