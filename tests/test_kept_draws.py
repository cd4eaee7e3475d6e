"""The draws a study keeps between calls.

A block's standard-normal effects and noise do not depend on g, so a run
of another g takes the draws an earlier run kept and only rescales them.
Every record must stay bitwise what a fresh process gives, whatever was
kept, failed, changed or run at the same time before it.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bicbf
import bicbf.rng
import bicbf.simulate
from bicbf import DomainError, SimulationConfig, generate_dataset, run_simulation, write_records

COUPLED = (0.0, 0.05, 0.2)


@pytest.fixture
def kept(monkeypatch):
    """A fresh table of kept draws for the test."""
    table = bicbf.simulate._KeptDraws()
    monkeypatch.setattr(bicbf.simulate, "_DRAWS", table)
    return table


def _alone(config: SimulationConfig, path: Path) -> bytes:
    """The results file of ``config``, of the default prior, run in a fresh process."""
    fields = {name: getattr(config, name)
              for name in ("cell_n", "g", "trials", "seed", "a_levels", "b_levels")}
    study = ("import sys\n"
             "from bicbf import SimulationConfig, run_simulation, write_records\n"
             f"write_records(run_simulation(SimulationConfig(**{fields!r})), sys.argv[1])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", study, str(path)], env=env, check=True, timeout=120)
    return path.read_bytes()


def _results(config: SimulationConfig, path: Path) -> bytes:
    write_records(run_simulation(config), path)
    return path.read_bytes()


@pytest.mark.parametrize("cell_n, trials", [(5, 40), (50, 1000)],
                         ids=["one-block", "across-a-block-edge"])
def test_a_run_after_another_g_is_the_run_alone(kept, tmp_path, cell_n, trials):
    # cell_n 50: blocks of 873 trials, so 1000 trials end inside the second
    base = SimulationConfig(cell_n=cell_n, g=0.2, trials=trials, seed=11)
    alone = _alone(base, tmp_path / "alone.csv")
    for g in COUPLED:
        coupled = _results(replace(base, g=g), tmp_path / f"coupled-{g}.csv")
    assert kept.blocks, "the g = 0 run kept no draws"
    assert coupled == alone


def test_a_kept_block_serves_the_same_draws_to_every_g(kept, monkeypatch):
    config = SimulationConfig(cell_n=4, g=0.0, trials=30, seed=2)
    drawn = []
    real = bicbf.rng._generator

    def counted(words):
        drawn.append(1)
        return real(words)

    monkeypatch.setattr(bicbf.rng, "_generator", counted)
    run_simulation(config)
    first = len(drawn)
    for g in COUPLED[1:]:
        run_simulation(replace(config, g=g))
    assert first == 2 * config.trials
    assert len(drawn) == first


def test_a_run_after_a_failed_run_draws_correctly(kept, monkeypatch, tmp_path):
    config = SimulationConfig(cell_n=5, g=0.05, trials=50, seed=4)
    want = _alone(config, tmp_path / "alone.csv")
    real = bicbf.rng._generator
    calls = []

    def failing(words):
        calls.append(1)
        if len(calls) == 37:  # inside the block's draws
            raise MemoryError("a draw failed")
        return real(words)

    with monkeypatch.context() as patch:
        patch.setattr(bicbf.rng, "_generator", failing)
        with pytest.raises(MemoryError):
            run_simulation(config)
    assert not kept.blocks and kept.nbytes == 0
    assert _results(config, tmp_path / "after.csv") == want


def test_a_refused_trial_keeps_nothing_and_hashes_no_key(kept):
    config = SimulationConfig(cell_n=2, g=0.1, trials=3, seed=0)
    generate_dataset(config, 1)
    for trial, message in ((-1, "index must be nonnegative, got -1"),
                           (True, "index must be an integer, got True"),
                           (1.0, "index must be an integer, got 1.0")):
        with pytest.raises(DomainError, match=message):
            generate_dataset(config, trial)
    assert len(kept.blocks) == 1


def test_a_bad_seed_is_refused_before_its_key(kept):
    config = SimulationConfig(cell_n=2, g=0.1, trials=3, seed=1)
    generate_dataset(config, 0)
    forged = SimulationConfig(cell_n=2, g=0.1, trials=3, seed=1)
    object.__setattr__(forged, "seed", 1.0)  # equal to 1 as a key; not a count
    with pytest.raises(DomainError, match="seed must be an integer, got 1.0"):
        generate_dataset(forged, 0)


def test_a_dataset_is_writable_and_changing_it_changes_no_later_run(kept):
    config = SimulationConfig(cell_n=3, g=0.2, trials=5, seed=8)
    records = run_simulation(config)
    data = generate_dataset(config, 2)
    want = data.y.copy()
    assert data.y.flags.writeable
    data.y[:] = 7.0
    block = bicbf.simulate._block_data(config, range(5))
    assert block.flags.writeable
    block[:] = -1.0
    assert generate_dataset(config, 2).y.tobytes() == want.tobytes()
    assert run_simulation(config) == records


def test_the_kept_draws_are_read_only(kept):
    run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=20, seed=3))
    generate_dataset(SimulationConfig(cell_n=3, g=0.2, trials=20, seed=3), 5)
    arrays = [array for drawn in kept.blocks.values() for array in drawn]
    assert len(arrays) == 4
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_block_of_one_trial_over_the_block_size_is_not_kept(kept, monkeypatch):
    monkeypatch.setattr(bicbf.simulate, "_BLOCK_VALUES", 64)
    config = SimulationConfig(cell_n=20, g=0.2, trials=3, seed=5)  # 120 observations a trial
    want = [generate_dataset(config, t).y.tobytes() for t in range(3)]
    assert not kept.blocks
    records = run_simulation(config)
    assert not kept.blocks
    assert [generate_dataset(config, t).y.tobytes() for t in range(3)] == want
    monkeypatch.setattr(bicbf.simulate, "_BLOCK_VALUES", 2**18)
    assert run_simulation(config) == records


@pytest.mark.parametrize("budget", [2**23, 40_000])
def test_the_kept_draws_never_exceed_their_budget(kept, monkeypatch, budget):
    # cell_n 100: blocks of 436 trials of about 4.9 KB; 2000 trials are
    # five blocks, more than 8 MiB, so the first blocks are dropped
    monkeypatch.setattr(bicbf.simulate, "_DRAWS_BYTES", budget)
    seen = []
    real = bicbf.simulate._KeptDraws.put

    def put(self, key, drawn):
        real(self, key, drawn)
        seen.append(self.nbytes)
        held = sum(bicbf.simulate._DRAWS_ENTRY + effects.nbytes + noise.nbytes
                   for effects, noise in self.blocks.values())
        assert held == self.nbytes <= budget

    monkeypatch.setattr(bicbf.simulate._KeptDraws, "put", put)
    config = SimulationConfig(cell_n=100, g=0.0, trials=2000, seed=6)
    for g in COUPLED:
        run_simulation(replace(config, g=g))
    for t in range(0, 2000, 50):
        generate_dataset(config, t)
    assert max(seen) <= budget
    assert seen


def test_the_latest_blocks_are_kept_and_a_reused_block_moves_last(kept, monkeypatch):
    small = SimulationConfig(cell_n=2, g=0.2, trials=1, seed=9)
    cost = bicbf.simulate._cost(bicbf.simulate._draws(small, [0], 11))
    kept.blocks.clear()
    kept.nbytes = 0
    monkeypatch.setattr(bicbf.simulate, "_DRAWS_BYTES", 3 * cost)
    for t in range(3):
        generate_dataset(small, t)
    generate_dataset(small, 0)  # used again: now the last to go
    generate_dataset(small, 3)
    trials = [np.frombuffer(key[-1], dtype=np.uint64).tolist() for key in kept.blocks]
    assert trials == [[2], [0], [3]]
    assert kept.nbytes == 3 * cost


def test_threads_running_studies_at_once_all_get_their_records(kept, monkeypatch):
    # more threads than cores, switching often, over a table that holds
    # about one block, so each thread drops and redraws the others' draws
    configs = [SimulationConfig(cell_n=6, g=0.0, trials=300, seed=seed) for seed in range(21, 25)]
    want = {(c.seed, g): run_simulation(replace(c, g=g)) for c in configs for g in COUPLED}
    table = bicbf.simulate._KeptDraws()
    monkeypatch.setattr(bicbf.simulate, "_DRAWS", table)
    monkeypatch.setattr(bicbf.simulate, "_DRAWS_BYTES", 2 * 300 * 47 * 8)
    start = threading.Barrier(len(configs))
    got, errors = {}, []

    def study(config):
        try:
            start.wait(timeout=60)
            for _ in range(2):
                for g in COUPLED:
                    got.setdefault((config.seed, g), []).append(
                        run_simulation(replace(config, g=g)))
        except BaseException as exc:  # reported below, from the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=study, args=(c,)) for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert sorted(got) == sorted(want)
    for key, tables in got.items():
        assert len(tables) == 2 and all(table == want[key] for table in tables), key
    assert table.nbytes == sum(map(bicbf.simulate._cost, table.blocks.values()))
    assert table.nbytes <= bicbf.simulate._DRAWS_BYTES
