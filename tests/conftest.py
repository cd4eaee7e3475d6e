"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from bicbf import FactorialDataset, SimulationConfig, fit_two_way, generate_dataset
from bicbf.anova import EFFECTS, _Block

settings.register_profile(
    "bicbf",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bicbf")


def random_dataset(
    seed: int,
    a: int | None = None,
    b: int | None = None,
    cell_n: int | None = None,
    effect_scale: float = 1.0,
) -> FactorialDataset:
    """A small balanced dataset with mild random effects, keyed by seed."""
    rng = np.random.default_rng(seed)
    a = a if a is not None else int(rng.integers(2, 4))
    b = b if b is not None else int(rng.integers(2, 4))
    cell_n = cell_n if cell_n is not None else int(rng.integers(2, 5))
    cell_means = effect_scale * rng.normal(size=(a, b, 1))
    y = cell_means + rng.normal(size=(a, b, cell_n))
    return FactorialDataset(a, b, cell_n, y)


def table_of(a, b, cell_n, ss_a, ss_b, ss_ab, ss_error, ss_total):
    """The table of one a x b design's sums of squares: its one-dataset block's."""
    ss = np.array([[ss_a], [ss_b], [ss_ab]])
    return _Block((a, b), cell_n, ss, np.array([ss_error]), np.array([ss_total])).table(0)


def block_of(tables) -> _Block:
    """The block of tables of one design: a row per term, a column per table."""
    return _Block(tables[0].levels, tables[0].cell_n,
                  np.array([[t.ss(e) for t in tables] for e in EFFECTS]),
                  np.array([t.ss_error for t in tables]), np.array([t.ss_total for t in tables]))


@pytest.fixture
def make_dataset():
    return random_dataset


def study_tables():
    """Trials of the desk (cell_n 50) and wide (cell_n 20) designs at each g,
    and 2x2 designs with 3 and 5 observations per cell."""
    for cell_n in (50, 20):
        for g in (0.0, 0.05, 0.2):
            config = SimulationConfig(cell_n=cell_n, g=g, trials=8, seed=2026)
            for trial in range(config.trials):
                yield fit_two_way(generate_dataset(config, trial))
    for cell_n in (3, 5):
        for seed in range(6):
            yield fit_two_way(random_dataset(seed, a=2, b=2, cell_n=cell_n))
            yield fit_two_way(random_dataset(seed, a=2, b=2, cell_n=cell_n, effect_scale=3.0))


@st.composite
def random_tables(draw):
    """The table of a random balanced design, its sums of squares spread over 120 decades."""
    a, b = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cell_n = draw(st.integers(2, 60))
    ss_a, ss_b, ss_ab, ss_error = (10.0 ** draw(st.floats(-60.0, 60.0)) for _ in range(4))
    ss_total = ss_a + ss_b + ss_ab + ss_error
    return table_of(a, b, cell_n, ss_a, ss_b, ss_ab, ss_error, ss_total)
