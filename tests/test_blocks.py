"""Block evaluation of the simulation study.

``run_simulation`` fits and integrates a block of trials in one array pass.
A trial's records must stay bitwise what the trial gives alone, and a
failing block must report what the trials would report one at a time.
Both rest on numpy giving the same bits for the same values whatever the
array's length and layout, which is tested here rather than assumed.
"""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import bicbf.anova
import bicbf.simulate
import bicbf.summary
from bicbf import (
    DegenerateDataError,
    FactorialDataset,
    SimulationConfig,
    SimulationError,
    default_bf10,
    generate_dataset,
    run_simulation,
)

LENGTHS = range(1, 201)
LONG_LENGTHS = (873, 2184, 32768)  # the largest blocks of the desk, wide and 2x2x2 designs


def _values(seed: int, lo: float, hi: float, log_scale: bool = False) -> np.ndarray:
    """200 values spread over [lo, hi], uniformly or log-uniformly."""
    rng = np.random.default_rng(seed)
    if log_scale:
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size=200))
    return rng.uniform(lo, hi, size=200)


# Each elementwise function of the block code, over the range it meets there:
# exp of -log g, of log s and of logsumexp shifts; log of shrink factors and
# of SST/q; log1p of c*g; 1/(1 + c*g); SS/df and q/SST.
ELEMENTWISE = {
    "exp": (np.exp, np.concatenate([_values(1, -745.0, 0.0)[:100],
                                    _values(2, -10.0, 700.0)[:100]])),
    "log": (np.log, _values(3, 1e-300, 1e300, log_scale=True)),
    "log1p": (np.log1p, _values(4, 1e-12, 1e150, log_scale=True)),
    "reciprocal": (lambda x: 1.0 / x, _values(5, 1.0, 1e150, log_scale=True)),
    "divide": (lambda x: np.true_divide(x, 7.3), _values(6, 1e-200, 1e200, log_scale=True)),
}


def _layouts(values: np.ndarray, length: int):
    """(name, view, wanted index) for every layout the block code feeds numpy.

    Negative strides are left out: on some CPUs exp and log1p of a
    reversed view differ in the last bit, and the block code never
    builds one.
    """
    head = values[:length]
    yield "contiguous", head, np.arange(length)
    yield "offset", values[values.size - length :], np.arange(values.size - length, values.size)
    yield "strided", np.repeat(values, 2)[::2][:length], np.arange(length)
    yield "column", np.tile(head[:, None], (1, 3))[:, 1], np.arange(length)
    yield "row slice", np.tile(head, (4, 1))[1:3], np.tile(np.arange(length), (2, 1))
    yield "broadcast row", np.broadcast_to(head, (3, length)), np.tile(np.arange(length), (3, 1))
    yield "broadcast column", np.broadcast_to(head[:, None], (length, 3)), np.tile(
        np.arange(length)[:, None], (1, 3))


@pytest.mark.parametrize("name", list(ELEMENTWISE))
def test_elementwise_bits_do_not_depend_on_length_or_layout(name):
    func, values = ELEMENTWISE[name]
    alone = np.array([func(values[i : i + 1])[0] for i in range(values.size)])
    for length in (*LENGTHS, *LONG_LENGTHS):
        # a long length tiles the values, so value i is values[i % 200]
        tiled = values if length <= values.size else np.resize(values, length + 100)
        for layout, view, index in _layouts(tiled, length):
            got = func(view)
            assert np.array_equal(got, alone[index % values.size]), (name, layout, length)


def _max_by_reduceat(x: np.ndarray) -> np.ndarray:
    """The max over the last axis as the oracle's logsumexp takes it."""
    flat = np.maximum.reduceat(x.reshape(-1), np.arange(0, x.size, x.shape[-1]))
    return flat.reshape(x.shape[:-1])


def _by_ragged_reduceat(ufunc):
    """The reduction over the last axis as the nested rule takes it: each row
    one segment of a (2, nodes) array, between segments of other lengths,
    all reduced by one ``reduceat`` along the nodes.

    ``add.reduceat`` does not sum pairwise as ``np.sum`` does, so a segment
    is held to the same ``reduceat`` of it alone, which is how a one-table
    block takes it.
    """
    def reduce(x):
        rows = x.reshape(-1, x.shape[-1])
        gaps = np.random.default_rng(rows.shape[0]).integers(1, 9, size=rows.shape[0] + 1)
        pieces = [np.full(gaps[0], 3.0)]
        for row, gap in zip(rows, gaps[1:]):
            pieces += [row, np.full(gap, -2.0)]
        lengths = np.array([piece.size for piece in pieces])
        line = np.concatenate(pieces)
        both = np.stack([line, line[::-1].copy()])
        segments = ufunc.reduceat(both, np.cumsum(lengths) - lengths, axis=1)
        return segments[0, 1::2].reshape(x.shape[:-1])
    return reduce


@pytest.mark.parametrize(
    "reduce, of_row",
    [(lambda x: np.sum(x, axis=-1), np.sum), (lambda x: np.max(x, axis=-1), np.max),
     (_max_by_reduceat, np.max),
     (_by_ragged_reduceat(np.add), lambda row: np.add.reduceat(row, [0])[0]),
     (_by_ragged_reduceat(np.maximum), lambda row: np.maximum.reduceat(row, [0])[0])],
    ids=["sum", "max", "max-by-reduceat", "sum-by-ragged-reduceat", "max-by-ragged-reduceat"],
)
def test_last_axis_reductions_are_the_reductions_of_each_row(reduce, of_row):
    rng = np.random.default_rng(7)
    for length in LENGTHS:
        rows = rng.normal(size=(5, length)) * np.exp(rng.uniform(-30, 30, size=(5, 1)))
        want = np.array([of_row(row) for row in rows])
        assert reduce(rows).tobytes() == want.tobytes(), length
        # the nested rule reduces (rows, blocks, nodes) arrays the same way
        cube = np.stack([rows, 2.0 * rows, rows[::-1]], axis=1)
        want = np.array([[of_row(line) for line in block] for block in cube])
        assert reduce(cube).tobytes() == want.tobytes(), length


def _bits(records):
    return [(r.trial, r.effect, r.log_bf10_bic.hex(), r.log_bf10_default.hex()) for r in records]


def _block_of(patch, config, trials: int) -> None:
    """Bound the blocks of ``config`` to ``trials`` trials each."""
    per_trial = config.a_levels * config.b_levels * config.cell_n
    patch.setattr(bicbf.simulate, "_BLOCK_VALUES", trials * per_trial)


@pytest.fixture(scope="module")
def alone():
    """Every trial of a 70-trial study, each evaluated as a block of its own."""
    config = SimulationConfig(cell_n=5, g=0.2, trials=70, seed=3)
    with pytest.MonkeyPatch.context() as patch:
        _block_of(patch, config, 1)
        return config, run_simulation(config)


@pytest.mark.parametrize("block", [1, 7, 64, None],
                         ids=["block-1", "block-7", "block-64", "default"])
def test_records_do_not_depend_on_the_block(monkeypatch, alone, block):
    # 70 trials put block edges at 7, 14, ... or at 64, and are one block by
    # default; g = 0.2 on a 2x3x5 design gives the trials different outer
    # node counts.
    config, want = alone
    if block is not None:
        _block_of(monkeypatch, config, block)
    assert _bits(run_simulation(config)) == _bits(want)


def test_block_records_are_the_one_trial_oracle(alone):
    config, records = alone
    for r in records[::5]:
        data = generate_dataset(config, r.trial)
        assert r.log_bf10_default.hex() == default_bf10(data, r.effect, config.oracle).log_bf.hex()


@pytest.mark.parametrize("start, size", [(0, 1), (5, 7), (0, 64), (63, 2), (64, 64)],
                         ids=["block-1", "block-7", "block-64", "across-64", "from-64"])
def test_a_block_row_is_the_one_trial_dataset(start, size):
    config = SimulationConfig(cell_n=5, g=0.2, trials=200, seed=3)
    y = bicbf.simulate._block_data(config, range(start, start + size))
    assert y.shape == (size, 2, 3, 5)
    for t in range(start, start + size):
        assert generate_dataset(config, t).y.tobytes() == y[t - start].tobytes(), t


def test_progress_fires_per_trial_in_order_when_its_block_is_done(monkeypatch):
    config = SimulationConfig(cell_n=2, g=0.0, trials=5, seed=0)
    _block_of(monkeypatch, config, 2)
    seen = []
    real = bicbf.simulate._block_records

    def spy(cfg, trials):
        seen.append(("block", trials.start))
        return real(cfg, trials)

    monkeypatch.setattr(bicbf.simulate, "_block_records", spy)
    run_simulation(config, progress=lambda done, total: seen.append((done, total)))
    assert seen == [("block", 0), (1, 5), (2, 5), ("block", 2), (3, 5), (4, 5),
                    ("block", 4), (5, 5)]


# Failing datasets of the 2x3x3 design below, one per stage that can fail.
CONSTANT = np.zeros((2, 3, 3))  # the BIC of effect A: zero error variance


def _double_range() -> np.ndarray:
    """Passes the BIC and the main-effect oracles, fails the interaction's:
    SSE/SST is about 1e-200, so its posterior of g leaves the double range."""
    y = np.empty((2, 3, 3))
    y[:] = 1e100 * np.array([[0.0, -2.0, 3.0], [-1.0, 5.0, 0.5]])[:, :, None]
    y[0, 0] += np.array([1.0, -1.0, 0.0])
    return y


def _a_double_range() -> np.ndarray:
    """Passes the BIC and B's oracle, fails the set-ups of A and of AB: only
    factor A varies, by 2^330 against an SSE of 8, so SSE/SST, the residual
    share of both models, is about 4e-199."""
    y = np.zeros((2, 3, 3))
    y[1] = 2.0**330
    y[0, 0] = [2.0, -2.0, 0.0]
    return y


NOT_FINITE = np.full((2, 3, 3), math.nan)  # the dataset itself


def _sabotage(monkeypatch, bad: dict[int, np.ndarray]) -> None:
    """Replace the generated rows of the ``bad`` trials in every block."""
    real = bicbf.simulate._block_data

    def sabotaged(cfg, trials):
        y = real(cfg, trials)
        for row, trial in enumerate(trials):
            if trial in bad:
                y[row] = bad[trial]
        return y

    monkeypatch.setattr(bicbf.simulate, "_block_data", sabotaged)


def _error(config, block: int | None = None) -> str:
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            _block_of(patch, config, block)
        with pytest.raises(SimulationError) as info:
            run_simulation(config)
    return str(info.value)


def test_the_failing_datasets_fail_where_intended():
    for y, failing, match in ((CONSTANT, ("A",), "constant response"),
                              (_double_range(), ("AB",), "sum of squares 2.0 .* double range"),
                              (_a_double_range(), ("A", "AB"), "sum of squares 8.0 .* double range")):
        data = FactorialDataset(2, 3, 3, y)
        for effect in ("A", "B", "AB"):
            if effect in failing:
                with pytest.raises(DegenerateDataError, match=match):
                    default_bf10(data, effect)
            elif y is not CONSTANT:
                assert math.isfinite(default_bf10(data, effect).log_bf)
    # the two failures of one dataset tell their models apart
    data = FactorialDataset(2, 3, 3, _a_double_range())
    for effect, model in (("A", "A"), ("AB", "A+B+AB")):
        with pytest.raises(DegenerateDataError, match=f"of model {re.escape(model)}: "):
            default_bf10(data, effect)


@pytest.mark.parametrize(
    "bad, lowest, match",
    [
        ({3: _double_range(), 10: CONSTANT}, 3, "double range"),
        ({3: CONSTANT, 10: _double_range()}, 3, "zero error variance"),
        ({5: NOT_FINITE, 2: _double_range()}, 2, "double range"),
        ({2: NOT_FINITE, 5: CONSTANT}, 2, "finite"),
        ({63: _double_range(), 64: CONSTANT}, 63, "double range"),
        ({64: _double_range(), 69: NOT_FINITE}, 64, "double range"),
        # set-ups of different effects failing in one block, and two effects
        # of one trial (A's set-up is checked first; both give one message)
        ({3: _double_range(), 5: _a_double_range()}, 3, "sum of squares 2.0"),
        ({3: _a_double_range(), 5: _double_range()}, 3, "sum of squares 8.0"),
        ({4: _a_double_range()}, 4, "sum of squares 8.0"),
    ],
    ids=["late-then-early", "early-then-late", "generation-after-oracle",
         "generation-first", "last-of-a-block", "first-of-a-block",
         "interaction-then-main-effect", "main-effect-then-interaction",
         "two-effects-of-one-trial"],
)
def test_error_names_the_lowest_failing_trial(monkeypatch, bad, lowest, match):
    config = SimulationConfig(cell_n=3, g=0.2, trials=70, seed=0)
    _sabotage(monkeypatch, bad)
    message = _error(config)
    assert message.startswith(f"trial {lowest}: ") and match in message
    # the same message as the trial run on its own, and in blocks of 1, 7 and 64
    assert message == _error(config, block=1) == _error(config, block=7)
    assert message == _error(config, block=64)
    assert message == _error(replace(config, trials=lowest + 1), block=1)


def test_a_late_failure_is_found_by_halving(monkeypatch):
    # one block of 1000 trials; one-trial re-runs would take 991 calls
    config = SimulationConfig(cell_n=3, g=0.2, trials=1000, seed=0)
    _sabotage(monkeypatch, {990: CONSTANT})
    calls = []
    real = bicbf.simulate._block_records

    def spy(cfg, trials):
        calls.append(trials)
        return real(cfg, trials)

    monkeypatch.setattr(bicbf.simulate, "_block_records", spy)
    assert _error(config).startswith("trial 990: ")
    # each failing block of several trials calls at most two halves, of
    # which only the failing one calls again
    assert calls[0] == range(1000) and calls[-1] == range(990, 991)
    assert len(calls) <= 2 * math.ceil(math.log2(1000)) + 1, calls


def test_a_trial_failing_two_effects_reports_the_first(monkeypatch):
    # A's set-up runs before AB's, so trial 4 names model A
    _sabotage(monkeypatch, {4: _a_double_range()})
    message = _error(SimulationConfig(cell_n=3, g=0.2, trials=10, seed=0))
    assert message.startswith("trial 4: ") and "of model A: " in message


FLAT_CELLS = np.arange(6.0).reshape(2, 3, 1).repeat(3, axis=2)  # zero SSE, cells differ


def _overflowing() -> np.ndarray:
    """Factor A's sum of squares overflows to inf, the error's stays finite."""
    y = np.random.default_rng(9).normal(size=(2, 3, 3))
    y[0] = 1e200
    return y


@pytest.mark.parametrize(
    "trial, bad, match",
    [(5, FLAT_CELLS, "zero error variance"), (3, _overflowing(), "sums of squares left the double range")],
    ids=["flat-cells", "overflow"],
)
def test_the_block_bic_fails_as_the_trial_alone_without_warnings(monkeypatch, trial, bad,
                                                                 match):
    # the CI runs the CLI with PYTHONWARNINGS=error::RuntimeWarning
    config = SimulationConfig(cell_n=3, g=0.2, trials=20, seed=0)
    _sabotage(monkeypatch, {trial: bad})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _error(config)
        alone = _error(replace(config, trials=trial + 1), block=1)
    assert message.startswith(f"trial {trial}: ") and match in message
    assert message == alone


def test_a_block_without_special_rows_builds_no_table_or_statistic(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a per-trial object was built")

    for module, name in ((bicbf.anova._Block, "table"), (bicbf.anova, "AnovaTable"),
                         (bicbf.summary, "SummaryStat"), (bicbf.summary, "BayesFactorValue")):
        monkeypatch.setattr(module, name, built)
    for cell_n in (50, 20, 2):
        assert len(run_simulation(SimulationConfig(cell_n=cell_n, g=0.2, trials=30, seed=1))) == 90


def test_a_block_holds_a_bounded_number_of_observations():
    # 16 trials of 120 000 observations each would stack 15 MB of data
    # alone, and the fit makes several arrays of that size.
    config = SimulationConfig(cell_n=20000, g=0.2, trials=16, seed=1)
    tracemalloc.start()
    try:
        run_simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_a_block_of_small_trials_holds_little_memory_per_trial():
    # A 2x2x2 design stacks up to 32 768 trials in one block; the oracle's
    # transient arrays measured about 2 KB per trial.
    config = SimulationConfig(cell_n=2, g=0.2, trials=2000, seed=1, a_levels=2, b_levels=2)
    tracemalloc.start()
    try:
        run_simulation(config)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - kept) / config.trials < 4096, (peak - kept) / config.trials


def test_a_block_builds_one_trials_generators_at_a_time():
    # 8192 trials of a 2x2x2 design took some 1.8 KB per trial when all
    # 16 384 generators were built before the first draw, 0.6 KB since.
    config = SimulationConfig(cell_n=2, g=0.2, trials=8192, seed=1, a_levels=2, b_levels=2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bicbf.simulate._block_data(config, range(config.trials))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / config.trials < 1024, peak / config.trials


@pytest.mark.parametrize("effect, value", [("A", math.inf), ("B", math.nan), ("AB", -math.inf)])
def test_a_non_finite_log_bf_in_one_trial_of_a_block_is_named(monkeypatch, effect, value):
    # the block's log Bayes factors are checked finite in arrays; the trial's
    # error is the one its record would give alone, without numpy warnings
    config = SimulationConfig(cell_n=3, g=0.2, trials=70, seed=0)
    bad_trial = 37
    current = {}
    real_data, real_setup = bicbf.simulate._block_data, bicbf.simulate._setup
    real_evaluate = bicbf.simulate._evaluate

    def block_data(cfg, trials):
        current["trials"] = list(trials)
        return real_data(cfg, trials)

    def setup(block, name, scale):
        current["effect"] = name
        return real_setup(block, name, scale)

    def evaluate(the_setup):
        log_bf = real_evaluate(the_setup)
        if current["effect"] == effect and bad_trial in current["trials"]:
            log_bf[current["trials"].index(bad_trial)] = value
        return log_bf

    monkeypatch.setattr(bicbf.simulate, "_block_data", block_data)
    monkeypatch.setattr(bicbf.simulate, "_setup", setup)
    monkeypatch.setattr(bicbf.simulate, "_evaluate", evaluate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _error(config)
        alone = _error(replace(config, trials=bad_trial + 1), block=1)
    assert message == f"trial {bad_trial}: log_bf10_default must be finite, got {value}"
    assert message == alone
