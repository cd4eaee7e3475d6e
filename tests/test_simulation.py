"""Simulation harness: generation, determinism, summaries, file formats."""

import csv
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import bicbf.simulate
from bicbf import (
    EFFECTS,
    DensitySeries,
    DomainError,
    FiveNumber,
    GPriorSpec,
    RecordTable,
    SimulationConfig,
    SimulationError,
    SimulationRecord,
    bic_bf_for_effect,
    decide,
    default_bf10,
    emit_density_data,
    fit_two_way,
    generate_dataset,
    read_config,
    read_records,
    run_simulation,
    silverman_bandwidth,
    summarize,
    write_config,
    write_density_data,
    write_records,
)
from bicbf.cli import main as cli_main
from bicbf.rng import substream


def table_of(rows):
    """A table of (trial, effect, log_bf10_bic, log_bf10_default) rows, built
    as its columns."""
    trial, effect, bic, default = zip(*rows) if rows else ((),) * 4
    return RecordTable(np.array(trial, dtype=object), [EFFECTS.index(e) for e in effect],
                       bic, default)


def values_table(values):
    """The table of (trials, 3, 2) values: per trial and effect, both log BFs."""
    trials = len(values)
    return RecordTable(np.repeat(np.arange(trials), 3), np.tile(np.arange(3), trials),
                       values[..., 0].ravel(), values[..., 1].ravel())


@pytest.fixture(scope="module")
def null_run():
    """A hundred null trials at the study's dataset size."""
    config = SimulationConfig(cell_n=50, g=0.0, trials=100, seed=2026)
    return config, run_simulation(config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError, match="cell_n"):
            SimulationConfig(cell_n=1, g=0.0, trials=1, seed=0)
        with pytest.raises(DomainError, match="g must be"):
            SimulationConfig(cell_n=2, g=-0.1, trials=1, seed=0)
        with pytest.raises(DomainError, match="g must be"):
            SimulationConfig(cell_n=2, g=math.nan, trials=1, seed=0)
        with pytest.raises(DomainError, match="trials"):
            SimulationConfig(cell_n=2, g=0.0, trials=0, seed=0)
        with pytest.raises(DomainError, match="seed"):
            SimulationConfig(cell_n=2, g=0.0, trials=1, seed=-1)
        with pytest.raises(DomainError, match="levels"):
            SimulationConfig(cell_n=2, g=0.0, trials=1, seed=0, a_levels=1)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"cell_n": 2.5}, "cell_n must be an integer, got 2.5"),
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"a_levels": 2.0}, "a_levels must be an integer, got 2.0"),
            ({"b_levels": True}, "b_levels must be an integer, got True"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"g": True}, "g must be a real number, got True"),
            ({"g": "0.2"}, "g must be a real number, got '0.2'"),
        ],
        ids=["fractional-cell_n", "fractional-trials", "float-a_levels", "bool-b_levels",
             "fractional-seed", "bool-g", "text-g"],
    )
    def test_values_it_cannot_run_or_write_back_are_refused(self, setting, message):
        # each ran into a bare TypeError, a trial's error or an unreadable config
        base = {"cell_n": 3, "g": 0.2, "trials": 2, "seed": 1}
        with pytest.raises(DomainError) as caught:
            SimulationConfig(**{**base, **setting})
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"scale": True}, "scale must be a real number, got True"),
            ({"scale": "0.5"}, "scale must be a real number, got '0.5'"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"mc_samples": 2000.5}, "mc_samples must be an integer, got 2000.5"),
        ],
        ids=["bool-scale", "text-scale", "bool-seed", "fractional-mc_samples"],
    )
    def test_oracle_values_it_cannot_write_back_are_refused(self, setting, message):
        # each was written to a config file that read_config rejects
        with pytest.raises(DomainError) as caught:
            GPriorSpec(**setting)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: SimulationConfig(cell_n=2, g=10**400, trials=1, seed=1), "g"),
            (lambda: SimulationConfig(cell_n=2, g=Fraction(10**400, 3), trials=1, seed=1), "g"),
            (lambda: GPriorSpec(scale=10**400), "scale"),
            (lambda: GPriorSpec(scale=-(10**400)), "scale"),
        ],
        ids=["int-g", "fraction-g", "int-scale", "negative-int-scale"],
    )
    def test_real_values_beyond_the_double_range_are_refused(self, make, field):
        # converting each to a float raised a bare OverflowError
        with pytest.raises(DomainError) as caught:
            make()
        assert str(caught.value) == f"{field} must be at most 1.79769e+308 in magnitude"

    @pytest.mark.parametrize(
        "a, b, cell_n",
        [(2, 3, 10**19), (2, 2, 2**58), (2**59, 2, 2), (2, 3, 10**400)],
        ids=["1e19-cells", "two-to-the-63-bytes", "two-to-the-59-levels", "1e400-cells"],
    )
    def test_a_trial_array_numpy_cannot_describe_is_refused(self, a, b, cell_n):
        # np.empty raised a ValueError at the first draw: "Maximum allowed
        # dimension exceeded", or "array is too big"
        with pytest.raises(DomainError) as caught:
            SimulationConfig(cell_n=cell_n, g=0.2, trials=2, seed=1, a_levels=a, b_levels=b)
        assert str(caught.value) == (
            f"one trial of {a}x{b} cells of {cell_n} observations is too large for a numpy "
            "array: a*b*cell_n*8 bytes must be below 2**63")

    def test_the_largest_trial_array_numpy_can_describe_runs_out_of_memory(self):
        # 2**63 - 32 bytes: numpy refuses to allocate them without touching memory
        config = SimulationConfig(cell_n=2**58 - 1, g=0.2, trials=2, seed=1,
                                  a_levels=2, b_levels=2)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            generate_dataset(config, 0)

    def test_fractions_are_kept_as_floats_and_read_back_equal(self, tmp_path):
        # g = 1/5 was written as "g = 1/5", which read_config rejects
        config = SimulationConfig(cell_n=3, g=Fraction(1, 5), trials=2, seed=1,
                                  oracle=GPriorSpec(scale=Fraction(1, 2)))
        assert (type(config.g), type(config.oracle.scale)) == (float, float)
        write_config(config, tmp_path / "config.txt")
        assert read_config(tmp_path / "config.txt") == config
        assert run_simulation(config) == run_simulation(
            SimulationConfig(cell_n=3, g=0.2, trials=2, seed=1, oracle=GPriorSpec(scale=0.5)))

    def test_numpy_numbers_are_accepted(self, tmp_path):
        config = SimulationConfig(cell_n=np.int64(3), g=np.float64(0.2), trials=np.uint8(2),
                                  seed=np.int32(1), a_levels=np.int16(2))
        assert run_simulation(config) == run_simulation(
            SimulationConfig(cell_n=3, g=0.2, trials=2, seed=1))
        write_config(config, tmp_path / "config.txt")
        assert read_config(tmp_path / "config.txt") == config


class TestGeneration:
    def test_zero_g_dataset_is_exactly_the_noise_stream(self):
        config = SimulationConfig(cell_n=4, g=0.0, trials=3, seed=99)
        data = generate_dataset(config, 2)
        eps = substream(99, "noise", 2).standard_normal((2, 3, 4))
        assert np.array_equal(data.y, eps)

    def test_coupling_shares_noise_and_scales_effects(self):
        base = SimulationConfig(cell_n=5, g=0.0, trials=4, seed=17)
        d0 = generate_dataset(base, 1)
        d_small = generate_dataset(replace(base, g=0.05), 1)
        d_large = generate_dataset(replace(base, g=0.2), 1)
        # Effect contributions are cell-constant, so the difference from the
        # null dataset has no within-cell spread beyond rounding.
        diff_small = d_small.y - d0.y
        diff_large = d_large.y - d0.y
        assert np.ptp(diff_small, axis=2).max() < 1e-12
        # Same standard normal draws scaled by sqrt(g).
        assert np.allclose(
            diff_large / math.sqrt(0.2), diff_small / math.sqrt(0.05), atol=1e-10
        )

    @pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 4), (4, 5)])
    def test_effects_are_drawn_term_by_term(self, a, b):
        # alpha, tau, then gamma row by row, as one draw of a + b + a*b values
        config = SimulationConfig(cell_n=3, g=0.2, trials=4, seed=8, a_levels=a, b_levels=b)
        for trial in range(config.trials):
            draws = substream(8, "effects", trial).standard_normal(a + b + a * b)
            effects = math.sqrt(0.2) * draws
            eps = substream(8, "noise", trial).standard_normal((a, b, 3))
            alpha, tau, gamma = effects[:a], effects[a : a + b], effects[a + b :]
            cells = alpha[:, None, None] + tau[None, :, None] + gamma.reshape(a, b, 1)
            assert generate_dataset(config, trial).y.tobytes() == (cells + eps).tobytes()

    def test_trials_are_distinct(self):
        config = SimulationConfig(cell_n=3, g=0.1, trials=2, seed=5)
        assert not np.array_equal(
            generate_dataset(config, 0).y, generate_dataset(config, 1).y
        )

    def test_row_mean_difference_matches_theoretical_variance(self):
        # Mean of row 1 minus row 2 has variance 2g + 2g/b + 2/(b*cell_n):
        # the alpha difference, the averaged interaction, and the noise.
        config = SimulationConfig(
            cell_n=200, g=0.2, trials=4000, seed=2026, a_levels=2, b_levels=2
        )
        diffs = np.empty(config.trials)
        for t in range(config.trials):
            y = generate_dataset(config, t).y
            diffs[t] = y[0].mean() - y[1].mean()
        want = 2 * 0.2 + 2 * 0.2 / 2 + 2.0 / (2 * 200)
        three_se = 3 * want * math.sqrt(2.0 / (config.trials - 1))
        assert abs(diffs.var(ddof=1) - want) < three_se
        assert abs(diffs.mean()) < 3 * math.sqrt(want / config.trials)


class TestRunSimulation:
    def test_record_layout(self, null_run):
        config, records = null_run
        assert len(records) == 3 * config.trials
        for t in range(config.trials):
            chunk = records[3 * t : 3 * t + 3]
            assert [r.trial for r in chunk] == [t, t, t]
            assert [r.effect for r in chunk] == ["A", "B", "AB"]

    def test_reruns_are_identical(self, null_run):
        config, records = null_run
        small = SimulationConfig(
            cell_n=config.cell_n, g=config.g, trials=5, seed=config.seed,
            oracle=config.oracle,
        )
        again = run_simulation(small)
        assert again == records[: 3 * 5]

    def test_progress_callback(self):
        config = SimulationConfig(cell_n=2, g=0.0, trials=3, seed=0)
        seen = []
        run_simulation(config, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_oracle_column_is_the_public_default_bf10(self):
        # The harness evaluates the oracle on the table it already fitted;
        # that must give exactly what the public entry point gives.
        config = SimulationConfig(cell_n=3, g=0.1, trials=4, seed=8)
        for r in run_simulation(config):
            data = generate_dataset(config, r.trial)
            want = default_bf10(data, r.effect, config.oracle)
            assert r.log_bf10_default == want.log_bf

    def test_bic_floors_hold_on_every_record(self, null_run):
        config, records = null_run
        n = config.a_levels * config.b_levels * config.cell_n
        floors = {"A": -0.5 * math.log(n), "B": -math.log(n), "AB": -math.log(n)}
        for r in records:
            assert r.log_bf10_bic >= floors[r.effect] - 1e-12

    def test_null_trials_rarely_favor_h1(self, null_run):
        _, records = null_run
        group = [r for r in records if r.effect == "A"]
        rate = sum(r.decision_bic == "H1" for r in group) / len(group)
        assert rate < 0.10

    def test_degenerate_trial_is_named_in_the_error(self, monkeypatch):
        config = SimulationConfig(cell_n=3, g=0.0, trials=3, seed=0)
        real = bicbf.simulate._block_data

        def sabotaged(cfg, trials):
            y = real(cfg, trials)
            for row, trial in enumerate(trials):
                if trial == 1:
                    y[row] = np.zeros((2, 3, 3))
            return y

        monkeypatch.setattr(bicbf.simulate, "_block_data", sabotaged)
        with pytest.raises(SimulationError, match="trial 1"):
            run_simulation(config)


class TestRecordsAndDecisions:
    def test_decide_rule(self):
        assert decide(0.0) == "H0"
        assert decide(-3.0) == "H0"
        assert decide(5e-300) == "H1"

    def test_record_validation(self):
        with pytest.raises(DomainError, match="effect"):
            RecordTable([0], [3], [1.0], [1.0])
        with pytest.raises(DomainError, match="trial"):
            table_of([(-1, "A", 1.0, 1.0)])
        with pytest.raises(DomainError, match="finite"):
            table_of([(0, "A", math.inf, 1.0)])


class TestSummaries:
    def test_five_number_known_values(self):
        assert FiveNumber.of([0.0, 1.0, 2.0, 3.0, 4.0]).as_tuple() == (0, 1, 2, 3, 4)
        assert FiveNumber.of([3.0, 0.0, 2.0, 1.0]).as_tuple() == (0.0, 0.75, 1.5, 2.25, 3.0)
        assert FiveNumber.of([2.5]).as_tuple() == (2.5, 2.5, 2.5, 2.5, 2.5)
        with pytest.raises(DomainError, match="no values"):
            FiveNumber.of([])

    def test_summarize_counts_and_consistency(self):
        table = table_of([
            (0, "A", 1.0, 2.0),    # H1 / H1
            (1, "A", -1.0, -2.0),  # H0 / H0
            (2, "A", 1.0, -1.0),   # H1 / H0
            (3, "A", -0.5, -0.1),  # H0 / H0
        ])
        out = summarize(table)
        assert set(out) == {"A"}
        assert out["A"].n_trials == 4
        assert out["A"].consistency == 0.75
        assert out["A"].bic.as_tuple() == (-1.0, -0.625, 0.25, 1.0, 1.0)

    def test_summarize_groups_by_effect(self, null_run):
        _, records = null_run
        out = summarize(records)
        assert set(out) == {"A", "B", "AB"}
        for effect, summary in out.items():
            assert summary.effect == effect
            assert summary.n_trials == 100
            assert 0.0 <= summary.consistency <= 1.0
            assert summary.bic.minimum <= summary.bic.median <= summary.bic.maximum

    def test_summarize_empty(self):
        with pytest.raises(DomainError, match="no records"):
            summarize(table_of([]))

    @pytest.mark.parametrize("kind", ["random", "tied", "two-values", "wide-range"])
    def test_the_quantiles_are_numpys_percentiles_bit_for_bit(self, kind):
        # np.percentile loads numpy.ma through np.unique; its linear rule is
        # reproduced on np.sort, interpolation included
        rng = np.random.default_rng(["random", "tied", "two-values", "wide-range"].index(kind))
        for n in [*range(1, 41), 99, 100, 101, 300, 873, 1000, 1001]:
            values = {"random": lambda: rng.standard_normal(n),
                      "tied": lambda: rng.integers(-2, 3, n).astype(float),
                      "two-values": lambda: np.where(rng.random(n) < 0.5, 1.5, -2.25),
                      "wide-range": lambda: rng.standard_normal(n) * 10.0 ** rng.integers(
                          -300, 300, n)}[kind]()
            for q in (bicbf.simulate._FIVE, np.array([0.25, 0.75])):
                mine = bicbf.simulate._quantiles(values, q)
                assert mine.tobytes() == np.percentile(values, 100 * q).tobytes(), (n, q)
            assert FiveNumber.of(values.tolist()).as_tuple() == tuple(
                np.percentile(values, [0, 25, 50, 75, 100]).tolist())

    def test_the_quantiles_of_nan_and_infinities_are_numpys(self):
        for values in ([1.0, math.nan, 2.0], [0.0, math.inf], [-math.inf, 1.0, math.inf],
                       [math.nan]):
            array = np.array(values)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mine = bicbf.simulate._quantiles(array, bicbf.simulate._FIVE)
                theirs = np.percentile(array, [0, 25, 50, 75, 100])
            assert mine.tobytes() == theirs.tobytes(), values

    def test_silverman_bandwidth_takes_numpys_quartiles(self):
        rng = np.random.default_rng(4)
        for values in (rng.standard_normal(300), rng.integers(0, 4, 51).astype(float)):
            q1, q3 = np.percentile(values, [25, 75])
            iqr = float(q3 - q1)
            sd = float(np.std(values, ddof=1))
            spread = min(sd, iqr / 1.349) if iqr > 0 else sd
            assert silverman_bandwidth(values) == 0.9 * spread * values.size ** (-0.2)


class TestDensity:
    def test_two_point_closed_form(self):
        table = table_of([(0, "A", 0.0, 0.0), (1, "A", 1.0, 1.0)])
        series = emit_density_data(table, bandwidth=0.5)
        assert [(s.effect, s.bf_type) for s in series] == [("A", "bic"), ("A", "default")]
        s = series[0]
        assert s.bandwidth == 0.5
        assert s.x[0] == pytest.approx(-1.5)
        assert s.x[-1] == pytest.approx(2.5)
        assert s.x.size == 512
        h = 0.5
        want = (
            np.exp(-0.5 * (s.x / h) ** 2) + np.exp(-0.5 * ((s.x - 1.0) / h) ** 2)
        ) / (2 * h * math.sqrt(2 * math.pi))
        assert np.allclose(s.density, want, rtol=1e-12, atol=1e-300)

    def test_densities_integrate_to_one(self, null_run):
        _, records = null_run
        for s in emit_density_data(records):
            mass = np.trapezoid(s.density, s.x)
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_values_give_symmetric_density(self):
        values = [-2.0, -1.0, 1.0, 2.0]
        table = table_of([(t, "A", v, v) for t, v in enumerate(values)])
        s = emit_density_data(table, bandwidth=0.8)[0]
        assert np.allclose(s.density, s.density[::-1], atol=1e-10)

    def test_silverman_rule(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        sd = float(np.std(values, ddof=1))
        want = 0.9 * min(sd, 2.0 / 1.349) * 5 ** (-0.2)
        assert silverman_bandwidth(values) == pytest.approx(want, rel=1e-12)

    def test_silverman_falls_back_to_sd_when_iqr_vanishes(self):
        values = [0.0, 0.0, 0.0, 0.0, 1.0]
        sd = float(np.std(values, ddof=1))
        assert silverman_bandwidth(values) == pytest.approx(
            0.9 * sd * 5 ** (-0.2), rel=1e-12
        )
        with pytest.raises(DomainError, match="distinct"):
            silverman_bandwidth([1.0, 1.0, 1.0])

    def test_constant_group_is_named(self):
        table = table_of([(0, "A", 1.0, 0.5), (1, "A", 1.0, 0.7)])
        with pytest.raises(DomainError, match="effect A, bic"):
            emit_density_data(table)

    def test_bandwidth_validation(self, null_run):
        _, records = null_run
        with pytest.raises(DomainError, match="bandwidth"):
            emit_density_data(records, bandwidth=0.0)
        with pytest.raises(DomainError, match="bandwidth"):
            emit_density_data(records, bandwidth=math.nan)

    @pytest.mark.parametrize("bandwidth, fault", [
        (math.inf, "finite"), (-math.inf, "finite"), (math.nan, "finite"),
        (0, "positive"), (-1.0, "positive"), (-1e-300, "positive")])
    def test_a_bandwidth_out_of_range_is_named_by_its_fault(self, bandwidth, fault):
        table = table_of([(0, "A", 1.0, 1.0), (1, "A", 2.0, 2.0)])
        with pytest.raises(DomainError) as info:
            emit_density_data(table, bandwidth=bandwidth)
        assert str(info.value) == f"bandwidth must be {fault}, got {float(bandwidth)}"

    @pytest.mark.parametrize("bandwidth", [1e308, 1e-320], ids=["grid", "density"])
    def test_bandwidth_beyond_the_double_range_is_named(self, bandwidth):
        # 1e308 takes the grid's ends to inf; at 1e-320 the grid's ends round
        # to the data points, where the density 1 / (2 h sqrt(2 pi)) is inf
        table = table_of([(0, "A", 1.0, 1.0), (1, "A", 2.0, 2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"bandwidth {bandwidth!r} takes the effect A, bic density grid or values"
            with pytest.raises(DomainError, match=re.escape(message)):
                emit_density_data(table, bandwidth=bandwidth)

    def test_tiny_bandwidth_gives_finite_spikes_without_warnings(self):
        # the grid's ends round to the data points; between them z * z
        # overflows, and exp(-inf) = 0 is right
        table = table_of([(0, "A", 1.0, 1.0), (1, "A", 2.0, 2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = emit_density_data(table, bandwidth=1e-300)[0]
        peak = 1.0 / (2 * 1e-300 * math.sqrt(2 * math.pi))
        assert s.density[0] == s.density[-1] == pytest.approx(peak, rel=1e-12)
        assert np.all(s.density[1:-1] == 0.0)


def one_shot_density(values, h):
    """Grid and density by the one-shot formula, one (rows, values) array
    per slab of grid rows; its rows are independent, and slabs of 2^21
    values bound the test's memory at large groups."""
    with np.errstate(all="ignore"):
        x = np.linspace(values.min() - 3 * h, values.max() + 3 * h, 512)
        rows = max(1, 2**21 // values.size)
        sums = []
        for start in range(0, x.size, rows):
            z = (x[start : start + rows, None] - values[None, :]) / h
            sums.append(np.exp(-0.5 * z * z).sum(axis=1))
        return x, np.concatenate(sums) / (values.size * h * math.sqrt(2.0 * math.pi))


class TestChunkedDensity:
    """The kernel sums run in chunks of grid rows; every bit stays the
    one-shot formula's, whatever the group size and bandwidth."""

    # 1000 values give chunks of 16 rows and 32 chunks; 16385 and 33000
    # give chunks of one row
    @pytest.mark.parametrize("size", [1000, 16385, 33000])
    @pytest.mark.parametrize("bandwidth", [1e-300, 0.5, 1e150, None],
                             ids=["tiny", "half", "huge", "silverman"])
    def test_densities_are_bitwise_the_one_shot_formula(self, size, bandwidth):
        rng = np.random.default_rng(size)
        bic = np.round(rng.standard_normal(size) * 10, 3)  # ties, far tails
        default = rng.standard_cauchy(size)
        table = RecordTable(np.arange(size), np.zeros(size, dtype=np.int8), bic, default)
        series = emit_density_data(table, bandwidth=bandwidth)
        for s, values in zip(series, (bic, default)):
            h = bandwidth if bandwidth is not None else silverman_bandwidth(values)
            assert s.bandwidth == h
            x, density = one_shot_density(values, h)
            assert np.array_equal(s.x, x)
            assert np.array_equal(s.density, density), (s.bf_type, size, bandwidth)

    def test_memory_does_not_grow_with_grid_times_values(self):
        # one (512, 20000) temporary alone is 78 MiB
        rng = np.random.default_rng(7)
        table = values_table(rng.standard_normal((20000, 3, 2)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            emit_density_data(table)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB traced"


# exp(-700) ~ 9.9e-305 is a normal double; the smallest is ~2.2e-308
EXP_FLOOR = bicbf.simulate._EXP_FLOOR


class TestBracketedDensity:
    """Products below exp(EXP_FLOOR) are bracketed between 0 and
    exp(EXP_FLOOR), not evaluated; every bit stays the one-shot formula's."""

    def test_the_bracket_holds_the_products_below_the_floor(self):
        ceiling = np.exp(EXP_FLOOR)
        assert EXP_FLOOR == -700.0
        assert ceiling >= np.finfo(float).smallest_normal
        below = np.array([np.nextafter(EXP_FLOOR, -np.inf), -700.5, -708.4, -709.0, -720.0,
                          -745.0, -745.2, -800.0, -1e300, -np.finfo(float).max, -np.inf])
        products = np.exp(below)
        assert np.all((0.0 <= products) & (products <= ceiling))
        assert np.any((0.0 < products) & (products < np.finfo(float).smallest_normal))

    def test_a_study_series_that_underflows_is_bitwise_the_one_shot_formula(self):
        table = run_simulation(SimulationConfig(cell_n=20, g=0, trials=1000, seed=1))
        series = emit_density_data(table)
        for s in series[:2]:  # the A series, both routes
            values = (table.log_bf10_bic, table.log_bf10_default)[s.bf_type == "default"]
            values = values[table.effect == EFFECTS.index("A")]
            t = bicbf.simulate._exponents(s.x, values, s.bandwidth)
            with np.errstate(under="ignore"):
                products = np.exp(t)
            assert np.mean(t < EXP_FLOOR) > 0.35, s.bf_type
            subnormal = (products > 0) & (products < np.finfo(float).smallest_normal)
            assert np.mean(subnormal) > 0.01, s.bf_type
            x, density = one_shot_density(values, s.bandwidth)
            assert np.array_equal(s.x, x)
            assert np.array_equal(s.density, density), s.bf_type

    def test_rows_the_bracket_cannot_settle_are_summed_again(self, monkeypatch):
        # two clusters 1000 bandwidths apart: between them every product is
        # clamped, so a row's two bracket sums differ and it is summed again
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.standard_normal(500), 1000.0 + rng.standard_normal(500)])
        table = RecordTable(np.arange(values.size), np.zeros(values.size, dtype=np.int8),
                            values, values)
        summed_again = []
        one_shot = bicbf.simulate._one_shot_sums

        def one_shot_sums(x, values, h):
            summed_again.append(x.size)
            return one_shot(x, values, h)

        monkeypatch.setattr(bicbf.simulate, "_one_shot_sums", one_shot_sums)
        s = emit_density_data(table, bandwidth=1.0)[0]
        t = bicbf.simulate._exponents(s.x, values, 1.0)
        gap = np.all(t < EXP_FLOOR, axis=1)
        assert gap.sum() > 100
        assert sum(summed_again) >= gap.sum()
        x, density = one_shot_density(values, 1.0)
        assert np.array_equal(s.x, x)
        assert np.array_equal(s.density, density)

    def test_a_chunk_holding_a_nan_is_summed_as_the_one_shot_formula(self):
        values = np.array([0.0, 1.0, 2000.0])
        x = np.array([0.5, np.nan, 1000.0, 3000.0])
        with np.errstate(all="ignore"):
            got = bicbf.simulate._kernel_sums(x, values, 1.0)
            z = (x[:, None] - values[None, :]) / 1.0
            want = np.exp(-0.5 * z * z).sum(axis=1)
        assert np.array_equal(got, want, equal_nan=True)



# The writers as they were with the csv module, which the one-format writers
# must match byte for byte.
def csv_write_records(records, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(bicbf.simulate.RESULTS_HEADER)
        for r in records:
            writer.writerow([r.trial, r.effect, "%.17g" % r.log_bf10_bic,
                             "%.17g" % r.log_bf10_default, r.decision_bic, r.decision_default])


def csv_write_density_data(series, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(bicbf.simulate.DENSITY_HEADER)
        for s in series:
            for x, d in zip(s.x, s.density):
                writer.writerow([s.effect, s.bf_type, "%.17g" % x, "%.17g" % d])


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, -2.5, 1e22, 123456789.0]


class TestWritersMatchTheCsvModule:
    def test_results_file_bytes(self, null_run, tmp_path):
        _, run = null_run
        extremes = table_of([(trial, effect, bic, default)
                             for trial, (effect, bic, default) in zip(
                                 [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 7, 8, 9, 10, 11],
                                 zip(["A", "B", "AB"] * 4, EXTREMES, EXTREMES[::-1]))])
        # trials 0-11 of the run would repeat (trial, effect) keys of the
        # extremes, and a results file holds each key once
        for rows in (table_of([]), extremes, RecordTable.concat([run[3 * 12 :], extremes])):
            want, got = tmp_path / "want.csv", tmp_path / "got.csv"
            csv_write_records(rows, want)
            write_records(rows, got)
            assert got.read_bytes() == want.read_bytes()
            assert read_records(got) == rows

    def test_density_file_bytes(self, null_run, tmp_path):
        _, records = null_run
        extremes = np.array(EXTREMES)
        series = [*emit_density_data(records),
                  DensitySeries("AB", "default", 1.0, extremes, extremes[::-1].copy()),
                  DensitySeries("A", "bic", 1.0, np.array([]), np.array([]))]
        for rows in ([], series[:1], series):
            want, got = tmp_path / "want.csv", tmp_path / "got.csv"
            csv_write_density_data(rows, want)
            write_density_data(rows, got)
            assert got.read_bytes() == want.read_bytes()


class TestResultsFiles:
    def test_round_trip_is_exact(self, null_run, tmp_path):
        _, records = null_run
        path = tmp_path / "results.csv"
        write_records(records, path)
        first = path.read_text().splitlines()[0]
        assert first == "trial,effect,log_bf10_bic,log_bf10_default,decision_bic,decision_default"
        assert read_records(path) == records

    def test_bad_header(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("trial,effect,nope\n")
        with pytest.raises(DomainError, match="expected header"):
            read_records(path)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "results.csv"
        write_records(table_of([(0, "A", 1.0, 1.0), (1, "A", -1.0, 1.0)]), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("-1", "oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="results.csv:3"):
            read_records(path)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(b"\xff\xfet\x00r\x00")  # a UTF-16 byte-order mark
        with pytest.raises(DomainError, match="results.csv:1: 'utf-8' codec can't decode byte "
                                              "0xff in position 0: invalid start byte"):
            read_records(path)

    def test_tampered_decision_is_caught(self, tmp_path):
        path = tmp_path / "results.csv"
        write_records(table_of([(0, "A", -1.0, 1.0)]), path)
        text = path.read_text().replace("H0", "H1")
        path.write_text(text)
        with pytest.raises(DomainError, match="results.csv:2.*contradicts"):
            read_records(path)

    def test_density_file_layout(self, tmp_path):
        table = table_of([(0, "A", 0.0, 0.0), (1, "A", 1.0, 1.0)])
        series = emit_density_data(table, bandwidth=0.5)
        path = tmp_path / "density.csv"
        write_density_data(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "effect,bf_type,x,density"
        assert len(lines) == 1 + 2 * 512
        first = lines[1].split(",")
        assert first[0] == "A" and first[1] == "bic"
        assert float(first[2]) == series[0].x[0]


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        config = SimulationConfig(
            cell_n=50, g=0.05, trials=1000, seed=2026, a_levels=3, b_levels=4,
            oracle=GPriorSpec(scale=1.0, mc_samples=2000, seed=7),
        )
        path = tmp_path / "config.txt"
        write_config(config, path)
        assert read_config(path) == config

    def test_defaults_apply_for_missing_optionals(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("cell_n = 10\ng = 0.2\ntrials = 25\nseed = 4\n")
        config = read_config(path)
        assert (config.a_levels, config.b_levels) == (2, 3)
        assert config.oracle == GPriorSpec()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(
            "# study condition\n\ncell_n = 10\ng = 0.0\n trials = 5 \nseed = 0\n"
        )
        assert read_config(path).trials == 5

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("cell_n = 10\ng = 0.0\ntrials = 5\nseed = 0\nbogus = 1\n")
        with pytest.raises(DomainError, match="config.txt:5: unknown key 'bogus'"):
            read_config(path)

    def test_repeated_key(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("cell_n = 10\ncell_n = 11\ng = 0.0\ntrials = 5\nseed = 0\n")
        with pytest.raises(DomainError, match="repeated key"):
            read_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("cell_n = 10\ng = 0.0\nseed = 0\n")
        with pytest.raises(DomainError, match="missing required keys.*trials"):
            read_config(path)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"\xff\xfec\x00e\x00")  # a UTF-16 byte-order mark
        with pytest.raises(DomainError, match="config.txt: 'utf-8' codec can't decode"):
            read_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("cell_n 10\n")
        with pytest.raises(DomainError, match="config.txt:1"):
            read_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("cell_n = ten\ng = 0.0\ntrials = 5\nseed = 0\n")
        with pytest.raises(DomainError, match="'cell_n'"):
            read_config(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("cell_n = 1\n", "cell_n must be at least 2, got 1"),
            ("cell_n = 10\noracle.scale = inf\n", "scale must be finite and positive, got inf"),
            ("cell_n = 10\noracle.mc_samples = 10\n", "mc_samples must be at least 1000, got 10"),
        ],
        ids=["cell_n", "oracle.scale", "oracle.mc_samples"],
    )
    def test_invalid_value_names_the_file(self, tmp_path, lines, message):
        path = tmp_path / "c1.txt"
        path.write_text("g = 0.0\ntrials = 5\nseed = 0\n" + lines)
        with pytest.raises(DomainError) as caught:
            read_config(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_reads_the_key_order_of_earlier_files(self, tmp_path):
        # Files written before the keys followed the dataclass field order.
        path = tmp_path / "config.txt"
        path.write_text(
            "a_levels = 3\nb_levels = 4\ncell_n = 50\ng = 0.05\ntrials = 1000\n"
            "seed = 2026\noracle.scale = 1.0\noracle.mc_samples = 2000\noracle.seed = 7\n"
        )
        assert read_config(path) == SimulationConfig(
            cell_n=50, g=0.05, trials=1000, seed=2026, a_levels=3, b_levels=4,
            oracle=GPriorSpec(scale=1.0, mc_samples=2000, seed=7),
        )

    def test_keys_follow_the_dataclass_fields(self, tmp_path):
        path = tmp_path / "config.txt"
        config = SimulationConfig(
            cell_n=20, g=0.2, trials=10, seed=1, a_levels=3, b_levels=4,
            oracle=GPriorSpec(scale=0.5, mc_samples=2000, seed=7),
        )
        write_config(config, path)
        assert path.read_text() == (
            "cell_n = 20\ng = 0.2\ntrials = 10\nseed = 1\na_levels = 3\nb_levels = 4\n"
            "oracle.scale = 0.5\noracle.mc_samples = 2000\noracle.seed = 7\n"
        )


class TestRecordTable:
    """A records table is its four columns, checked when it is built."""

    @pytest.fixture(scope="class")
    def table(self):
        return run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=7, seed=4))

    def test_the_columns(self, table):
        assert isinstance(table, RecordTable) and len(table) == 21
        assert table.trial.tolist() == [t for t in range(7) for _ in EFFECTS]
        assert table.effect.tolist() == [0, 1, 2] * 7
        dtypes = [column.dtype for column in (table.trial, table.effect, table.log_bf10_bic,
                                              table.log_bf10_default)]
        assert dtypes == [np.int64, np.int8, np.float64, np.float64]

    def test_iteration_builds_records_of_python_values(self, table):
        # the five values perfbench's check_summaries reads from each row
        rows = list(table)
        assert len(rows) == 21
        for row, bic, default in zip(rows, table.log_bf10_bic, table.log_bf10_default):
            assert type(row) is SimulationRecord
            assert row._fields == bicbf.simulate.RESULTS_HEADER
            assert type(row.trial) is int and type(row.effect) is str
            assert type(row.log_bf10_bic) is float and type(row.log_bf10_default) is float
            assert (row.log_bf10_bic, row.log_bf10_default) == (bic, default)
            assert type(row.decision_bic) is str and type(row.decision_default) is str
            assert row.decision_bic == decide(row.log_bf10_bic)
            assert row.decision_default == decide(row.log_bf10_default)
        assert [(r.trial, r.effect) for r in rows] == [
            (t, e) for t in range(7) for e in ("A", "B", "AB")]

    @pytest.mark.parametrize("index", [
        slice(None), slice(3, 9), slice(None, None, 2), slice(1, 17, 5), slice(-4, None),
        slice(None, None, -1), slice(20, 2, -3), slice(5, 5), slice(100, 200)])
    def test_slices_are_tables(self, table, index):
        part = table[index]
        assert isinstance(part, RecordTable)
        assert len(part) == len(table.trial[index])
        for name in RecordTable.__slots__:
            assert np.array_equal(getattr(part, name), getattr(table, name)[index])

    @pytest.mark.parametrize("index", [0, -1, np.int64(4), "0", 1.0, [0, 1]],
                             ids=["zero", "minus-one", "int64", "text", "float", "list"])
    def test_integer_indices_are_refused(self, table, index):
        with pytest.raises(TypeError, match="index its columns"):
            table[index]

    def test_equality_from_either_side(self, table, tmp_path):
        assert table == RecordTable(*(getattr(table, name).copy()
                                      for name in RecordTable.__slots__))
        path = tmp_path / "results.csv"
        write_records(table, path)
        assert read_records(path) == table and not (read_records(path) != table)
        changed = table.log_bf10_default.copy()
        changed[-1] = -5.0
        other = RecordTable(table.trial, table.effect, table.log_bf10_bic, changed)
        assert table != other and other != table
        assert table != table[:-1] and table[1:] != table[:-1]
        assert table != table[::-1]
        # a table is no sequence: it equals no list, not even of its own rows
        assert table != list(table) and list(table) != table
        assert table != 5 and not (table == "AB") and table != [1, 2]

    def test_concatenation(self, table):
        assert RecordTable.concat([table[:4], table[4:]]) == table
        assert RecordTable.concat([table]) == table
        joined = RecordTable.concat([table[::2], table[1::2]])
        for name in RecordTable.__slots__:
            column = getattr(table, name)
            assert np.array_equal(getattr(joined, name),
                                  np.concatenate([column[::2], column[1::2]]))
        assert len(RecordTable.concat([table, table])) == 42

    def test_empty_table(self, table, tmp_path):
        empty = RecordTable((), (), (), ())
        for other in (empty, table[5:5], RecordTable.concat([empty, empty]),
                      RecordTable.concat([])):
            assert len(other) == 0 and list(other) == []
            assert other == empty and not (other != empty)
        assert empty != table and table != empty
        assert RecordTable.concat([empty, table]) == table == RecordTable.concat([table, empty])
        assert empty[:] == empty and empty[::-1] == empty
        path = tmp_path / "results.csv"
        write_records(empty, path)
        assert path.read_text().splitlines() == [",".join(bicbf.simulate.RESULTS_HEADER)]
        assert read_records(path) == empty

    @pytest.mark.parametrize("rows, message", [
        ([(0, 0), (0, 0)], "row 1: trial 0, effect A repeats row 0"),
        ([(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 1)],
         "row 5: trial 0, effect B repeats row 1"),
        ([(0, 0), (0, 1), (0, 0), (0, 1)], "row 2: trial 0, effect A repeats row 0"),
    ], ids=["pair", "later", "a-table-twice"])
    def test_the_writer_refuses_a_repeated_key(self, tmp_path, rows, message):
        # read_records refuses such a file, so none is written
        trial, effect = zip(*rows)
        ones = np.ones(len(rows))
        path = tmp_path / "results.csv"
        with pytest.raises(DomainError) as info:
            write_records(RecordTable(trial, effect, ones, 2 * ones), path)
        assert str(info.value) == message and not path.exists()

    def test_a_table_is_read_only(self, table):
        with pytest.raises(AttributeError):
            table.trial = table.trial
        with pytest.raises(ValueError):
            table.log_bf10_bic[0] = 1.0
        with pytest.raises(ValueError):
            table[2:].log_bf10_default[0] = 1.0

    @pytest.mark.parametrize("cell_n, a_levels, b_levels", [(50, 2, 3), (20, 2, 3), (2, 2, 3)],
                             ids=["desk", "wide", "2x3x2"])
    def test_block_bits_are_the_per_record_reference(self, cell_n, a_levels, b_levels):
        config = SimulationConfig(cell_n=cell_n, g=0.2, trials=20, seed=2026,
                                  a_levels=a_levels, b_levels=b_levels)
        want = []
        for trial in range(config.trials):
            data = generate_dataset(config, trial)
            table = fit_two_way(data)
            for effect in EFFECTS:
                bic = -bic_bf_for_effect(table, effect).log_bf
                default = default_bf10(data, effect, config.oracle).log_bf
                want.append((trial, effect, bic.hex(), default.hex()))
        assert _bits(run_simulation(config)) == want


def _bits(records):
    return [(r.trial, r.effect, r.log_bf10_bic.hex(), r.log_bf10_default.hex()) for r in records]


def test_the_study_and_its_report_build_no_record(monkeypatch, tmp_path):
    # only iteration builds a table's rows
    def iterate(self):
        raise AssertionError("a table's rows were iterated")

    monkeypatch.setattr(RecordTable, "__iter__", iterate)
    for cell_n, trials in ((50, 300), (20, 1000)):  # the desk and wide studies
        config = SimulationConfig(cell_n=cell_n, g=0.2, trials=trials, seed=1)
        path = tmp_path / "results.csv"
        write_records(run_simulation(config), path)
        table = read_records(path)
        assert summarize(table)["AB"].n_trials == trials
        write_density_data(emit_density_data(table), tmp_path / "density.csv")
    with pytest.raises(AssertionError, match="were iterated"):
        list(table)


@pytest.mark.parametrize("columns, message", [
    ((np.array([0, 0]), np.array([-1, 0], dtype=np.int8), np.array([1.0, np.nan]),
      np.array([2.0, 3.0])), "row 0: effect must index ('A', 'B', 'AB'), got -1"),
    ((np.array([0, 0]), np.array([0, 1], dtype=np.int8), np.array([1.0, np.nan]),
      np.array([2.0, 3.0])), "row 1: log_bf10_bic must be finite, got nan"),
    ((np.array([0, 1]), np.array([0, 1], dtype=np.int8), np.array([1.0, 2.0]),
      np.array([2.0, -np.inf])), "row 1: log_bf10_default must be finite, got -inf"),
    ((np.array([0, -1]), np.array([0, 0]), np.array([1.0, 2.0]), np.array([2.0, 3.0])),
     "row 1: trial must be nonnegative, got -1"),
    ((np.array([0, 0]), np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([2.0, 3.0])),
     "row 0: effect must be an integer, got 0.0"),
    ((np.array([0.0, 1.0]), np.array([0, 0]), np.array([1.0, 2.0]), np.array([2.0, 3.0])),
     "row 0: trial must be an integer, got 0.0"),
    ((np.array([0, 2**70, 1.5], dtype=object), np.array([0, 0, 0]), np.array([1.0, 2.0, 3.0]),
      np.array([2.0, 3.0, 4.0])), "row 2: trial must be an integer, got 1.5"),
    ((np.array([0, 0]), np.array([0, 1]), np.array(["1.0", "2.0"]), np.array([2.0, 3.0])),
     "row 0: log_bf10_bic must be a real number, got '1.0'"),
    ((np.array([0, 0]), np.array([0, 1]), np.array([1.0]), np.array([2.0, 3.0])),
     "row 1: no log_bf10_bic; the columns have [2, 2, 1, 2] rows"),
    ((np.array([[0, 0]]), np.array([0, 1]), np.array([1.0]), np.array([2.0, 3.0])),
     "trial must be a column, got an array of shape (1, 2)"),
], ids=["effect-code", "nan", "minus-inf", "negative-trial", "float-effect", "float-trial",
        "float-in-object-trial", "text-log-bf", "lengths", "two-dimensional"])
def test_the_constructor_names_the_first_bad_row(columns, message, tmp_path):
    # each column set was accepted: write_records wrote an effect code of -1
    # as "AB" and a NaN that read_records refuses, summarize dropped the -1
    # row and gave NaN summaries, a float effect column raised a TypeError
    # in the writer, and columns of different lengths a bare ValueError
    with pytest.raises(DomainError) as caught:
        RecordTable(*columns)
    assert str(caught.value) == message


BIG_TRIALS = 10_000
FAULT_ROW = 25_000  # a data row deep in the file: trial 8333, effect B
BLANK_BEFORE = 100  # a blank line before data row 100 shifts the later rows' lines


@pytest.fixture(scope="module")
def big_lines(tmp_path_factory):
    """The data lines of a results file of 10 000 trials, without terminators."""
    values = np.random.default_rng(5).standard_normal((BIG_TRIALS, 3, 2))
    path = tmp_path_factory.mktemp("big") / "results.csv"
    write_records(values_table(values), path)
    return path.read_bytes().decode().split("\r\n")[1:-1]


def _write_big(path, lines, edits: dict) -> None:
    """The file with data row k's fields edited by edits[k], a blank line
    before row BLANK_BEFORE, and "@@" in a field as the byte 0xff."""
    lines = list(lines)
    for row, edit in edits.items():
        fields = lines[row].split(",")
        edit(fields)
        lines[row] = ",".join(fields)
    lines.insert(BLANK_BEFORE, "")
    text = ",".join(bicbf.simulate.RESULTS_HEADER) + "\r\n" + "\r\n".join(lines) + "\r\n"
    path.write_bytes(text.encode().replace(b"@@", b"\xff"))


def _set(index, value):
    def edit(fields):
        fields[index] = value
    return edit


def _flip_decision(fields):
    fields[4] = "H0" if fields[4] == "H1" else "H1"


ROW_FAULTS = {
    "fields": (lambda fields: fields.pop(), "expected 6 fields, got 5"),
    "int": (_set(0, "8333.0"), "invalid literal for int() with base 10: '8333.0'"),
    "float": (_set(2, "1.5e"), "could not convert string to float: '1.5e'"),
    "effect": (_set(1, "C"), "effect must be one of ('A', 'B', 'AB'), got 'C'"),
    "finite": (_set(3, "nan"), "log_bf10_default must be finite, got nan"),
    "negative-trial": (_set(0, "-1"), "trial must be nonnegative, got -1"),
    "decision": (_flip_decision, None),  # the message names the row's own values
}
OVERSIZE = _set(3, "1" * (csv.field_size_limit() + 1))
NOT_UTF8 = _set(1, "@@")


def _fault_line(row: int) -> int:
    return row + 2 + (row >= BLANK_BEFORE)  # the header is line 1


class TestReadRecordsErrors:
    """Each error names its line in a large file, and the first problem wins."""

    @pytest.mark.parametrize("fault", list(ROW_FAULTS))
    def test_a_row_fault_deep_in_a_large_file_names_its_line(self, big_lines, tmp_path, fault):
        edit, message = ROW_FAULTS[fault]
        path = tmp_path / "results.csv"
        _write_big(path, big_lines, {FAULT_ROW: edit})
        if message is None:
            fields = big_lines[FAULT_ROW].split(",")
            flipped = "H0" if fields[4] == "H1" else "H1"
            message = f"decision_bic={flipped!r} contradicts log_bf10_bic={float(fields[2])}"
        with pytest.raises(DomainError) as info:
            read_records(path)
        assert str(info.value) == f"{path}:{_fault_line(FAULT_ROW)}: {message}"

    @pytest.mark.parametrize("problem", ["oversize", "not-utf8"])
    def test_a_bad_row_before_a_file_problem_is_the_error(self, big_lines, tmp_path, problem):
        path = tmp_path / "results.csv"
        later = {"oversize": OVERSIZE, "not-utf8": NOT_UTF8}[problem]
        edit, message = ROW_FAULTS["effect"]
        _write_big(path, big_lines, {FAULT_ROW: edit, len(big_lines) - 1: later})
        with pytest.raises(DomainError) as info:
            read_records(path)
        assert str(info.value) == f"{path}:{_fault_line(FAULT_ROW)}: {message}"

    def test_a_field_over_the_size_limit_before_a_bad_row_is_the_error(self, big_lines,
                                                                         tmp_path):
        path = tmp_path / "results.csv"
        _write_big(path, big_lines, {FAULT_ROW: OVERSIZE,
                                     len(big_lines) - 1: ROW_FAULTS["effect"][0]})
        with pytest.raises(DomainError) as info:
            read_records(path)
        limit = csv.field_size_limit()
        assert str(info.value) == (f"{path}:{_fault_line(FAULT_ROW)}: "
                                   f"field larger than field limit ({limit})")

    def test_text_that_is_not_utf8_before_a_bad_row_is_the_error(self, big_lines, tmp_path):
        path = tmp_path / "results.csv"
        _write_big(path, big_lines, {FAULT_ROW: NOT_UTF8,
                                     len(big_lines) - 1: ROW_FAULTS["effect"][0]})
        with pytest.raises(DomainError) as info:
            read_records(path)
        # the byte's line in the file, and its position in that line
        position = len(big_lines[FAULT_ROW].split(",")[0]) + 1
        assert str(info.value) == (f"{path}:{_fault_line(FAULT_ROW)}: 'utf-8' codec can't "
                                   f"decode byte 0xff in position {position}: invalid start byte")

    def test_a_repeated_row_names_the_line_it_repeats(self, tmp_path):
        path = tmp_path / "results.csv"
        table = table_of([(t, e, 0.5 * t - 1, 1.0 - t) for t in range(3) for e in EFFECTS])
        write_records(table, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, "", lines[5]]) + "\n")  # trial 1, effect B again
        with pytest.raises(DomainError) as info:
            read_records(path)
        assert str(info.value) == f"{path}:12: trial 1, effect B repeats line 6"

    @pytest.mark.parametrize("fault", ["row", "repeat"])
    def test_a_row_after_one_that_spans_lines_is_named_by_its_first_line(self, tmp_path,
                                                                          fault):
        # int() reads the quoted trial "0\n", so the good row of trial 0, effect A
        # takes lines 2-3 and every later row starts a line further down
        path = tmp_path / "results.csv"
        table = table_of([(t, e, 0.5 * t - 1, 1.0 - t) for t in range(2) for e in EFFECTS])
        write_records(table, path)
        lines = path.read_text().splitlines()
        lines[1] = '"0\n"' + lines[1][1:]
        if fault == "row":
            lines[5] = lines[5].replace(",B,", ",Q,")  # trial 1, effect B: line 7
            want = f"{path}:7: effect must be one of ('A', 'B', 'AB'), got 'Q'"
        else:
            lines.append(lines[2])  # trial 0, effect B again: line 9 repeats line 4
            want = f"{path}:9: trial 0, effect B repeats line 4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError) as info:
            read_records(path)
        assert str(info.value) == want

    def test_a_repeated_key_deep_in_a_large_file_is_named(self, big_lines, tmp_path):
        # the same (trial, effect) with other values, after a fault-free stretch
        path = tmp_path / "results.csv"
        _write_big(path, big_lines, {FAULT_ROW: _set(0, "1")})  # trial 1, effect B
        with pytest.raises(DomainError) as info:
            read_records(path)
        assert str(info.value) == (f"{path}:{_fault_line(FAULT_ROW)}: trial 1, effect B "
                                   f"repeats line {_fault_line(4)}")

    def test_report_rejects_a_repeated_row(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_records(run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=1, seed=1)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[1]]) + "\n")
        assert cli_main(["report", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}:5: trial 0, effect A repeats line 2\n"


HEADER = ",".join(bicbf.simulate.RESULTS_HEADER)
GOOD = ("0,A,1.5,-0.5,H1,H0", "0,B,-2.0,0.25,H0,H1", "0,AB,0.5,0.5,H1,H1")
OVER_THE_LIMIT = "0,AB,0.5," + "1" * (csv.field_size_limit() + 1) + ",H1,H1"
# data lines after the header, then the line and the message of the error
FIRST_FAULTS = {
    # two faults in one row: the first in the order the row is read and checked
    "fields+effect": ([GOOD[0], "0,Q,1.5,-0.5,H1"], 3, "expected 6 fields, got 5"),
    "int+float": ([GOOD[0], "x,A,nope,-0.5,H1,H0"], 3,
                  "invalid literal for int() with base 10: 'x'"),
    "float+float": ([GOOD[0], "1,A,a,b,H1,H0"], 3, "could not convert string to float: 'a'"),
    "negative-trial+effect": ([GOOD[0], "-1,Q,1.5,-0.5,H1,H0"], 3,
                              "trial must be nonnegative, got -1"),
    "negative-trial+float": ([GOOD[0], "-1,A,1.5,x,H1,H0"], 3,
                             "could not convert string to float: 'x'"),
    "effect+nan": ([GOOD[0], "0,Q,nan,-0.5,H1,H0"], 3,
                   "effect must be one of ('A', 'B', 'AB'), got 'Q'"),
    "effect+float": ([GOOD[0], "0,Q,oops,-0.5,H1,H0"], 3,
                     "could not convert string to float: 'oops'"),
    "nan-bic+default-decision": ([GOOD[0], "1,A,nan,-0.5,H0,H1"], 3,
                                 "log_bf10_bic must be finite, got nan"),
    "bic-decision+nan-default": ([GOOD[0], "1,A,1.5,nan,H0,H0"], 3,
                                 "decision_bic='H0' contradicts log_bf10_bic=1.5"),
    # a repeat and a bad row: the first of them in the file
    "repeat-then-bad-row": ([*GOOD[:2], GOOD[0], "1,Q,1.5,-0.5,H1,H0"], 4,
                            "trial 0, effect A repeats line 2"),
    "bad-row-then-repeat": ([*GOOD[:2], "1,Q,1.5,-0.5,H1,H0", GOOD[0]], 4,
                            "effect must be one of ('A', 'B', 'AB'), got 'Q'"),
    "bad-row-that-repeats": ([*GOOD[:2], "0,A,1.5,-0.5,H0,H0"], 4,
                             "decision_bic='H0' contradicts log_bf10_bic=1.5"),
    # a repeat before a problem of the file itself
    "repeat-then-oversize": ([*GOOD[:2], GOOD[1], OVER_THE_LIMIT], 4,
                             "trial 0, effect B repeats line 3"),
    # blank lines count as lines
    "blank-lines-then-repeat": ([GOOD[0], "", "", GOOD[1], "", GOOD[1]], 7,
                                "trial 0, effect B repeats line 5"),
}


@pytest.mark.parametrize("case", list(FIRST_FAULTS))
def test_the_first_fault_of_a_file_is_the_error(tmp_path, case):
    lines, line, message = FIRST_FAULTS[case]
    path = tmp_path / "results.csv"
    path.write_text("\r\n".join([HEADER, *lines]) + "\r\n", newline="")
    with pytest.raises(DomainError) as info:
        read_records(path)
    assert str(info.value) == f"{path}:{line}: {message}"


@pytest.fixture
def piped():
    """A function that puts a text in a pipe and gives its /dev/fd path,
    which reads it once."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    ends = []

    def pipe(text):
        read_end, write_end = os.pipe()
        ends.append(read_end)
        with os.fdopen(write_end, "w", newline="") as handle:  # less than the pipe's buffer
            handle.write(text)
        return f"/dev/fd/{read_end}"

    yield pipe
    for end in ends:
        os.close(end)


@pytest.mark.parametrize("case", ["bad-row-then-repeat", "repeat-then-bad-row"])
def test_a_fault_read_through_a_pipe_is_one_error_naming_its_line(piped, case):
    lines, line, message = FIRST_FAULTS[case]
    path = piped("\r\n".join([HEADER, *lines]) + "\r\n")
    with pytest.raises(DomainError) as info:
        read_records(path)
    assert str(info.value) == f"{path}:{line}: {message}"


def test_a_good_file_read_through_a_pipe_is_the_file(piped, tmp_path):
    table = run_simulation(SimulationConfig(cell_n=3, g=0.2, trials=5, seed=4))
    path = tmp_path / "results.csv"
    write_records(table, path)
    assert read_records(piped(path.read_bytes().decode())) == table
