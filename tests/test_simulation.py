"""Simulation harness: generation, determinism, summaries, file formats."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import bicbf.simulate
from bicbf import (
    DomainError,
    FiveNumber,
    GPriorSpec,
    SimulationConfig,
    SimulationError,
    SimulationRecord,
    decide,
    default_bf10,
    emit_density_data,
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
from bicbf.rng import substream


def record(trial, effect, bic, default):
    return SimulationRecord(trial, effect, bic, default, decide(bic), decide(default))


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
        with pytest.raises(DomainError, match="contradicts"):
            SimulationRecord(0, "A", 1.0, 1.0, "H0", "H1")
        with pytest.raises(DomainError, match="effect"):
            record(0, "X", 1.0, 1.0)
        with pytest.raises(DomainError, match="trial"):
            record(-1, "A", 1.0, 1.0)
        with pytest.raises(DomainError, match="finite"):
            record(0, "A", math.inf, 1.0)


class TestSummaries:
    def test_five_number_known_values(self):
        assert FiveNumber.of([0.0, 1.0, 2.0, 3.0, 4.0]).as_tuple() == (0, 1, 2, 3, 4)
        assert FiveNumber.of([3.0, 0.0, 2.0, 1.0]).as_tuple() == (0.0, 0.75, 1.5, 2.25, 3.0)
        assert FiveNumber.of([2.5]).as_tuple() == (2.5, 2.5, 2.5, 2.5, 2.5)
        with pytest.raises(DomainError, match="no values"):
            FiveNumber.of([])

    def test_summarize_counts_and_consistency(self):
        records = [
            record(0, "A", 1.0, 2.0),    # H1 / H1
            record(1, "A", -1.0, -2.0),  # H0 / H0
            record(2, "A", 1.0, -1.0),   # H1 / H0
            record(3, "A", -0.5, -0.1),  # H0 / H0
        ]
        out = summarize(records)
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
            summarize([])


class TestDensity:
    def test_two_point_closed_form(self):
        records = [record(0, "A", 0.0, 0.0), record(1, "A", 1.0, 1.0)]
        series = emit_density_data(records, bandwidth=0.5)
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
        records = [record(t, "A", v, v) for t, v in enumerate(values)]
        s = emit_density_data(records, bandwidth=0.8)[0]
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
        records = [record(0, "A", 1.0, 0.5), record(1, "A", 1.0, 0.7)]
        with pytest.raises(DomainError, match="effect A, bic"):
            emit_density_data(records)

    def test_bandwidth_validation(self, null_run):
        _, records = null_run
        with pytest.raises(DomainError, match="bandwidth"):
            emit_density_data(records, bandwidth=0.0)
        with pytest.raises(DomainError, match="bandwidth"):
            emit_density_data(records, bandwidth=math.nan)

    @pytest.mark.parametrize("bandwidth", [1e308, 1e-320], ids=["grid", "density"])
    def test_bandwidth_beyond_the_double_range_is_named(self, bandwidth):
        # 1e308 takes the grid's ends to inf; at 1e-320 the grid's ends round
        # to the data points, where the density 1 / (2 h sqrt(2 pi)) is inf
        records = [record(0, "A", 1.0, 1.0), record(1, "A", 2.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"bandwidth {bandwidth!r} takes the effect A, bic density grid or values"
            with pytest.raises(DomainError, match=re.escape(message)):
                emit_density_data(records, bandwidth=bandwidth)

    def test_tiny_bandwidth_gives_finite_spikes_without_warnings(self):
        # the grid's ends round to the data points; between them z * z
        # overflows, and exp(-inf) = 0 is right
        records = [record(0, "A", 1.0, 1.0), record(1, "A", 2.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = emit_density_data(records, bandwidth=1e-300)[0]
        peak = 1.0 / (2 * 1e-300 * math.sqrt(2 * math.pi))
        assert s.density[0] == s.density[-1] == pytest.approx(peak, rel=1e-12)
        assert np.all(s.density[1:-1] == 0.0)


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
        write_records([record(0, "A", 1.0, 1.0), record(1, "A", -1.0, 1.0)], path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("-1", "oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="results.csv:3"):
            read_records(path)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(b"\xff\xfet\x00r\x00")  # a UTF-16 byte-order mark
        with pytest.raises(DomainError, match="results.csv: 'utf-8' codec can't decode"):
            read_records(path)

    def test_tampered_decision_is_caught(self, tmp_path):
        path = tmp_path / "results.csv"
        write_records([record(0, "A", -1.0, 1.0)], path)
        text = path.read_text().replace("H0", "H1")
        path.write_text(text)
        with pytest.raises(DomainError, match="results.csv:2.*contradicts"):
            read_records(path)

    def test_density_file_layout(self, tmp_path):
        records = [record(0, "A", 0.0, 0.0), record(1, "A", 1.0, 1.0)]
        series = emit_density_data(records, bandwidth=0.5)
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
