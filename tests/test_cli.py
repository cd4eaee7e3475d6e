"""Command-line interface: routing, formats, exit codes, file handling."""

import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bicbf
from bicbf import GPriorSpec, SimulationConfig, run_simulation, write_config, write_records
from bicbf.cli import FORMAT_ENV_VAR, main

# BF01 for F(1,23)=2.21 with n=24, from the high-precision radical-form
# reference used across the suite.
BF_F_221_1_23_24 = 1.6291666263976638


@pytest.fixture(autouse=True)
def clean_format_env(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def results_file(tmp_path_factory):
    config = SimulationConfig(cell_n=3, g=0.1, trials=4, seed=12)
    path = tmp_path_factory.mktemp("results") / "results.csv"
    write_records(run_simulation(config), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBf:
    def test_flag_route_plain(self, capsys):
        code, out, err = run_cli(
            capsys, "bf", "--f", "2.584", "--df1", "1", "--df2", "17", "--n", "18"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "BF01 = 1.187 (log BF01 = 0.1717)"
        assert lines[1] == "evidence: weak, favoring H0"
        assert err == ""

    def test_text_route_matches_reference(self, capsys):
        code, out, err = run_cli(
            capsys, "bf", "F(1,23)=2.21, p=0.15", "--n", "24", "--format", "csv"
        )
        assert code == 0
        assert "warning: p=0.15" in err
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["bf"]) == pytest.approx(BF_F_221_1_23_24, rel=1e-12)
        assert row["favored"] == "H0"
        assert row["category"] == "weak"

    def test_t_route(self, capsys):
        code, out, _ = run_cli(capsys, "bf", "--t", "2.0", "--df2", "71", "--n", "73")
        assert code == 0
        assert out.startswith("BF01 = 1.156")

    def test_direction_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "bf", "F(1,23)=2.21", "--n", "24", "--direction", "10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["direction"] == "10"
        assert payload["bf"] == pytest.approx(1 / BF_F_221_1_23_24, rel=1e-12)

    def test_formats_carry_the_same_numbers(self, capsys):
        argv = ("bf", "--f", "3.5", "--df1", "2", "--df2", "28", "--n", "30")
        _, plain, _ = run_cli(capsys, *argv)
        _, as_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        _, as_json, _ = run_cli(capsys, *argv, "--format", "json")
        row = next(csv.DictReader(io.StringIO(as_csv)))
        payload = json.loads(as_json)
        assert float(row["bf"]) == payload["bf"]
        assert float(row["log_bf"]) == payload["log_bf"]
        assert f"BF01 = {payload['bf']:.4g}" in plain

    def test_env_var_selects_format(self, capsys, monkeypatch):
        monkeypatch.setenv(FORMAT_ENV_VAR, "csv")
        code, out, _ = run_cli(capsys, "bf", "t(71)=2.0", "--n", "73")
        assert code == 0
        assert out.splitlines()[0] == "direction,bf,log_bf,favored,category"

    def test_format_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(FORMAT_ENV_VAR, "csv")
        code, out, _ = run_cli(capsys, "bf", "t(71)=2.0", "--n", "73", "--format", "json")
        assert code == 0
        json.loads(out)

    def test_invalid_env_var_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(FORMAT_ENV_VAR, "yaml")
        code, _, err = run_cli(capsys, "bf", "t(71)=2.0", "--n", "73")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("bf",),                                              # nothing given
            ("bf", "F(1,17)=2.584", "--f", "2.584"),              # both routes
            ("bf", "--f", "2.0", "--df1", "1", "--df2", "17"),    # missing --n
            ("bf", "--t", "2.0", "--df2", "71", "--n", "73", "--df1", "2"),
            ("bf", "--f", "1.0", "--t", "1.0", "--df1", "1", "--df2", "5", "--n", "7"),
            ("bf", "F(1,17)=2.584, n=18", "--df1", "3", "--df2", "99"),  # text and df flags
            ("bf", "F(1,17)=2.584, n=18", "--df1", "3"),
            ("bf", "t(17)=1.6", "--df2", "17", "--n", "19"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("usage error:")
        if argv[1:2] and not argv[1].startswith("--"):  # statistic text
            for flag in {"--df1", "--df2"} & set(argv):
                assert flag in err

    @pytest.mark.parametrize(
        "t_flag",
        [("--t=1e200",), ("--t=-1e200",), ("--t", "-1e200")],
        ids=["1e200", "-1e200", "split--1e200"],
    )
    def test_t_whose_square_overflows(self, capsys, t_flag):
        code, out, err = run_cli(
            capsys, "bf", *t_flag, "--df2", "10", "--n", "20", "--format", "json"
        )
        assert code == 0, err
        # log1p(t**2/df2) = ln(1e400/10) to double precision
        want = 0.5 * math.log(20) - 0.5 * 20 * 399 * math.log(10)
        assert json.loads(out)["log_bf"] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [("--f", "1e308", "--df1", "5", "--df2", "1"), ("F(5,1)=1e308",)],
        ids=["flags", "text"],
    )
    def test_f_whose_ratio_overflows(self, capsys, argv):
        code, out, err = run_cli(capsys, "bf", *argv, "--n", "10", "--format", "json")
        assert code == 0, err
        # F*df1/df2 = 5e308 overflows; ln(1 + 5e308) = ln 5 + 308 ln 10
        want = 2.5 * math.log(10) - 5 * (math.log(5) + 308 * math.log(10))
        assert json.loads(out)["log_bf"] == pytest.approx(want, rel=1e-15)

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "bf", "--f", "-1", "--df1", "1", "--df2", "17", "--n", "18"
        )
        assert code == 1
        assert err.startswith("error:")

    def test_negative_exponent_value_reaches_the_domain_check(self, capsys):
        code, _, err = run_cli(
            capsys, "bf", "--f", "-1e-3", "--df1", "1", "--df2", "17", "--n", "18"
        )
        assert code == 1
        assert err.startswith("error: f must be finite and nonnegative")

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run_cli(capsys, "bf", "F(1,17=2.584", "--n", "18")
        assert code == 1
        assert "position" in err

    def test_missing_n_is_a_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "bf", "t(71)=2.0")
        assert code == 1
        assert "sample size" in err


class TestParse:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "parse", "F(1,17)=2.584, p=0.126", "--n", "18", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "F"
        assert payload["statistic"] == 2.584
        assert payload["df1"] == 1
        assert payload["df2"] == 17
        assert payload["n"] == 18
        assert payload["p_reported"] == 0.126
        assert payload["canonical"] == "F(1,17)=2.584, p=0.126, n=18"
        assert len(payload["warnings"]) == 1

    def test_plain_layout(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "t(71)=2.0, n=73")
        assert code == 0
        lines = out.splitlines()
        assert "kind = t" in lines
        assert "df2 = 71" in lines
        assert "n = 73" in lines
        assert "canonical = t(71)=2.0, n=73" in lines
        assert not any(line.startswith("warning:") for line in lines)

    def test_csv_includes_warnings_column(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "t(5)=1.2", "--format", "csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["kind"] == "t"
        assert row["n"] == ""
        assert "sample size" in row["warnings"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "parse", "what(3)=2")
        assert code == 1
        assert "position 0" in err


class TestSimulate:
    BASE = ("simulate", "--cell-n", "3", "--g", "0.1", "--trials", "3", "--seed", "12")

    def test_writes_results(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, *self.BASE, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("trial,effect,")
        assert len(lines) == 1 + 9
        assert f"wrote {out_path} (9 rows)" in err
        assert "\r" not in err  # capsys is not a terminal: no progress line

    def test_progress_only_on_a_terminal(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        code, _, err = run_cli(capsys, *self.BASE, "--out", str(tmp_path / "r.csv"))
        assert code == 0
        assert err.startswith("\r1/3 trials\r2/3 trials\r3/3 trials\n")

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / name for name in ("a.csv", "b.csv")]
        run_cli(capsys, *self.BASE, "--out", str(paths[0]))
        run_cli(capsys, *self.BASE, "--out", str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = SimulationConfig(cell_n=3, g=0.1, trials=3, seed=12)
        config_path = tmp_path / "config.txt"
        write_config(config, config_path)
        flag_run = tmp_path / "flags.csv"
        file_run = tmp_path / "file.csv"
        run_cli(capsys, *self.BASE, "--out", str(flag_run))
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--out", str(file_run)
        )
        assert code == 0
        assert file_run.read_bytes() == flag_run.read_bytes()
        short_run = tmp_path / "short.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--trials", "2",
            "--out", str(short_run),
        )
        assert code == 0
        assert len(short_run.read_text().splitlines()) == 1 + 6

    def test_zero_trials_is_a_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--cell-n", "3", "--g", "0.1", "--trials", "0",
            "--seed", "1", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert err == "error: trials must be at least 1, got 0\n"

    def test_a_missing_flag_is_reported_before_a_bad_value(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--cell-n", "0", "--prior-scale", "0",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert err == "usage error: missing --g (give the flag or a --config file)\n"

    def test_missing_required_setting(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--g", "0.1", "--trials", "2", "--seed", "1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "--cell-n" in err

    def test_extreme_g_is_one_error_line_without_numpy_warnings(self, tmp_path):
        # the sums of squares overflow to inf, which the fit handles
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "bicbf.cli", "simulate", "--cell-n", "3",
                               "--g", "1e308", "--trials", "3", "--seed", "1",
                               "--out", str(tmp_path / "r.csv")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == ("error: trial 0: the sums of squares left the double range: "
                               "Bayes factor undefined\n")

    @pytest.mark.parametrize(
        "cell_n, message",
        [
            ("10000000000000000000", "error: one trial of 2x3 cells of 10000000000000000000 "
             "observations is too large for a numpy array: a*b*cell_n*8 bytes must be below "
             "2**63\n"),
            ("100000000000000000", "error: out of memory: "),
        ],
        ids=["beyond-an-array", "beyond-memory"],
    )
    def test_a_trial_too_large_is_one_error_line(self, tmp_path, cell_n, message):
        # 1e19 cells ran into a traceback from np.empty; nothing is allocated
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "bicbf.cli", "simulate", "--cell-n", cell_n,
                               "--g", "0.2", "--trials", "2", "--seed", "1",
                               "--out", str(tmp_path / "r.csv")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith(message) and done.stderr.count("\n") == 1

    def test_unwritable_output_path(self, capsys):
        code, _, err = run_cli(
            capsys, *self.BASE, "--out", "/nonexistent-dir/r.csv"
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("error:")

    def test_running_out_of_memory_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        # as numpy reports an array of 1e5 x 1e5 levels; nothing is allocated
        message = ("Unable to allocate 74.5 GiB for an array with shape "
                   "(1, 100000, 100000) and data type float64")

        def allocate(config, trials):
            raise MemoryError(message)

        monkeypatch.setattr(bicbf.simulate, "_block_data", allocate)
        code, out, err = run_cli(capsys, *self.BASE, "--out", str(tmp_path / "r.csv"))
        assert code == 1
        assert out == ""
        assert err == f"error: out of memory: {message}\n"


class TestReport:
    def test_plain_table(self, capsys, results_file):
        code, out, _ = run_cli(capsys, "report", str(results_file))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "effect", "route", "trials", "min", "q1", "median", "q3", "max",
            "consistency",
        ]
        assert len(lines) == 1 + 6
        assert lines[1].split()[:3] == ["A", "bic", "4"]

    def test_csv_table(self, capsys, results_file):
        code, out, _ = run_cli(capsys, "report", str(results_file), "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for row in rows:
            assert row["effect"] in ("A", "B", "AB")
            assert row["bf_type"] in ("bic", "default")
            assert 0.0 <= float(row["consistency"]) <= 1.0
            assert float(row["min"]) <= float(row["median"]) <= float(row["max"])

    def test_json_table(self, capsys, results_file):
        code, out, _ = run_cli(capsys, "report", str(results_file), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        assert {entry["bf_type"] for entry in payload} == {"bic", "default"}

    def test_plain_cells_are_rounded_csv_values(self, capsys, results_file):
        _, plain, _ = run_cli(capsys, "report", str(results_file))
        _, as_csv, _ = run_cli(capsys, "report", str(results_file), "--format", "csv")
        plain_cells = plain.splitlines()[1].split()
        row = next(csv.DictReader(io.StringIO(as_csv)))
        for cell, key in zip(plain_cells[3:8], ("min", "q1", "median", "q3", "max")):
            assert cell == f"{float(row[key]):.2f}"
        assert plain_cells[8] == f"{float(row['consistency']):.3f}"

    def test_single_trial_file(self, capsys, tmp_path):
        config = SimulationConfig(cell_n=3, g=0.0, trials=1, seed=4)
        path = tmp_path / "one.csv"
        write_records(run_simulation(config), path)
        code, out, _ = run_cli(capsys, "report", str(path), "--format", "csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["min"]) == float(row["max"])

    def test_malformed_results_file(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(
            "trial,effect,log_bf10_bic,log_bf10_default,decision_bic,decision_default\n"
            "0,A,1.0,not-a-number,H1,H1\n"
        )
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1
        assert "broken.csv:2" in err

    def test_field_beyond_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "trial,effect,log_bf10_bic,log_bf10_default,decision_bic,decision_default\n"
            f"0,A,1.0,{'1' * 200_000},H1,H1\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "bicbf.cli", "report", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: {path}:2: field larger than field limit")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("fault", ["row", "repeat"])
    def test_a_fault_in_a_piped_results_file_is_one_error_line(self, results_file, fault):
        lines = results_file.read_bytes().decode().split("\r\n")
        if fault == "row":
            lines[2] = lines[2].replace(",B,", ",Q,")
            want = "error: /dev/stdin:3: effect must be one of ('A', 'B', 'AB'), got 'Q'\n"
        else:
            lines[3] = lines[1]
            want = "error: /dev/stdin:4: trial 0, effect A repeats line 2\n"
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "bicbf.cli", "report", "/dev/stdin"],
                              input="\r\n".join(lines).encode(), env=env,
                              capture_output=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr.decode()) == (1, b"", want)

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
    def test_a_reader_that_closes_the_pipe_after_one_line_gets_no_error(self, results_file):
        # the density series are some 150 KB, more than a pipe holds, so
        # the writer meets the closed pipe while it writes
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "bicbf.cli", "report", str(results_file), "--density",
                "--out", "/dev/stdout"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert first == b"effect,bf_type,x,density\r\n"
        assert (code, err) == (1, b"")

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_a_pipe_closed_before_the_table_is_written_gets_no_error(self, results_file, fmt):
        # the table is small, so it is written when it is flushed: at exit,
        # unless the command flushes it first
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        try:
            done = subprocess.run([sys.executable, "-m", "bicbf.cli", "report",
                                   str(results_file), "--format", fmt],
                                  env=env, stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_density_output(self, capsys, results_file, tmp_path):
        out_path = tmp_path / "density.csv"
        code, _, err = run_cli(
            capsys, "report", str(results_file), "--density", "--out", str(out_path)
        )
        assert code == 0
        assert "6 series" in err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "effect,bf_type,x,density"
        assert len(lines) == 1 + 6 * 512

    def test_density_with_fixed_bandwidth(self, capsys, results_file, tmp_path):
        out_path = tmp_path / "density.csv"
        code, _, _ = run_cli(
            capsys, "report", str(results_file), "--density", "--out", str(out_path),
            "--bandwidth", "0.5",
        )
        assert code == 0
        assert out_path.exists()

    def test_density_requires_out(self, capsys, results_file):
        code, _, err = run_cli(capsys, "report", str(results_file), "--density")
        assert code == 2
        assert "--out" in err

    @pytest.mark.parametrize("flags", [["--out", "dens.csv"], ["--bandwidth", "0.3"],
                                       ["--out", "dens.csv", "--bandwidth", "0.3"]])
    def test_density_flags_require_density(self, capsys, results_file, tmp_path,
                                           monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "report", str(results_file), *flags)
        assert code == 2
        assert "--density" in err
        assert out == ""
        assert not (tmp_path / "dens.csv").exists()

    def test_table_and_density_together(self, capsys, results_file, tmp_path):
        out_path = tmp_path / "density.csv"
        code, out, _ = run_cli(
            capsys, "report", str(results_file), "--table", "--density",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert out.splitlines()[0].startswith("effect")

    @pytest.mark.parametrize("bandwidth", ["1e308", "1e-320"])
    def test_bandwidth_beyond_the_double_range_is_one_error_line(self, capsys, results_file,
                                                                 tmp_path, bandwidth):
        out_path = tmp_path / "density.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "report", str(results_file), "--density",
                                     "--out", str(out_path), "--bandwidth", bandwidth)
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: bandwidth \S+ takes the effect A, bic density grid or "
                            r"values out of the double range\n", err), err
        assert not out_path.exists()

    def test_negative_bandwidth_is_refused_before_the_results_are_read(self, capsys,
                                                                       tmp_path):
        code, _, err = run_cli(
            capsys, "report", str(tmp_path / "missing.csv"), "--density",
            "--out", str(tmp_path / "x.csv"), "--bandwidth", "-1",
        )
        assert code == 1
        assert err == "error: bandwidth must be positive, got -1.0\n"

    @pytest.mark.parametrize("bandwidth", ["inf", "-inf", "nan"])
    def test_a_bandwidth_that_is_not_finite_is_refused_before_the_results_are_read(
            self, capsys, tmp_path, bandwidth):
        code, out, err = run_cli(
            capsys, "report", str(tmp_path / "missing.csv"), "--density",
            "--out", str(tmp_path / "x.csv"), f"--bandwidth={bandwidth}",  # "-inf" is no flag
        )
        assert (code, out) == (1, "")
        assert err == f"error: bandwidth must be finite, got {float(bandwidth)}\n"
        assert not (tmp_path / "x.csv").exists()


_BF_F = ("bf", "--f", "2.5", "--df1", "1", "--df2", "17", "--n", "18")
_BF_T = ("bf", "--t", "2.5", "--df2", "17", "--n", "18")
_SIMULATE = ("simulate", "--cell-n", "3", "--g", "0.1", "--trials", "2", "--seed", "1",
             "--a-levels", "2", "--b-levels", "3", "--prior-scale", "0.7", "--out", "r.csv")
# every number flag: a command that takes it, the flag, a value out of range, its field
_NUMBER_FLAGS = [
    (_BF_F, "--f", "-1", "f"),
    (_BF_T, "--t", "inf", "t"),
    (_BF_F, "--df1", "0", "df1"),
    (_BF_T, "--df2", "0", "df2"),
    (_BF_F, "--n", "1", "n"),
    (("bf", "F(1,17)=2.5", "--n", "0"), "--n", "0", "n"),
    (("parse", "F(1,17)=2.5", "--n", "1"), "--n", "1", "n"),
    (_SIMULATE, "--cell-n", "1", "cell_n"),
    (_SIMULATE, "--g", "-0.5", "g"),
    (_SIMULATE, "--trials", "0", "trials"),
    (_SIMULATE, "--seed", "-1", "seed"),
    (_SIMULATE, "--a-levels", "1", "a_levels"),
    (_SIMULATE, "--b-levels", "0", "b_levels"),
    (_SIMULATE, "--prior-scale", "0", "scale"),
    (("report", "r.csv", "--density", "--out", "d.csv", "--bandwidth", "0"),
     "--bandwidth", "0", "bandwidth"),
]


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["bf", "--help"]) == 0

    def test_simulate_help_states_the_dataclass_defaults(self, capsys):
        # The parser is built without numpy, so its help text restates the
        # defaults of SimulationConfig and GPriorSpec; hold them equal.
        assert main(["simulate", "--help"]) == 0
        options = " ".join(capsys.readouterr().out.split()).partition("options:")[2]
        printed = {}
        for chunk in re.split(r" (?=--[a-z])", options):
            match = re.fullmatch(r"(--[a-z-]+) [A-Z_]+ .*\(default (.+)\)", chunk)
            if match:
                printed[match[1]] = match[2]
        spec = GPriorSpec()
        want = {
            "--a-levels": SimulationConfig.a_levels,
            "--b-levels": SimulationConfig.b_levels,
            "--prior-scale": spec.scale,
        }
        assert printed.keys() == want.keys()
        for flag, text in printed.items():
            value = math.sqrt(2) / 2 if text == "sqrt(2)/2" else float(text)
            assert value == pytest.approx(want[flag], rel=1e-15), flag

    @pytest.mark.parametrize("argv, flag, value, field", _NUMBER_FLAGS,
                             ids=[f"{a[0]}{flag}={value}" for a, flag, value, _ in _NUMBER_FLAGS])
    def test_a_number_flag_out_of_range_is_one_domain_error(self, capsys, monkeypatch,
                                                            tmp_path, argv, flag, value, field):
        # the flag only reads a number; the package rule of its field refuses the range
        monkeypatch.chdir(tmp_path)
        at = argv.index(flag) + 1

        def given(text):
            return run_cli(capsys, *argv[:at], text, *argv[at + 1:])

        code, out, err = given(value)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1, err
        code, out, err = given("x")
        assert (code, out) == (2, "")
        assert f"argument {flag}: invalid " in err
        assert list(tmp_path.iterdir()) == []  # no results file, no density file

    @pytest.mark.parametrize("argv, where",
                             [(["report"], ":1"), (["simulate", "--out", "o.csv", "--config"], "")],
                             ids=["report", "simulate"])
    def test_file_that_is_not_utf8(self, tmp_path, argv, where):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\x00")  # a UTF-16 byte-order mark
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "bicbf.cli", *argv, str(path)], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: {path}{where}: 'utf-8' codec can't decode")

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--f", "1", "--df1", "1", "--df2", str(10**400), "--n", "10"], "df2"),
            (["--f", "1", "--df1", "1", "--df2", "10", "--n", str(10**400)], "n"),
            ([f"F(1,{10**400})=1", "--n", "10"], "df2"),
            ([f"F(1,10)=1, n={10**400}"], "n"),
        ],
        ids=["df2-flag", "n-flag", "df2-text", "n-text"],
    )
    def test_count_beyond_the_double_range(self, argv, field):
        env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "bicbf.cli", "bf", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: {field} must be at most 1.79769e+308")

    @pytest.mark.parametrize("flag", ["--mc-samples", "--oracle-seed"])
    def test_monte_carlo_flags_are_gone(self, capsys, tmp_path, flag):
        code, _, err = run_cli(capsys, "simulate", "--cell-n", "3", "--g", "0", "--trials",
                               "1", "--seed", "1", flag, "1000", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"unrecognized arguments: {flag} 1000" in err
        assert not (tmp_path / "r.csv").exists()

    def test_log_bf_is_log_of_bf(self, capsys):
        _, out, _ = run_cli(
            capsys, "bf", "--f", "4.2", "--df1", "3", "--df2", "96", "--n", "100",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["bf"] == pytest.approx(math.exp(payload["log_bf"]), rel=1e-15)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("direction", ["01", "10"])
    def test_bayes_factor_beyond_a_double(self, capsys, fmt, direction):
        # log BF01 = -23071: BF10 overflows a double, BF01 underflows to 0
        code, out, err = run_cli(
            capsys, "bf", "--f", "1000", "--df1", "1", "--df2", "10", "--n", "10000",
            "--direction", direction, "--format", fmt,
        )
        assert code == 0, err
        if fmt == "json":
            payload = json.loads(out, parse_constant=_reject_constant)
            assert payload["bf"] == (None if direction == "10" else 0.0)
            assert payload["log_bf"] == pytest.approx(23070.997414020312 *
                                                      (1 if direction == "10" else -1))
            assert (payload["favored"], payload["category"]) == ("H1", "very strong")
        else:
            assert "very strong" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("bf", "--f", "3.5", "--df1", "2", "--df2", "28", "--n", "30"),
        ("bf", "--f", "1000", "--df1", "1", "--df2", "10", "--n", "10000", "--direction", "10"),
        ("parse", "F(1,17)=2.584, p=0.126", "--n", "18"),
        ("parse", "t(5)=1.2"),
        ("parse", "F(1,17)=2.584, p=0.126"),
        ("report", "RESULTS"),
    ],
    ids=["bf", "bf-overflow", "parse", "parse-missing-n", "parse-two-warnings", "report"],
)
def test_csv_cells_are_the_json_tokens(capsys, results_file, argv):
    argv = [str(results_file) if arg == "RESULTS" else arg for arg in argv]
    _, as_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    _, as_json, _ = run_cli(capsys, *argv, "--format", "json")
    # numbers stay the text json printed them as
    payload = json.loads(as_json, parse_float=str, parse_int=str,
                         parse_constant=_reject_constant)
    objects = payload if isinstance(payload, list) else [payload]
    header, *rows = csv.reader(io.StringIO(as_csv))
    assert len(rows) == len(objects)
    for row, obj in zip(rows, objects):
        assert header == list(obj) and len(row) == len(obj)
        for cell, token in zip(row, obj.values()):
            if token is None:  # None, or a float beyond the double range
                assert cell == "" or not math.isfinite(float(cell))
            elif isinstance(token, list):  # the cell splits back into the list
                assert (cell.split("; ") if cell else []) == token
            else:
                assert cell == token


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_bf_and_parse_load_no_numpy_or_scipy():
    # numpy is needed by simulate/report alone, scipy by tests alone.
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
    probe = (
        "import contextlib, io, sys\n"
        "def heavy(): return sorted(m for m in sys.modules\n"
        "                           if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "from bicbf.cli import main\n"
        "print(heavy())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['bf', 'F(1,17)=2.584', '--n', '18', '--format', 'json']),\n"
        "             main(['parse', 't(71)=2.0, n=73', '--format', 'csv'])]\n"
        "print(codes, heavy())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout
    assert out.splitlines() == ["[]", "[0, 0] []"]


_SIMULATE_REFUSALS_PROBE = """
import contextlib, io, sys
from pathlib import Path
from bicbf.cli import main

out = Path(sys.argv[1])
(out / "bad.txt").write_text("cell_n = 10\\ng = 0.0\\ntrials = 5\\nseed = 0\\nbogus = 1\\n")
for argv in (["--g", "0.1", "--trials", "2", "--seed", "1"],
             ["--cell-n", "3", "--g", "0.2", "--trials", "3", "--seed", "1",
              "--prior-scale", "1e200"],
             ["--cell-n", "0", "--g", "0.2", "--trials", "3", "--seed", "1"],
             ["--config", str(out / "bad.txt")]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", *argv, "--out", str(out / "r.csv")])
    numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
    print(repr((code, err.getvalue().replace(str(out), "OUT"), numpy)))
"""


def test_simulate_refuses_a_bad_config_before_it_loads_numpy(tmp_path):
    # the flags and the config file are checked in bicbf.config, which loads no numpy
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _SIMULATE_REFUSALS_PROBE, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert [ast.literal_eval(line) for line in out.splitlines()] == [
        (2, "usage error: missing --cell-n (give the flag or a --config file)\n", []),
        (1, "error: scale must lie in [1e-100, 1e+100], got 1e+200\n", []),
        (1, "error: cell_n must be at least 2, got 0\n", []),
        (1, "error: OUT/bad.txt:5: unknown key 'bogus'\n", []),
    ]
    assert not (tmp_path / "r.csv").exists()


_BUDGET_PROBE = """
import contextlib, io, sys
bare = set(sys.modules)
def loaded():
    return sorted({m.split('.')[0] for m in set(sys.modules) - bare})
from bicbf.cli import main
calls = {
    'plain': [['bf', '--f', '2.584', '--df1', '1', '--df2', '17', '--n', '18'],
              ['bf', 't(71)=2.0', '--n', '73', '--direction', '10'],
              ['parse', 'F(1,17)=2.584, p=0.126']],
    'csv': [['parse', 't(71)=2.0, n=73', '--format', 'csv']],
    'json': [['bf', 'F(1,17)=2.584', '--n', '18', '--format', 'json']],
}
for fmt, argvs in calls.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv) for argv in argvs]
    print(repr((fmt, codes, loaded())))
"""

_HEAVY = ("numpy", "scipy", "dataclasses", "inspect", "json", "csv", "typing", "numbers")


def test_bf_and_parse_import_only_what_their_format_needs():
    # Start-up is most of a one-shot call: the bf/parse path leaves out
    # dataclasses (which pulls in inspect), typing, and json and csv until
    # a call asks for that format.  Modules the interpreter itself loads
    # at start-up (some sites import typing) are not counted.
    env = dict(os.environ, PYTHONPATH=str(Path(bicbf.__file__).resolve().parents[1]))
    env.pop(FORMAT_ENV_VAR, None)
    out = subprocess.run(
        [sys.executable, "-c", _BUDGET_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout
    steps = [ast.literal_eval(line) for line in out.splitlines()]
    assert [(fmt, codes) for fmt, codes, _ in steps] == [
        ("plain", [0, 0, 0]), ("csv", [0]), ("json", [0])]
    heavy = {fmt: sorted(set(_HEAVY) & set(loaded)) for fmt, _, loaded in steps}
    assert heavy == {"plain": [], "csv": ["csv"], "json": ["csv", "json"]}
