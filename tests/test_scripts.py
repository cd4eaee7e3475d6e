"""Smoke tests of the scripts under scripts/."""

import runpy
from pathlib import Path

from bicbf import read_records
from bicbf.cli import FORMAT_ENV_VAR, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_simulation_study_quick_run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    study = runpy.run_path(str(SCRIPTS / "run_simulation_study.py"))
    code = study["main"](["--quick", "--cell-sizes", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    for g in ("0", "0.05", "0.2"):
        assert (tmp_path / f"config_cell2_g{g}.txt").is_file()
        records = read_records(tmp_path / f"results_cell2_g{g}.csv")
        assert len(records) == 3 * 100
    out = capsys.readouterr().out
    assert "cell_n=2 g=0.2 (100 trials" in out
    for g in ("0", "0.05", "0.2"):  # each condition's table is `bicbf report`'s
        assert main(["report", str(tmp_path / f"results_cell2_g{g}.csv")]) == 0
        table = capsys.readouterr().out
        assert table.startswith("effect  route    trials ")
        assert table in out


def test_code_lines_total_is_the_sum_of_the_modules(capsys):
    counter = runpy.run_path(str(SCRIPTS / "code_lines.py"))
    assert counter["main"]([str(SCRIPTS.parent / "src" / "bicbf")]) == 0
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert "rng.py" in [name for _, name in modules]
    assert total[1] == "total" and int(total[0]) == sum(int(count) for count, _ in modules)
    assert all(int(count) > 0 for count, _ in modules)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    counter = runpy.run_path(str(SCRIPTS / "code_lines.py"))
    source = ('"""Module docstring."""\n\n# a comment\nx = """a string\nover two lines"""\n\n\n'
              'def f(a,\n      b):\n    """Docstring\n    of two lines."""\n    return a  # why\n')
    assert counter["code_lines"](source) == 5
