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
