"""Smoke tests of the scripts under scripts/."""

import runpy
from pathlib import Path

from bicbf import read_records

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_simulation_study_quick_run(tmp_path, capsys):
    study = runpy.run_path(str(SCRIPTS / "run_simulation_study.py"))
    code = study["main"](["--quick", "--cell-sizes", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    for g in ("0", "0.05", "0.2"):
        assert (tmp_path / f"config_cell2_g{g}.txt").is_file()
        records = read_records(tmp_path / f"results_cell2_g{g}.csv")
        assert len(records) == 3 * 100
    assert "cell_n=2 g=0.2 (100 trials" in capsys.readouterr().out
