"""The README's complete library examples run as written, so the API
they document cannot drift from the package's."""

import json
import re
import warnings
from pathlib import Path

import pytest

from nvgyro.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_fringe_example_runs_without_warnings(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    [example] = [b for b in blocks if "import" in b and "sweep_fringes(" in b]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(example, str(README), "exec"), {})
    peak, fit_line = capsys.readouterr().out.splitlines()
    f, t2star, alpha_per_dps = map(float, fit_line.split())
    assert float(peak) == pytest.approx(293.73e3, abs=50.0)
    assert f == pytest.approx(293.73e3, abs=5.0)
    assert t2star == pytest.approx(1.95e-3, rel=1e-2)
    assert alpha_per_dps > 0


def test_rate_table_example_runs(tmp_path, capsys, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    [example] = [b for b in blocks if "RateTrajectory.from_csv(" in b]
    monkeypatch.chdir(README.parent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(example, str(README), "exec"), {})
    alpha = float(capsys.readouterr().out)
    out = tmp_path / "gyro"
    assert main(["gyro", "--profile", "configs/triangle_profile.csv",
                 "--duration", "20", "--out", str(out)]) == 0
    assert alpha == json.loads((out / "regression.json").read_text())["alpha_per_hz"]
