"""The README's complete library example runs as written, so the API it
documents cannot drift from the package's."""

import re
import warnings
from pathlib import Path

import pytest

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
