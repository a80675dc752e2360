"""Configs that the command line rejects, run as a user runs it.

Each case is `python -m nvgyro.cli` in a fresh interpreter, on a config
that the command must refuse: exit 1, one `error:` line on stderr that
names the config and the cause, no traceback and nothing written.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE_CSV = ROOT / "configs" / "triangle_profile.csv"

COMMANDS = {
    "budget": ["budget"],
    "fringes": ["fringes"],
    "allan": ["allan", "--duration", "1"],
    "gyro": ["gyro", "--profile", str(TRIANGLE_CSV)],
}

#: name: (config text, the commands that reject it, the pattern its one
#: line matches after "error: CONFIG: ").
REJECTED = {
    # A level model or carrier phase that overflows, or a working point
    # whose four Ramseys overrun the cycle, fails on every command.
    "a_perp-overflow": ("[constants]\nA_perp = 1e200\n", COMMANDS, r"\[constants\]: "),
    "field-overflow": ("[environment]\nB = 1e305\n", COMMANDS, r"\[constants\]: "),
    "q-overflow": ("[constants]\nQ = 1e308\n", COMMANDS, r"\[constants\]: "),
    "long-tau_wp": ("[sequence]\ntau_wp = 5e-3\n", COMMANDS, r"\[sequence\]: "),
    # resonant without a dq_detuning puts the DQ fringe at 0 Hz
    "resonant": ("[sequence]\nphase_reference = resonant\n", COMMANDS, r".*dq_detuning"),
    # a field that delta_B makes negative is an error of [environment]
    "negative-field": ("[environment]\nB = 1\ndelta_B = -2\n", COMMANDS,
                       r"\[environment\]: B \+ delta_B = "),
    # only fringes reads [environment] nu
    "nonzero-nu": ("[environment]\nnu = 5\n", ["gyro", "allan", "budget"],
                   r"\[environment\]: "),
}

CASES = [(name, command) for name, (_, commands, _) in REJECTED.items()
         for command in commands]


@pytest.mark.parametrize("name, command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_rejected_config_is_one_error_line(tmp_path, name, command):
    text, _, pattern = REJECTED[name]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nvgyro.cli", *COMMANDS[command], "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert re.match(f"error: {re.escape(str(cfg))}: {pattern}", proc.stderr), proc.stderr
    assert not out.exists()
