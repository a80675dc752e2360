"""Command-line runs that need a process of their own.

Each case is `python -m nvgyro.cli` in a fresh interpreter, as a user
runs it, and holds what an in-process call through main() cannot show:

- a config that the command must refuse exits 1 with one `error:` line
  on stderr that names the config and the cause, no traceback and
  nothing written;
- a usage error exits 2, its stderr ends in one `nvgyro: error:` line,
  and nothing is written;
- a seeded run writes, in a fresh interpreter, the same data bytes as
  the same run in process: no state of a process (a cache, an import
  order, a module-level table) reaches the output.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nvgyro.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
TRIANGLE_CSV = CONFIGS / "triangle_profile.csv"

COMMANDS = {
    "budget": ["budget"],
    "fringes": ["fringes"],
    "allan": ["allan", "--duration", "1"],
    "gyro": ["gyro", "--profile", str(TRIANGLE_CSV)],
}

#: name: (config text, the commands that reject it, the pattern its one
#: line matches after "error: CONFIG: ", or "error: CONFIG:LINE: " when
#: the cause is one line).
REJECTED = {
    # A level model or carrier phase that overflows, or a working point
    # whose four Ramseys overrun the cycle, fails on every command.
    "a_perp-overflow": ("[constants]\nA_perp = 1e200\n", COMMANDS, r"\[constants\]: "),
    "field-overflow": ("[environment]\nB = 1e305\n", COMMANDS, r"\[constants\]: "),
    "q-overflow": ("[constants]\nQ = 1e308\n", COMMANDS, r"\[constants\]: "),
    "long-tau_wp": ("[sequence]\ntau_wp = 5e-3\n", COMMANDS, r"\[sequence\]: "),
    # the removed phase_reference key, in either of its old values, names
    # dq_detuning, the one key of the resonant frame
    "resonant": ("[sequence]\nphase_reference = resonant\n", COMMANDS,
                 r"key 'phase_reference' .*dq_detuning"),
    "phase-reference": ("[sequence]\nphase_reference = reset\n", COMMANDS,
                        r"key 'phase_reference' .*dq_detuning"),
    # the resonant frame at a zero detuning puts the DQ fringe at 0 Hz
    "zero-detuning": ("[sequence]\ndq_detuning = 0\n", COMMANDS,
                      r"key 'dq_detuning' must be nonzero"),
    # a field that delta_B makes negative is an error of [environment]
    "negative-field": ("[environment]\nB = 1\ndelta_B = -2\n", COMMANDS,
                       r"\[environment\]: B \+ delta_B = "),
    # only fringes reads [environment] nu
    "nonzero-nu": ("[environment]\nnu = 5\n", ["gyro", "allan", "budget"],
                   r"\[environment\]: "),
    # B = 1024 G puts the DQ fringe far past the default grid's Nyquist rate
    "aliased-grid": ("[environment]\nB = 1024\n", ["fringes"],
                     r"\[fringes\]: the largest tau step"),
    # 1 us of the fringe is under one period: the fit has no seed
    "short-span": ("[fringes]\ntau_min = 1e-6\ntau_max = 2e-6\npoints = 16\n", ["fringes"],
                   r"\[fringes\]: data span "),
    # only gyro and allan add [noise]
    "stream-noise": ("[noise]\nwhite_sigma = 1e-4\n", ["fringes"],
                     r"\[noise\]: white_sigma = "),
}

CASES = [(name, command) for name, (_, commands, _) in REJECTED.items()
         for command in commands]

#: name: argv that argparse rejects before the run starts.
USAGE = {
    # budget draws no random numbers and takes no --seed
    "budget-seed": ["budget", "--seed", "1"],
}

#: name: argv of a seeded run whose data files must not depend on the
#: process; budget draws no random numbers and takes no --seed.
REPRODUCED = {
    "allan": ["allan", "--duration", "60", "--seed", "3"],
    "gyro": ["gyro", "--profile", str(TRIANGLE_CSV), "--seed", "3"],
    # 71 cycles, under one writer block and one stream block
    "gyro-short": ["gyro", "--profile", str(TRIANGLE_CSV), "--seed", "3", "--duration", "0.5"],
    # a partial last block in both
    "gyro-partial": ["gyro", "--profile", str(TRIANGLE_CSV), "--seed", "3",
                     "--duration", "123.4"],
    "fringes": ["fringes", "--config", str(CONFIGS / "default.cfg"), "--seed", "3"],
    # its five spectra share one 8,193-row frequency axis
    "fringes-sq": ["fringes", "--config", str(CONFIGS / "sq_cancellation.cfg"), "--seed", "3"],
    "budget": ["budget", "--config", str(CONFIGS / "default.cfg")],
}


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m nvgyro.cli argv` in a fresh interpreter, from the repo root."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nvgyro.cli", *argv],
                          capture_output=True, text=True, cwd=ROOT, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("name, command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_rejected_config_is_one_error_line(tmp_path, name, command):
    text, _, pattern = REJECTED[name]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    proc = _run([*COMMANDS[command], "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert re.match(rf"error: {re.escape(str(cfg))}(:\d+)?: {pattern}", proc.stderr), \
        proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", USAGE)
def test_usage_error_exits_2(tmp_path, name):
    out = tmp_path / "out"
    proc = _run([*USAGE[name], "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("nvgyro: error:") == 1
    assert proc.stderr.splitlines()[-1].startswith("nvgyro: error:"), proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", REPRODUCED)
def test_data_files_do_not_depend_on_the_process(tmp_path, name):
    # every data file; manifest.json records the wall time
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = _run([*REPRODUCED[name], "--out", str(fresh)])
    assert proc.returncode == 0, proc.stderr
    assert main([*REPRODUCED[name], "--out", str(here)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in here.iterdir())
    for file in names:
        if file != "manifest.json":
            assert (fresh / file).read_bytes() == (here / file).read_bytes(), file
