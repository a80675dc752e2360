"""Every config key and flag either acts or is rejected.

Each key that a config file may set, and each flag that changes a run,
is perturbed under each of the four commands on tiny inputs (a 64-point
fringe grid, half a second of a one-second gyro profile, one second of
allan).  The pairs that leave every data byte unchanged are listed in
UNCHANGED with their reason, and they must leave them unchanged; every
other pair must change the data bytes or exit 1 with one `error:` line.
A new key fails the test until it is given a perturbation here and, if
it does not act everywhere, a reason.
"""

import pytest

from nvgyro.cli import main
from nvgyro.config import SCHEMA, accepted_keys

#: A one-second rate table, whose telemetry is short to write.
PROFILE = "duration_s,rate_dps,accel_dps2\n1.0,20.0,100.0\n"

#: The base run of every command: the defaults on a short fringe grid.
BASE = {"fringes": {"tau_min": "1e-6", "tau_max": "6.4e-5", "points": "64"}}

COMMANDS = {
    "fringes": [],
    "gyro": ["--profile", "PROFILE", "--duration", "0.5"],
    "allan": ["--duration", "1"],
    "budget": [],
}

#: Key -> (section, the entries that set it to a value other than its
#: default).  f1_ref and f2_ref are set together; dq_detuning is
#: compared with the run that sets phase_reference alone.
PERTURBED = {
    "gamma_e": ("constants", {"gamma_e": "2.8e6"}),
    "gamma_n": ("constants", {"gamma_n": "300"}),
    "D": ("constants", {"D": "2.88e9"}),
    "A_perp": ("constants", {"A_perp": "2.6e6"}),
    "Q": ("constants", {"Q": "4.9e6"}),
    "B": ("environment", {"B": "483"}),
    "nu": ("environment", {"nu": "5"}),
    "delta_Q": ("environment", {"delta_Q": "1000"}),
    "delta_B": ("environment", {"delta_B": "1e-3"}),
    "tau_wp": ("sequence", {"tau_wp": "1.0000657772217584e-3"}),  # a fringe null
    "pump_duration": ("sequence", {"pump_duration": "200e-6"}),
    "cycle_period": ("sequence", {"cycle_period": "8e-3"}),
    "pump_fidelity": ("sequence", {"pump_fidelity": "0.9"}),
    "rf_gradient": ("sequence", {"rf_gradient": "0.5:0.9, 0.5:1.1"}),
    "phase_table": ("sequence", {"phase_table": "0,0; 3,0; 3,3; 0,3"}),
    "t2_dq": ("sequence", {"t2_dq": "1.5e-3"}),
    "t2_sq": ("sequence", {"t2_sq": "1e-3"}),
    "phase_reference": ("sequence", {"phase_reference": "resonant"}),
    "dq_detuning": ("sequence", {"phase_reference": "resonant", "dq_detuning": "2000"}),
    "f1_ref": ("sequence", {"f1_ref": "1000", "f2_ref": "0"}),
    "V0": ("detector", {"V0": "14"}),
    "G": ("detector", {"G": "1.8e5"}),
    "contrast": ("detector", {"contrast": "0.02"}),
    "t_R": ("detector", {"t_R": "15e-6"}),
    "balanced": ("detector", {"balanced": "false"}),
    "white_sigma": ("noise", {"white_sigma": "1e-3"}),
    "random_walk_sigma": ("noise", {"random_walk_sigma": "1e-3"}),
    "tau_min": ("fringes", {"tau_min": "2e-6"}),
    "tau_max": ("fringes", {"tau_max": "6.3e-5"}),
    "points": ("fringes", {"points": "65"}),
    "seed": ("run", {"seed": "5"}),
}

#: (command, flag) -> the flag's arguments, other than the base run's.
FLAGS = {
    ("fringes", "--seed"): ["--seed", "5"],
    ("gyro", "--seed"): ["--seed", "5"],
    ("allan", "--seed"): ["--seed", "5"],
    ("gyro", "--duration"): ["--duration", "0.4"],
    ("allan", "--duration"): ["--duration", "1.5"],
    ("budget", "--epsilon"): ["--epsilon", "1e-3"],
}

_DQ = ("DQ rejection: Q and delta_Q turn only the SQ coherences, which ideal "
       "pulses leave empty")
_NO_SQ = "ideal pulses leave no SQ coherence for t2_sq to decay"
_PUMP = "pump_duration enters only the cycle rule; the delays are tau_wp and the grid"
_GRID = "the sweep grid is read only by fringes"
_NOISE = ("budget reports the photon-shot-noise floor; the technical noise is not "
          "in its model yet")

#: (command, key or flag) pairs that leave every data byte unchanged.
UNCHANGED = {
    **{(command, key): reason for command in ("fringes", "gyro", "allan")
       for key, reason in (("Q", _DQ), ("delta_Q", _DQ), ("t2_sq", _NO_SQ),
                           ("pump_duration", _PUMP))},
    ("fringes", "cycle_period"): "each sweep point is its own experiment: the cycle "
                                 "only bounds its delay (check_delay)",
    **{(command, key): _GRID for command in ("gyro", "allan", "budget")
       for key in SCHEMA["fringes"]},
    ("budget", "seed"): "budget draws no random numbers",
    ("budget", "t2_sq"): _NO_SQ,
    ("budget", "white_sigma"): _NOISE,
    ("budget", "random_walk_sigma"): _NOISE,
}


def _run(tmp_path, capsys, command, sections, flags=()):
    """(exit code, stderr, {name: bytes} of the data files) of one run."""
    run = tmp_path / str(len(list(tmp_path.iterdir())))
    run.mkdir()
    profile = run / "profile.csv"
    profile.write_text(PROFILE)
    cfg = run / "run.cfg"
    cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                           for section, entries in sections.items()))
    out = run / "out"
    argv = [str(profile) if arg == "PROFILE" else arg for arg in COMMANDS[command]]
    code = main([command, *argv, "--config", str(cfg), "--out", str(out), *flags])
    err = capsys.readouterr().err
    data = {path.name: path.read_bytes() for path in sorted(out.glob("*"))
            if path.name != "manifest.json"}
    return code, err, data


def _with(key):
    section, entries = PERTURBED[key]
    sections = {name: dict(values) for name, values in BASE.items()}
    sections.setdefault(section, {}).update(entries)
    return sections


def test_every_key_is_perturbed():
    keys = {key for section in SCHEMA for key in accepted_keys(section)}
    assert keys == set(PERTURBED) | {"f2_ref"}
    assert set(UNCHANGED) <= {(c, k) for c in COMMANDS for k in PERTURBED} | set(FLAGS)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_key_and_flag_acts_or_is_rejected(tmp_path, capsys, command):
    base = _run(tmp_path, capsys, command, BASE)
    assert base[0] == 0, base[1]
    runs = {key: (_run(tmp_path, capsys, command, _with(key)),
                  _run(tmp_path, capsys, command, _with("phase_reference"))
                  if key == "dq_detuning" else base)
            for key in PERTURBED}
    runs.update({flag: (_run(tmp_path, capsys, command, BASE, argv), base)
                 for (c, flag), argv in FLAGS.items() if c == command})
    wrong = []
    for key, ((code, err, data), (_, _, before)) in runs.items():
        if (command, key) in UNCHANGED:
            if not (code == 0 and data == before):
                wrong.append(f"{key} acts ({err.strip() or 'bytes changed'}), yet is listed "
                             f"as {UNCHANGED[command, key]!r}")
        elif code == 0 and data == before:
            wrong.append(f"{key} leaves every data byte unchanged")
        elif code != 0 and not (code == 1 and err.startswith("error: ")
                                and err.count("\n") == 1):
            wrong.append(f"{key} exits {code} with {err!r}")
    assert not wrong, f"{command}: " + "; ".join(wrong)
