import math
import re
from pathlib import Path

import pytest

from nvgyro import (
    ABSOLUTE_FRAME,
    ConfigError,
    build_config,
    default_config,
    dq_splitting,
    load_config,
)
from nvgyro.cli import main
from nvgyro.config import SCHEMA, _parse_kv_text, accepted_keys

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MODE_KEYS = {"phase_reference", "dq_detuning", "f1_ref", "f2_ref"}


FULL = """\
# full experiment configuration
[constants]
gamma_e = 2.8025e6
gamma_n = 307.7
D = 2.870e9
A_perp = 2.62e6
Q = 4.9425e6

[environment]
B = 482.0
delta_Q = 0.0

[sequence]
tau_wp = 1.4e-3
cycle_period = 7e-3
pump_fidelity = 0.98
rf_gradient = 0.5:0.9, 0.5:1.1
phase_table = 0,0; 3.141592653589793,0; 3.141592653589793,3.141592653589793; 0,3.141592653589793
t2_dq = 1.95e-3
phase_reference = resonant
dq_detuning = 2000.0

[detector]
V0 = 15.0
contrast = 0.015
balanced = true

[noise]
white_sigma = 1e-6

[fringes]
tau_min = 1e-6
tau_max = 5e-3
points = 500

[run]
seed = 42
"""


class TestParser:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL)
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.sequence.tau_wp == 1.4e-3
        assert cfg.sequence.pump_fidelity == 0.98
        assert cfg.sequence.rf_gradient == ((0.5, 0.9), (0.5, 1.1))
        assert cfg.sequence.noise.white_sigma == 1e-6
        assert cfg.fringes.points == 500
        assert cfg.environment.B == 482.0
        # resonant mode with 2 kHz injection
        assert cfg.fringe_frequency() == pytest.approx(2000.0, abs=1e-6)

    def test_unknown_key_is_hard_error_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[constants]\ngamma_e = 2.8e6\ngamma_x = 1.0\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3.*gamma_x"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[magnets]\nstrength = 1\n")
        with pytest.raises(ConfigError, match=r"\[magnets\]"):
            load_config(path)

    def test_key_before_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("B = 482\n")
        with pytest.raises(ConfigError, match="before any"):
            load_config(path)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            _parse_kv_text("[run]\nseed = 1\nseed = 2\n", "x")

    def test_bad_number_diagnostic(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[environment]\nB = fourhundred\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            load_config(path)

    def test_nan_is_not_a_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[environment]\nB = nan\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: .*not a number"):
            load_config(path)

    def test_comments_and_blank_lines(self):
        text = "# top\n\n[run]\nseed = 7  # inline\n; another\n"
        cfg = build_config(_parse_kv_text(text, "t"), origin="t")
        assert cfg.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            _parse_kv_text("[run]\njust some words\n", "x")


class TestDefaults:
    def test_default_config_is_reset_mode(self):
        cfg = default_config()
        assert cfg.sequence.frame == ABSOLUTE_FRAME
        assert cfg.fringe_frequency() == pytest.approx(
            dq_splitting(482.0, cfg.constants)
        )

    def test_default_tau_wp_snaps_to_null(self):
        cfg = default_config()
        f = cfg.fringe_frequency()
        assert abs(math.cos(2 * math.pi * f * cfg.sequence.tau_wp)) < 1e-6
        assert cfg.sequence.tau_wp == pytest.approx(1.428e-3, rel=1e-3)

    @pytest.mark.parametrize("text, fringe", [
        ("[environment]\ndelta_B = 0.1\n", dq_splitting(482.0 + 0.1)),
        ("[sequence]\nphase_reference = resonant\ndq_detuning = -2000.0\n", 2000.0),
    ], ids=["drifted-field", "negative-detuning"])
    def test_default_tau_wp_snaps_to_the_kernel_fringe(self, tmp_path, text, fringe):
        # the fringe turns at f_DQ(B + delta_B) less the frame's DQ
        # reference, and the snap follows it whatever its sign
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        cfg = load_config(path)
        turns = 4 * fringe * cfg.sequence.tau_wp
        assert round(turns) % 2 == 1 and abs(turns - round(turns)) < 1e-9
        assert abs(cfg.fringe_frequency()) == pytest.approx(fringe, abs=1e-6)

    def test_default_cfg_shows_every_default(self):
        # configs/default.cfg documents every key with its default value
        assert (load_config(CONFIGS / "default.cfg").to_mapping()
                == default_config().to_mapping())

    def test_explicit_tau_wp_respected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[sequence]\ntau_wp = 1.111e-3\n")
        assert load_config(path).sequence.tau_wp == 1.111e-3

    def test_mapping_is_json_ready(self):
        import json
        payload = json.dumps(default_config().to_mapping())
        assert "gamma_e" in payload

    def test_dq_detuning_requires_resonant(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[sequence]\ndq_detuning = 100.0\n")
        with pytest.raises(ConfigError, match="resonant"):
            load_config(path)

    def test_explicit_refs_must_pair(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[sequence]\nf1_ref = 5.089e6\n")
        with pytest.raises(ConfigError, match="together"):
            load_config(path)

    @pytest.mark.parametrize("mode", ["phase_reference = resonant\ndq_detuning = 2000.0",
                                      "phase_reference = resonant",
                                      "dq_detuning = 0.0"])
    def test_explicit_refs_reject_the_resonant_mode(self, tmp_path, capsys, mode):
        # otherwise the refs would silently win over the mode keys
        path = tmp_path / "exp.cfg"
        path.write_text(f"[sequence]\n{mode}\nf1_ref = 5.0953e6\nf2_ref = 4.8e6\n")
        with pytest.raises(ConfigError, match=r"f1_ref and f2_ref .* "
                                              r"phase_reference = resonant or dq_detuning"):
            load_config(path)
        assert main(["budget", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: f1_ref and f2_ref")

    def test_explicit_refs_accept_reset(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[sequence]\nphase_reference = reset\n"
                        "f1_ref = 5.0953e6\nf2_ref = 4.8e6\n")
        frame = load_config(path).sequence.frame
        assert (frame.f1, frame.f2) == (5.0953e6, 4.8e6)


class TestSchema:
    """The dataclass fields are the only list of keys."""

    @pytest.mark.parametrize("section", sorted(SCHEMA))
    def test_accepted_keys_are_the_manifest_keys(self, section):
        mapping = default_config().to_mapping()
        assert set(mapping) == set(SCHEMA)
        extra = MODE_KEYS if section == "sequence" else set()
        assert accepted_keys(section) == set(mapping[section]) | extra

    def test_manifest_values_round_trip(self, tmp_path):
        # every manifest entry, written back as a config key, is parsed
        # into the same value
        def text(value):
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, tuple):
                return ", ".join(f"{a!r}:{b!r}" for a, b in value)
            return repr(value)

        mapping = default_config().to_mapping()
        lines = []
        for section, entries in mapping.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {text(value)}" for key, value in entries.items()
                      if value is not None]
        path = tmp_path / "round.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert load_config(path).to_mapping() == mapping

    @pytest.mark.parametrize("section, key, replacement", [
        ("constants", "q_e", "fixed SI constant"),
        ("sequence", "tau", "tau_wp"),
        ("sequence", "readout_window", "t_R"),
        ("detector", "T2star", "t2_dq"),
        ("detector", "t_meas", "cycle_period / 4"),
    ])
    def test_removed_key_names_its_replacement(self, tmp_path, section, key,
                                               replacement):
        path = tmp_path / "old.cfg"
        path.write_text(f"[{section}]\n{key} = 1e-3\n")
        with pytest.raises(ConfigError, match=rf"old\.cfg:2: .*{key}.*removed") as exc:
            load_config(path)
        assert replacement in str(exc.value)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                             ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        load_config(path)

    def test_default_cfg_documents_every_key(self):
        # key = value lines, commented out or not, under each [section]
        chunks = re.split(r"^\[(\w+)\]", (CONFIGS / "default.cfg").read_text(),
                          flags=re.M)
        documented = dict(zip(chunks[1::2], chunks[2::2]))
        assert set(documented) == set(SCHEMA)
        for section, body in documented.items():
            for key in accepted_keys(section):
                assert re.search(rf"(^|[#\s]){key} =", body, flags=re.M), \
                    f"[{section}] {key} missing from default.cfg"
