"""Golden outputs: sha256 of every data file for a fixed (config, seed).

Pins the byte-reproducibility promise of the CLI.  Each case runs
nvgyro.cli.main into a fresh directory and compares every file it
writes, except manifest.json (which records the wall time), with the
digests recorded below.  A change that moves any of these bytes must
re-record the digests and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nvgyro import load_config, transition_frequencies
from nvgyro.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _small_grid(tmp_path, name: str, replacements: dict[str, str]) -> Path:
    """Shipped config with only its fringe grid lines replaced."""
    text = (CONFIGS / name).read_text()
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


GOLDEN = {
    "budget": {
        "budget.json":
            "c3b2c9d7e2e49bf8bb1b70da44332a265c84ae25cc6fcbff9cd7aaf61790f5e4",
    },
    "gyro": {
        "regression.json":
            "708e7202e648d65515fc27b78e362f54fbc360f2f047ec47a22fad3563e968ef",
        "rotation.csv":
            "23895b8711f8b64ffcf1bfe9a242c4d9831b9e73dbd5fa60119d67774513a473",
        "signal.csv":
            "af4407289b9672c2e95d786658a9f9d40f3d933f88acfc98c131c82361e5d4f0",
        "telemetry.csv":
            "59f5b16c583912f781ed7d7e7f2b7a167e27c514b3532e484769038f0bde0ae6",
    },
    "allan": {
        "allan.csv":
            "99addca9d1ceb0887f0948d8d91c354f0817c96d8838a6cdf1f5f62ec7c817c2",
        "summary.json":
            "47c03a1a06e70eb9beb5c3d434512977a0c4176f27b0c1eb5c5dc68201de6723",
    },
    # 42,857 cycles: the stream crosses block boundaries.
    "allan-multiblock": {
        "allan.csv":
            "933581636a7458a2a69cfcca558670e7f98447658e0fb156c28fe2a4bc883216",
        "summary.json":
            "bdd381b90e822f3908205bbb21a34902488a33a43ed75d624fbfeca57a90c136",
    },
    # 21,428 cycles through the rate table: stream and CSV row blocks.
    "gyro-multiblock": {
        "regression.json":
            "70146cb3a77a5b18a40e39a02c5f73aa25868a039bd2032ca5bf549c32fba42b",
        "rotation.csv":
            "4a841970183337ff7a9a79e91058e16d0c7699d71f20be5bf0b3c146da48c770",
        "signal.csv":
            "f8470eaa22bfed67bc2620106bd5d9a0a25a4f8ee7995d7917787ee6471040d3",
        "telemetry.csv":
            "59f5b16c583912f781ed7d7e7f2b7a167e27c514b3532e484769038f0bde0ae6",
    },
    "fringes-default": {
        "fit.json":
            "3d59ca52ccec082e54e4a6dd9d7bea451296db3c10a1de5c9109b471383137bd",
        "fringes_combined.csv":
            "01120c8817b05ec421ebcf1d4eca117e53657aa96f89054086064f3405d66641",
        "fringes_r1.csv":
            "a73c426e2fac552b9de0d4cf89ae4dcaa5d961aabf7bc0a6f1480fcccb013d00",
        "fringes_r2.csv":
            "786f80f4fb762492be6a40659a4edd1a967380394898475e2f609ecd4050dce3",
        "fringes_r3.csv":
            "97a4a8458499d3360fae7cc7ca79449569798e00eed7308bb505599cb6674589",
        "fringes_r4.csv":
            "c7c392211f371276b00d5c32745e79ae897a67a06da21df86688d9071682a8e6",
        "spectrum_combined.csv":
            "d5a4c6178814cb3a1a85e1c9ebddbfbf9110862e252ec3cb2f7ed29a2d6a05ad",
        "spectrum_r1.csv":
            "a2a0cade8c49e4af01202ace018b49eb3d3d68c8c2b008345b44a6df72e36e07",
        "spectrum_r2.csv":
            "d4ebfbad423be0dd3600a364544b40ae512ef1244ea210810e145a57f55a9add",
        "spectrum_r3.csv":
            "b318880f49fa43be67de7ed74fda3d9e5364a96915b1fb142bd0fcd05644342d",
        "spectrum_r4.csv":
            "d21dc1f6cb98bd2a5ed6e7a23a453e85af9a950bea6d87886a3f11b1653225e1",
    },
    # The shipped 4096-point grid (12.8 MHz sampling) resolves the SQ lines.
    "fringes-sq": {
        "fit.json":
            "1ebbfc284c4dd345f4c74fcd93e80a1c770f7269287251b85e6ec7c8376fe2b6",
        "fringes_combined.csv":
            "d49cf453fa0f52a0df0cf6b344984ee8c706947bb0fb99d9004f661cf189728e",
        "fringes_r1.csv":
            "c6c586497465cab2e0b0927f7e69a0aa51ca28bf5eec924f3e7fa7e4515c7446",
        "fringes_r2.csv":
            "d2e331300da45f65b915dd7ad1093219c7a740eb1deb787637fa69504e96a422",
        "fringes_r3.csv":
            "1dd2a96e977c57cc73c53625e264116d9d441fdbd570f8af7474dc458c84f920",
        "fringes_r4.csv":
            "eaa4de6ab52e74792dbd46a4770ae300b51446da4935aaeab2c94512507a9142",
        "spectrum_combined.csv":
            "41e43d94ea681cef83071dd8c262a827e40b72a2842222b2b11cca23ed329e8f",
        "spectrum_r1.csv":
            "55e6deda7d8bb2499f92faecdf5a3fb68314be454e92afe3562ff6705e0f8ef5",
        "spectrum_r2.csv":
            "858911861e6f0e103463c7ae5f9686f782fd066351392cda0a75a9a0ba8551ef",
        "spectrum_r3.csv":
            "9fc07b6bb8622f00ad4ea9bb3503aae4460bbce3b2f0d2b7f21170e275d48c43",
        "spectrum_r4.csv":
            "3e4b7b5bdfdfb897e62bcbbf2267efdf9de20999706c5ec31eb1b9ff1b69c425",
    },
}


def _argv(case: str, tmp_path: Path) -> list[str]:
    if case == "budget":
        return ["budget", "--config", str(CONFIGS / "default.cfg")]
    if case.startswith("gyro"):
        duration = "150" if case == "gyro-multiblock" else "20"
        return ["gyro", "--profile", str(CONFIGS / "triangle_profile.csv"),
                "--duration", duration]
    if case.startswith("allan"):
        duration = "300" if case == "allan-multiblock" else "60"
        return ["allan", "--duration", duration]
    if case == "fringes-default":
        # 200 points over 0.3 ms sample the 293.7 kHz fringe above Nyquist
        cfg = _small_grid(tmp_path, "default.cfg", {"points = 5000": "points = 200",
                                                    "tau_max = 5e-3": "tau_max = 3e-4"})
        return ["fringes", "--config", str(cfg)]
    return ["fringes", "--config", str(CONFIGS / "sq_cancellation.cfg")]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(case, tmp_path):
    out = tmp_path / "out"
    assert main(_argv(case, tmp_path) + ["--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[case]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(GOLDEN[case])
    assert manifest["command"] == case.split("-")[0]


def test_fringes_sq_case_resolves_the_sq_lines(tmp_path):
    # The case exists to pin the SQ residuals at f1 and f2 and their
    # cancellation: a bin lies within one bin width of each carrier, the
    # single-Ramsey spectrum r1 shows the line there, and the 4-Ramsey
    # combination holds it at least 1e3 times lower in power.
    out = tmp_path / "out"
    assert main(_argv("fringes-sq", tmp_path) + ["--out", str(out)]) == 0
    cfg = load_config(CONFIGS / "sq_cancellation.cfg")
    freq, r1 = np.loadtxt(out / "spectrum_r1.csv", delimiter=",", skiprows=1).T
    _, combined = np.loadtxt(out / "spectrum_combined.csv", delimiter=",", skiprows=1).T
    for f in transition_frequencies(cfg.environment, cfg.constants):
        i = int(np.argmin(np.abs(freq - f)))
        assert abs(freq[i] - f) <= freq[1]
        near = slice(i - 2, i + 3)
        assert r1[near].max() >= 1e3 * combined[near].max()
