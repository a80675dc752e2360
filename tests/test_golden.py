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
    """Shipped config with only the given lines replaced."""
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
            "edff5858e18c4525d43ea78615e51fb2ca8803d0038e188837b11a84b13c8aa4",
    },
    "gyro": {
        "regression.json":
            "b3280bc73fc1a6f4f93965f9011308364ac029d9e179e07b31999aaf83f0790e",
        "rotation.csv":
            "17ce975204ea18e46bf57ff21e9e0cc3bcb30bae663165fb48d8897d2cd5659d",
        "signal.csv":
            "f523cf5b423540db455232c9d7404edd81fcd7b901baa812dd96e315e95a8173",
        "telemetry.csv":
            "59f5b16c583912f781ed7d7e7f2b7a167e27c514b3532e484769038f0bde0ae6",
    },
    "allan": {
        "allan.csv":
            "70aacf95d6ade74343af89e6dfff290ef74b2259b0241fcb721916b490367c7c",
        "summary.json":
            "4267d004683a4428e8968c951b8b3fc6227d51c0e219de981c903f0b82b6af28",
    },
    # 42,857 cycles: the stream crosses block boundaries.
    "allan-multiblock": {
        "allan.csv":
            "d3f0889eae9e6e28ed2d6161f1e32cfc56ea727c839508044e81d550da9d1d40",
        "summary.json":
            "42fd6b550963f901d5081429250254d5d7256dcf1560ce86f3c580d436ef6fb6",
    },
    # 21,428 cycles through the rate table: stream and CSV row blocks.
    "gyro-multiblock": {
        "regression.json":
            "92654def7f245638c0a3f68947309073099305383d036dd5ad1a512e601785a5",
        "rotation.csv":
            "4cea87c7b79cb0ecc3e00de9bea68422c8bd082ae919248e7b07eee9f1ebd275",
        "signal.csv":
            "38893381c7eafc60e773c55e5271be87c3216399dc7fee10fc1dd315a3431f32",
        "telemetry.csv":
            "59f5b16c583912f781ed7d7e7f2b7a167e27c514b3532e484769038f0bde0ae6",
    },
    "fringes-default": {
        "fit.json":
            "e806d5cbfafd4302b6e1313a1cffd1c89bf991066af1f846674ab434dc9233ff",
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
    # The resonant frame at a 2 kHz DQ detuning: the fringe sits at
    # dq_detuning, and budget snaps to the cosine null at 1.3750 ms.
    "budget-resonant": {
        "budget.json":
            "6ee88ed389ab1653b7152f47045b1903006664e2fc98e25674acf509052b99ee",
    },
    "fringes-resonant": {
        "fit.json":
            "81e61852fa4b9247d4cea2c21173bfa66a603a35a6947ef21012d80dbfd8ca43",
        "fringes_combined.csv":
            "0f9943714ec78e4305de3c2ac7be6e47aa47c4491cb66ed036b15efe6fb46721",
        "fringes_r1.csv":
            "83323b2c8c4c7988b880e7797c715900b0090cb8be0bebb3b118fbb1ec9635e0",
        "fringes_r2.csv":
            "70201c0fe27acb91eccb47e1cc08139aa801ad961bf55762691b338c6e05c225",
        "fringes_r3.csv":
            "27bd2ffbd5d3ce8c1586fee861ad519edbc196486bf6c663170537ffa3eabe1b",
        "fringes_r4.csv":
            "59be6aa5c10c04e3dcbff902530a0dde128b0f47ebe86b00410aa1ff87339177",
        "spectrum_combined.csv":
            "78b04e1f6e4920189ebd1146781abe06b4fff83b76dedfc0f05456ef0e38fea0",
        "spectrum_r1.csv":
            "b5d88ef57aa9f698a4d1a0b7550885f8d8f215b51d7fe22398d86d3772c6ee1c",
        "spectrum_r2.csv":
            "ba1fd14f669bc4f7f676683aeb5e120b646a020051ddf9f9477795c8b54d653c",
        "spectrum_r3.csv":
            "d39abfb3ed518501ff87f5c838d3cf1ee20fcea95fe703098e33b874f2ad56a2",
        "spectrum_r4.csv":
            "519344831c9f9a2fabf0807707c720eb2bb8f3d4590f969fd38ad2345930ad6e",
    },
    # The shipped 4096-point grid (12.8 MHz sampling) resolves the SQ lines.
    "fringes-sq": {
        "fit.json":
            "fad613c9338f8faf11d718a8366338c6a3e4999f993178c64a373970c72e509b",
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
    if case.endswith("-resonant"):
        cfg = _small_grid(tmp_path, "default.cfg", {
            "# dq_detuning = 2000.0 ": "dq_detuning = 2000.0 ",
            "points = 5000": "points = 200"})
        return [case.split("-")[0], "--config", str(cfg)]
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
