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

import pytest

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
            "0fa7f5b96102dd9f49fa5bc3dae67bac0bc7a7b39e0ec4574b8d900c971ec783",
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
            "907971315b7f6c4de753f608c3d5744c0593ab5b3adcc875fb8624efc931ffd5",
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
    "fringes-sq": {
        "fit.json":
            "bce5fac014de004825bc64870b185018dc0f93b3c3a26e1376a754e2b2fc10de",
        "fringes_combined.csv":
            "083bfe0903cc2ae7f13228290af1de0884fa646cf99b85284ca6b995eb83e3c8",
        "fringes_r1.csv":
            "f6e63c0cd144e733edc84392bee9ae263d7acca1c1e865705c2265ce07c3f2ad",
        "fringes_r2.csv":
            "d914112b4b89148fea9733ffe08da9a32517903c5671ebd3d9e7de782fec5be6",
        "fringes_r3.csv":
            "125958113464c7b6f02b1a6185bbc7ce4c78a69b487501e71ecbb6f2ce5bb9cc",
        "fringes_r4.csv":
            "0058b57943488c3dd7777cd729c24e088ac51f9254bf8211e8a0de6456f8ebb7",
        "spectrum_combined.csv":
            "aac9e7f062d9fa94d374e53a235e02897bd5cdf9eb132e14c09b002a4b43eb2b",
        "spectrum_r1.csv":
            "a25a2749b19574bfb8901aacfc8b3054c7a6f6ca7ffcdab40b16c1d71c6a22d1",
        "spectrum_r2.csv":
            "ce64acd30e796b068ad5ffac38fba1330dffdee3121dd9c28bbb531c8d178bf7",
        "spectrum_r3.csv":
            "a9b874e492b549bca80e6f2274e2ae5fe31e1f31c03ca7717abdfad49876f92f",
        "spectrum_r4.csv":
            "4c50f481d1329c11d9a125b9c3d0f6b87e13cf007a79db3f762a892c21284fa1",
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
    cfg = _small_grid(tmp_path, "sq_cancellation.cfg", {"points = 4096": "points = 256"})
    return ["fringes", "--config", str(cfg)]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(case, tmp_path):
    out = tmp_path / "out"
    assert main(_argv(case, tmp_path) + ["--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[case]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(GOLDEN[case])
    assert manifest["command"] == case.split("-")[0]
