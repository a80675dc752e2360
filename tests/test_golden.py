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


def _small_grid(tmp_path, name: str, points_line: str, points: int) -> Path:
    """Shipped config with only its fringe grid size reduced."""
    text = (CONFIGS / name).read_text()
    assert points_line in text
    path = tmp_path / name
    path.write_text(text.replace(points_line, f"points = {points}"))
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
            "2514c4fecfb24682df7bf1bddec05b094ab0668e7bfbff23ed1ed9b21434ea4f",
    },
    "gyro": {
        "regression.json":
            "65db9d0c9648fdaec1821f273cb647fd3f215892bc8f82a8862bbd9cb3b3b4e3",
        "rotation.csv":
            "c0ba73ea56e2c5b88ae5dcbee37669ec94f1e25edaeb998de72e6583830377aa",
        "signal.csv":
            "b557f38c24b05f78d138120064746ddd91c92ce9d621a48947e624dd7036b227",
        "telemetry.csv":
            "59f5b16c583912f781ed7d7e7f2b7a167e27c514b3532e484769038f0bde0ae6",
    },
    "allan": {
        "allan.csv":
            "b731ede46dbacb47fe184b7bbba108a82442bf78e621085637eb74ec4897ad05",
        "summary.json":
            "214645ba9c1855a727aa1b2718febc7d2d96f9b5cbb2ce0ad06881e60734f943",
    },
    # 42,857 cycles: the stream crosses block boundaries.
    "allan-multiblock": {
        "allan.csv":
            "74820cba22caf572a3de1d1c14eb7d1c04ba22d4cc910eb9dee9d09a7ab2b931",
        "summary.json":
            "fb27f1bfcd0f5b5081f5e7ad7cca173e2c4823a6e503a30e0ddc2eb6f5773ca2",
    },
    # 21,428 cycles through the rate table: stream and CSV row blocks.
    "gyro-multiblock": {
        "regression.json":
            "9ff16b09d8277f0fe04add4679312f0f03161745a26ed37868eec95a97c7604d",
        "rotation.csv":
            "fd0496d4095fae3b9d47dd3b9c63ead0357a5c7eccc1e93fb5419b9218673015",
        "signal.csv":
            "b3483d0951ead386fdb97356f9c7ae56243c543976ccd6e2a9147c994142d70b",
        "telemetry.csv":
            "59f5b16c583912f781ed7d7e7f2b7a167e27c514b3532e484769038f0bde0ae6",
    },
    "fringes-default": {
        "fit.json":
            "2a6847e035061ff2b7ee4652bc2df9f036dfbccf644e4c371cc4b6bec9559090",
        "fringes_combined.csv":
            "334a7d33f42dbd373e5c20eabce245db078b5e19397395d7de12a7de563b6af0",
        "fringes_r1.csv":
            "963d9d9753c609faabbdd8809a1046b6d32622cdc01094845dee7e1b5e5916a5",
        "fringes_r2.csv":
            "22a4840194062dfdb83ea9111bf5aa5f8829a9c2c4db1777b3ca585548b1d2c4",
        "fringes_r3.csv":
            "8764f963b9cb074e242c54ac3fae8e53741b425e2382ec54e4a79b25ad3b619c",
        "fringes_r4.csv":
            "419fab6c0845bcdbaea9be8b4d21993148981ceac63bef93c48f7727f01c6433",
        "spectrum_combined.csv":
            "ba97c2426fb4ed5978a5c6eaa3c48ef2c25ef6baf6f3dca5e386225fd5948e4d",
        "spectrum_r1.csv":
            "e73e4626ddb8f79d4862e41aebaa24a2400b655149873be1ac05ee8ac09fb342",
        "spectrum_r2.csv":
            "3687ea0468ceaa9309e7b3c46af4184fd795a2bae5713e714cf8ec04beaf6e14",
        "spectrum_r3.csv":
            "a8fc90b6cbb0fbcdfac25574a7af255ec0ffe3f42083e49f3a183970234010ed",
        "spectrum_r4.csv":
            "18fb19b2f8b5f79b148d5c0d7cfcc916901773c8c0d343da2d55b777c9957c43",
    },
    "fringes-sq": {
        "fit.json":
            "150b13b06977ac056756fcffaae316ee08c73af6ca61102e5f9955b331cad378",
        "fringes_combined.csv":
            "34cef960da1e37afaf85810d4f66909b2f7b41dfb676916380e1daebcd93f74a",
        "fringes_r1.csv":
            "86491ffc2e548f6da7242af7f82ebbe6d49654666343b9cf52dde9dcc9035b7a",
        "fringes_r2.csv":
            "15a45be6167b907e26703340e262da7ea31f8f8389bd53cc21435926c82a2263",
        "fringes_r3.csv":
            "6f86fa8fae3e106c71290fd501797cd72719f39b4c7fb3fbc87f10e08e2545a5",
        "fringes_r4.csv":
            "1abab0d68b00f7f8ccf33abb3a237274194b6163f363290c48abcd54f69f2ffa",
        "spectrum_combined.csv":
            "f9acc64b5c40c6b7c93a16e5ea33211221e91e7b840b8d0901a01655c8f5055a",
        "spectrum_r1.csv":
            "e80392c6605fbe84ba7670e70fa275ec4dc27590c798b6ea656492804c1d8f50",
        "spectrum_r2.csv":
            "5a2f95ce20f7d2ed6c672b3dfa51ba9ad7b968b835b4b778fab57b7da00fc856",
        "spectrum_r3.csv":
            "997836ead7ba599b9c1924b9c7939dfb4730c542ba94ec4c35d589b92599b703",
        "spectrum_r4.csv":
            "270af9956af139b1b70686ff590cb13ee1d26e2db16948921d5bfd93a429c490",
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
        cfg = _small_grid(tmp_path, "default.cfg", "points = 5000", 200)
        return ["fringes", "--config", str(cfg)]
    cfg = _small_grid(tmp_path, "sq_cancellation.cfg", "points = 4096", 256)
    return ["fringes", "--config", str(cfg)]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(case, tmp_path):
    out = tmp_path / "out"
    assert main(_argv(case, tmp_path) + ["--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[case]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(GOLDEN[case])
    assert manifest["command"] == case.split("-")[0]
