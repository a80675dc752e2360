"""tools/bench_pairs.py's summary is a function of a bench file's runs
alone: it rebuilds the medians and win counts stored in the files that
were written by hand before the script existed, and the whole summary of
the files it wrote."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("name", ["BENCH_28.json", "BENCH_29.json"])
def test_summary_rebuilds_hand_written_medians_and_wins(name):
    data = json.loads((ROOT / name).read_text())
    summary = bench_pairs.summarize(data["runs"], SPEC)
    assert summary.keys() == data["summary"].keys()
    for key, stored in data["summary"].items():
        wins = stored["change_wins"]
        if isinstance(wins, int):  # BENCH_28 stores k alone
            wins = f"{wins}/{data['pairs']}"
        assert summary[key]["change_wins"] == wins, key
        assert summary[key]["parent_median"] == stored["parent_median"], key
        assert summary[key]["change_median"] == stored["change_median"], key


@pytest.mark.parametrize("name", ["BENCH_30.json", "BENCH_31.json", "BENCH_32.json",
                                  "BENCH_34.json"])
def test_summary_of_a_written_file_rebuilds_whole(name):
    path = ROOT / name
    data = json.loads(path.read_text())
    assert bench_pairs.summarize(data["runs"], SPEC) == data["summary"]
    assert bench_pairs.check(path)
    assert {key.split(".")[0] for key in data["summary"]} == {
        w["name"] for w in SPEC["workloads"]}


def test_ties_count_for_neither_side():
    def run(pair, side, rss, shots):
        return {"pair": pair, "side": side,
                "metrics": {"w.peak_rss_mb": rss, "w.shots_per_s": shots}}

    runs = [run(1, "parent", 40.0, 100.0), run(1, "change", 39.0, 90.0),
            run(2, "parent", 40.0, 100.0), run(2, "change", 40.0, 110.0),
            run(3, "parent", 41.0, 100.0), run(3, "change", 39.0, 100.0)]
    summary = bench_pairs.summarize(runs, SPEC)
    assert summary["w.peak_rss_mb"]["change_wins"] == "2/3"
    assert summary["w.shots_per_s"]["change_wins"] == "1/3"
    assert summary["w.peak_rss_mb"]["worse_by"] == pytest.approx(-0.025)
    assert summary["w.shots_per_s"]["worse_by"] == 0.0
