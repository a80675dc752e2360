#!/usr/bin/env python3
"""Paired benchmark of two revisions: writes one BENCH_<n>.json.

Run from a git checkout of nvgyro:

    python tools/bench_pairs.py --parent 33ea2b5 --pairs 10 --seconds 4 \\
        --seed-base 3000 --claim gyro-triangle.peak_rss_mb

`--parent` and `--change` (default HEAD) are exported with `git archive`
into two scratch checkouts, `parent` and `change` in one temporary
directory, so their paths have equal length (peak_rss_mb moves with the
length of the checkout path).  Each of `--pairs` pairs runs `python3
perfbench/run.py --workload all --trace 0 --seed <seed-base + pair>` once
in each checkout, one after the other: odd pairs run the parent first,
even pairs the change.  Then each side makes one `--trace 1` run at
`--seed-base`.  The checkouts are removed afterwards.

The output holds every run's record (`pair`, `side`, `first`, `seed`,
`attempted`, `failed`, `correct`, `metrics`), the two traced runs
(`traced_runs`), the `claim` (a `workload.metric` key, or null) and a
`summary` per `workload.metric` of the timed runs (see `summarize`).
"better" and `bound` come from the parent's BENCHMARK.json.
`python tools/bench_pairs.py --check FILE` rebuilds FILE's summary from
its runs and exits 1 if it differs.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--workload", "all"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """perfbench/run.py's quartiles: statistics.quantiles, n = 4."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per `workload.metric` of the runs' metrics, the parent's quartiles,
    the change's median and how the two compare.

    change_wins is "k/N": the change beat the parent in k of the N pairs
    that measured the metric on both sides (a tie counts for neither).
    median_change_rel is (change_median - parent_median) / parent_median;
    parent_iqr_rel is (parent_q3 - parent_q1) / parent_median; worse_by
    is median_change_rel with its sign set so that a positive value is a
    change for the worse, to be read against bound.  spec is
    BENCHMARK.json: its end_to_end entries give each metric's "better"
    and "bound".
    """
    rules = {m["name"]: m for m in spec["end_to_end"]}
    sides: dict = {}
    for run in runs:
        for key, value in run["metrics"].items():
            sides.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = value
    summary = {}
    for key in sorted(sides):
        rule = rules.get(key.rsplit(".", 1)[-1])
        if rule is None:
            continue
        pairs = [p for p in sides[key].values() if {"parent", "change"} <= p.keys()]
        sign = 1.0 if rule["better"] == "lower" else -1.0
        q1, parent, q3 = _quartiles([p["parent"] for p in sides[key].values()
                                     if "parent" in p])
        change = statistics.median(p["change"] for p in sides[key].values() if "change" in p)
        wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
        rel = (change - parent) / parent
        summary[key] = {
            "parent_q1": q1, "parent_median": parent, "parent_q3": q3,
            "change_median": change,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change_rel": rel,
            "parent_iqr_rel": (q3 - q1) / parent,
            "better": rule["better"],
            "bound": rule["bound"],
            "worse_by": sign * rel,
        }
    return summary


def _export(rev: str, dest: Path) -> str:
    """Export rev's committed files into dest; return its short hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def _run(checkout: Path, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its final JSON line (correct, attempted, failed,
    metrics), with each metric's value alone."""
    proc = subprocess.run([sys.executable, *RUN, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench failed in {checkout.name}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _next_bench() -> Path:
    numbers = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(numbers, default=0) + 1}.json"


def check(path: Path) -> bool:
    """Whether path's summary is the one its runs rebuild."""
    data = json.loads(path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return summarize(data["runs"], spec) == data["summary"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent revision")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="perfbench --seconds per workload (default 4)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="pair p runs seed seed-base + p (default 0)")
    parser.add_argument("--claim", help="the workload.metric the change claims to improve")
    parser.add_argument("--out", type=Path,
                        help="output file (default: the next BENCH_<n>.json here)")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="only rebuild FILE's summary from its runs and compare")
    args = parser.parse_args(argv)
    if args.check:
        ok = check(args.check)
        print(f"{args.check}: summary {'matches' if ok else 'differs from'} its runs")
        return 0 if ok else 1
    if args.parent is None or args.pairs < 1:
        parser.error("--parent is required and --pairs must be >= 1")
    out = args.out or _next_bench()

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = {"parent": scratch / "parent", "change": scratch / "change"}
        shas = {side: _export(rev, checkouts[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
        if args.claim and args.claim.rsplit(".", 1)[-1] not in {
                m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim {args.claim}: not an end-to-end workload.metric")
        runs = []
        for pair in range(1, args.pairs + 1):
            seed = args.seed_base + pair
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                print(f"pair {pair}: {side} (seed {seed})", file=sys.stderr)
                runs.append({"pair": pair, "side": side, "first": side == order[0],
                             "seed": seed,
                             **_run(checkouts[side], seed, args.seconds, trace=0)})
        traced = [{"side": side, "seed": args.seed_base,
                   **_run(checkouts[side], args.seed_base, args.seconds, trace=1)}
                  for side in ("parent", "change")]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    command = " ".join(["python3", *RUN, "--seed", f"<{args.seed_base} + pair>",
                        "--seconds", f"{args.seconds:g}", "--trace", "0"])
    out.write_text(json.dumps({
        "parent": shas["parent"],
        "change": shas["change"],
        "command": command,
        "checkouts": "two scratch checkouts whose paths have equal length",
        "order": "odd pairs run the parent first, even pairs the change",
        "pairs": args.pairs,
        "claim": args.claim,
        "runs": runs,
        "traced_runs": traced,
        "summary": summarize(runs, spec),
    }, indent=2, sort_keys=True) + "\n")
    print(out)
    failed = sum(run["failed"] for run in [*runs, *traced])
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
