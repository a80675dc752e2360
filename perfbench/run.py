#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nvgyro command line.

Run from the root of a checkout (numpy and scipy installed; the package
is imported from ./src, nothing needs installing):

    python3 perfbench/run.py --workload fringes-default --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

`--seed` becomes the CLI's `--seed`, so the same seed gives the same
inputs.  A performance claim should also be shown on a seed that was not
used while the change was written: pass any other integer.

Workloads (why each one is here: the "why" fields of BENCHMARK.json, which
also lists every metric's name and unit):

  fringes-default  nvgyro fringes --config configs/default.cfg
  gyro-triangle    nvgyro gyro --config configs/default.cfg --profile configs/triangle_profile.csv
  allan-hour       nvgyro allan --duration 3600

Each invocation is a fresh interpreter that imports nvgyro.cli and calls
nvgyro.cli.main(argv), as the installed `nvgyro` console script does
(perfbench/child.py), with its outputs in a fresh directory (.perfbench_tmp-* in the checkout,
removed afterwards).  Invocations
run one at a time (closed loop, one client).

--trace 0 (timed run).  One untimed warm-up invocation fills __pycache__,
then invocations repeat until --seconds have passed.  Reported, as
medians over those invocations: wall_s (spawn to exit), setup_s (spawn to
the call of main(): interpreter start and `import nvgyro.cli`; loading the
config and profile takes about a millisecond and is timed with the work),
shots_per_s (Ramsey shots / seconds inside main(); a shot is one of the 4
phase-cycled readouts per tau point or per cycle) and peak_rss_mb (the
process's maximum resident set).

--trace 1 (traced run).  Untraced invocations alternate with traced ones,
in which every public function and method of the nvgyro layers is wrapped
to record calls and self time.  It uses CLI seed `seed % N`, where N is
the number of seeds in reference_digests.json, so io.outputs_match_seed
compares every data file with the bytes the seed commit wrote.  `python -X importtime` gives the
setup.import.* split.  trace.overhead_s is traced minus untraced wall time.

Every invocation is checked: exit status 0, every expected file present
and listed in manifest.json, the expected number of shots, and a physics
check (fitted fringe frequency and T2*, rotation-regression alpha against
alpha0, ARW against the shot-noise prediction).  The last line of stdout
is one JSON object {correct, attempted, failed, metrics}; lines before it
give provenance and a readable summary.  The exit status is 1 when any
invocation failed and 2 when the checkout holds no nvgyro sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "reference_digests.json"
TMP_PREFIX = ".perfbench_tmp-"

# Metric name -> unit, for each section of BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

INVOCATION_TIMEOUT_S = 60.0
MIN_TIMED = 3
IMPORTTIME_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Physics references, as at the seed commit: dq_splitting(482 G) with the
# literature constants, and the injected DQ coherence time.
F_DQ_REF_HZ = 293730.67921197624
T2_REF_S = 1.95e-3
# Tolerances from tests/test_acceptance.py, widened so that any seed passes:
# criterion 2 asks for 1 sigma_f and 5% on T2*, criterion 7 for 2% on alpha.
F_MAX_SIGMA = 5.0
T2_MAX_REL = 0.05
ALPHA_MAX_REL = 0.02
ARW_MAX_REL = 0.10


class CheckFailed(Exception):
    """An invocation's outputs are missing or physically wrong."""


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def check_fringes(out: Path) -> tuple[int, dict]:
    fit = _json(out / "fit.json")
    f_off = abs(fit["f_hz"] - F_DQ_REF_HZ) / fit["f_sigma_hz"]
    t2_rel = abs(fit["T2star_s"] - T2_REF_S) / T2_REF_S
    if not (f_off <= F_MAX_SIGMA and t2_rel <= T2_MAX_REL):
        raise CheckFailed(f"fit f {fit['f_hz']} Hz is {f_off:.2f} sigma from "
                          f"{F_DQ_REF_HZ} Hz, T2* off by {t2_rel:.2%}")
    rows = (out / "fringes_combined.csv").read_bytes().count(b"\n") - 1
    return 4 * rows, {"analysis.f_fit_offset_sigma": f_off, "analysis.t2_rel_err": t2_rel}


def check_gyro(out: Path) -> tuple[int, dict]:
    reg = _json(out / "regression.json")
    dev = abs(reg["alpha_per_hz"] / reg["alpha0_per_hz"] - 1.0)
    if not dev <= ALPHA_MAX_REL:
        raise CheckFailed(f"regression alpha differs from alpha0 by {dev:.2%}")
    return 4 * reg["n_samples"], {"analysis.alpha_vs_alpha0": dev}


def check_allan(out: Path) -> tuple[int, dict]:
    summary = _json(out / "summary.json")
    ratio = summary["arw_hz_per_rt_hz"] / summary["psn_prediction_hz_per_rt_hz"]
    if not abs(ratio - 1.0) <= ARW_MAX_REL:
        raise CheckFailed(f"ARW / shot-noise prediction = {ratio:.4f}")
    return 4 * summary["n_samples"], {"analysis.arw_over_psn": ratio}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # data files; manifest.json comes on top
    shots: int
    check: Callable[[Path], tuple[int, dict]]


_FRINGE_FILES = tuple(f"{kind}_r{j}.csv" for j in range(1, 5) for kind in ("fringes", "spectrum"))

WORKLOADS = {w.name: w for w in (
    Workload("fringes-default",
             ("fringes", "--config", "configs/default.cfg"),
             _FRINGE_FILES + ("fringes_combined.csv", "spectrum_combined.csv", "fit.json"),
             20_000, check_fringes),
    Workload("gyro-triangle",
             ("gyro", "--config", "configs/default.cfg",
              "--profile", "configs/triangle_profile.csv"),
             ("telemetry.csv", "signal.csv", "rotation.csv", "regression.json"),
             285_712, check_gyro),
    Workload("allan-hour",
             ("allan", "--duration", "3600"),
             ("allan.csv", "summary.json"),
             2_057_140, check_allan),
)}


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    setup_s: float = 0.0
    main_s: float = 0.0
    error: str | None = None
    physics: dict = field(default_factory=dict)
    digests: dict | None = None
    stats: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float, float]:
    """Run argv to completion; return (spawn monotonic, exit code, wall s, max RSS MB)."""
    with log.open("wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, proc.returncode, wall, usage.ru_maxrss / 1024.0


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _verify(w: Workload, out: Path, digest: bool) -> tuple[dict, dict | None]:
    manifest = _json(out / "manifest.json")
    expected = set(w.outputs)
    if set(manifest.get("outputs", [])) != expected:
        raise CheckFailed(f"manifest lists {manifest.get('outputs')}, expected {sorted(expected)}")
    missing = sorted(name for name in expected if not (out / name).is_file())
    if missing:
        raise CheckFailed(f"missing outputs {missing}")
    shots, physics = w.check(out)
    if shots != w.shots:
        raise CheckFailed(f"{shots} shots, expected {w.shots}")
    return physics, _digests(out) if digest else None


def invoke(w: Workload, seed: int, env: dict, traced: bool = False,
           digest: bool = False) -> Invocation:
    """One CLI invocation in a fresh interpreter, outputs in a fresh directory;
    with `digest`, also the sha256 of each data file it wrote."""
    work = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT))
    try:
        out = work / "out"
        argv = [sys.executable, str(CHILD), "trace" if traced else "run",
                str(work / "stats.json"), *w.argv, "--seed", str(seed), "--out", str(out)]
        t0, code, wall, rss = spawn(argv, env, work / "log.txt")
        inv = Invocation(wall, rss)
        if code != 0:
            tail = (work / "log.txt").read_text(errors="replace").strip().splitlines()[-3:]
            inv.error = f"exit status {code}: {' | '.join(tail)}"
            return inv
        try:
            stats = _json(work / "stats.json")
            inv.setup_s = stats["main_start"] - t0
            inv.main_s = stats["main_end"] - stats["main_start"]
            inv.stats = stats if traced else None
            inv.physics, inv.digests = _verify(w, out, digest)
        except (CheckFailed, AttributeError, KeyError, TypeError, ZeroDivisionError) as exc:
            inv.error = f"{type(exc).__name__}: {exc}"
        return inv
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_times(env: dict) -> dict:
    """Cumulative seconds of selected imports from `python -X importtime`."""
    wanted = {"nvgyro.cli": "setup.import.nvgyro_s", "numpy": "setup.import.numpy_s",
              "scipy.optimize": "setup.import.scipy_optimize_s"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nvgyro.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[wanted[parts[2].strip()]].append(int(parts[1]) / 1e6)
    return {metric: statistics.median(v) if v else 0.0 for metric, v in samples.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {"seeds": 1, "workloads": {}}


def outputs_match(w: Workload, seed: int, digests: dict, refs: dict) -> int | None:
    """1 or 0 when the seed commit's digests for (workload, seed) are known."""
    ref = refs["workloads"].get(w.name, {}).get(str(seed))
    return None if ref is None else int(ref == digests)


# ---------------------------------------------------------------- runs


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list[str]


def _record(invs: list[Invocation], inv: Invocation, notes: list[str], label: str) -> None:
    invs.append(inv)
    if inv.error:
        notes.append(f"{label} invocation failed: {inv.error}")


def timed_run(w: Workload, seed: int, seconds: float, env: dict) -> RunResult:
    notes: list[str] = []
    invs: list[Invocation] = []
    _record(invs, invoke(w, seed, env), notes, "warm-up")
    timed: list[Invocation] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(timed) < MIN_TIMED:
        inv = invoke(w, seed, env)
        timed.append(inv)
        _record(invs, inv, notes, "timed")
    failed = sum(1 for inv in invs if inv.error)

    main_s = statistics.median(inv.main_s for inv in timed)
    values = {
        "wall_s": statistics.median(inv.wall_s for inv in timed),
        "setup_s": statistics.median(inv.setup_s for inv in timed),
        "shots_per_s": w.shots / main_s if main_s > 0 else 0.0,
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in timed),
    }
    metrics = {m: (values[m], unit) for m, unit in END_TO_END.items()}
    for name in ("wall_s", "setup_s", "main_s"):
        q1, q2, q3 = quartiles([getattr(inv, name) for inv in timed])
        notes.append(f"{name} quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s, n={len(timed)}")
    notes.append(f"error_rate {failed / len(invs):.4f} ratio ({failed} of {len(invs)} "
                 "invocations failed)")
    return RunResult(len(invs), failed, metrics, notes)


# The ratetable.rate_at.* metrics are those of this traced method.
RATE_AT = "ratetable.RateTrajectory.rate_at"


def layer_figures(stats: dict, shots: int) -> dict:
    """Per-layer figures of one traced invocation."""
    funcs = stats["functions"]
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        prefix, _, key = metric.rpartition(".")
        traced = funcs.get(RATE_AT if prefix == "ratetable.rate_at" else prefix)
        if traced is not None and key in traced:
            out[metric] = traced[key]
    layer_self: dict[str, float] = {}
    for name, fn in funcs.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + fn["self_s"]
    for layer in stats["entry_s"]:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["cli.self_s"] = stats["main_end"] - stats["main_start"] - stats["top_level_s"]

    def get(name, key):
        return funcs.get(name, {}).get(key, 0)

    out["spin.pulse_unitary.per_shot"] = get("spin.pulse_unitary", "calls") / shots
    out["sequence.shots"] = shots
    seq_s = stats["entry_s"]["sequence"]
    out["sequence.shots_per_s"] = shots / seq_s if seq_s > 0 else 0.0
    out["ratetable.rate_at.points_per_call"] = (
        get(RATE_AT, "points") / get(RATE_AT, "calls") if get(RATE_AT, "calls") else 0.0)
    table_s = get("io.write_table", "self_s")
    out["io.write_table.rows_per_s"] = get("io.write_table", "rows") / table_s if table_s else 0.0
    return out


def traced_run(w: Workload, seed: int, seconds: float, env: dict) -> RunResult:
    refs = reference_digests()
    cli_seed = seed % refs["seeds"]
    notes = [f"traced run uses CLI seed {cli_seed} (= seed mod {refs['seeds']})"]
    invs: list[Invocation] = []
    _record(invs, invoke(w, cli_seed, env, digest=True), notes, "warm-up")
    imports = import_times(env)
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not traced:
        for inv, bucket in ((invoke(w, cli_seed, env), plain),
                            (invoke(w, cli_seed, env, traced=True), traced)):
            bucket.append(inv)
            _record(invs, inv, notes, "traced" if bucket is traced else "untraced")
    failed = sum(1 for inv in invs if inv.error)

    # Every per-layer metric is reported; one a workload does not produce reads 0.
    figures = [layer_figures(inv.stats, w.shots) for inv in traced if inv.stats is not None]
    values = {metric: 0.0 for metric in PER_LAYER}
    for metric in PER_LAYER:
        samples = [f[metric] for f in figures if metric in f]
        if samples:
            values[metric] = statistics.median(samples)
    values.update(imports)
    for inv in invs:
        for name, value in inv.physics.items():
            values[name] = value
    match = outputs_match(w, cli_seed, invs[0].digests or {}, refs)
    values["io.outputs_match_seed"] = 0 if match is None else match
    values["trace.overhead_s"] = (statistics.median(inv.wall_s for inv in traced)
                                  - statistics.median(inv.wall_s for inv in plain))
    metrics = {m: (values[m], unit) for m, unit in PER_LAYER.items()}
    return RunResult(len(invs), failed, metrics, notes)


# ------------------------------------------------------- command line


def provenance(seed: int, env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(CHILD), "provenance"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"cannot import nvgyro: {proc.stderr.strip()[-300:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    nvgyro_file = Path(info.pop("nvgyro_file")).resolve()
    if ROOT / "src" not in nvgyro_file.parents:
        raise CheckFailed("`import nvgyro` does not resolve to this checkout's src/")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nvgyro").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    info.update({
        "nproc": NPROC,
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    })
    return info


def preflight() -> str | None:
    needed = ["src/nvgyro/cli.py", "configs/default.cfg", "configs/triangle_profile.csv"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    return f"not an nvgyro checkout, missing {missing}" if missing else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        info = provenance(args.seed, env)
    except (CheckFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(info, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced_run if args.trace else timed_run
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds, env)
        attempted += result.attempted
        failed += result.failed
        for note in result.notes:
            print(f"{name}  {note}")
        for metric, (value, unit) in result.metrics.items():
            print(f"{name}  {metric:<44} {value:>16.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
