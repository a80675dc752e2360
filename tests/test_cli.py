import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nvgyro import PhysicalConstants, RateTrajectory, dq_splitting, load_config, sweep_fringes
from nvgyro.cli import main
from nvgyro.io import write_tables
from oracle import psn_rotation_sensitivity

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
TRIANGLE_CSV = CONFIGS / "triangle_profile.csv"


def read_table(path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", names=True)

# small, fast configs for the CLI round trips
FRINGES_CFG = """\
[sequence]
phase_reference = resonant
dq_detuning = 2000.0

[fringes]
tau_min = 1e-6
tau_max = 5e-3
points = 400

[run]
seed = 3
"""

ABSOLUTE_CFG = """\
[fringes]
tau_min = 0.0
tau_max = 5e-3
points = 4000
"""


@pytest.fixture
def fringes_cfg(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FRINGES_CFG)
    return path


class TestFringesCommand:
    def test_outputs_and_manifest(self, tmp_path, fringes_cfg, capsys):
        out = tmp_path / "out"
        rc = main(["fringes", "--config", str(fringes_cfg), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fringes"
        assert manifest["seed"] == 3
        for name in manifest["outputs"]:
            assert (out / name).exists()
        expected = {f"fringes_r{j}.csv" for j in range(1, 5)}
        expected |= {f"spectrum_r{j}.csv" for j in range(1, 5)}
        expected |= {"fringes_combined.csv", "spectrum_combined.csv", "fit.json"}
        assert set(manifest["outputs"]) == expected
        # no orphan outputs beyond the manifest itself
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == expected | {"manifest.json"}
        fit = json.loads((out / "fit.json").read_text())
        assert fit["f_hz"] == pytest.approx(2000.0, abs=3 * fit["f_sigma_hz"])

    def test_manifest_records_timings_and_bytes(self, tmp_path, fringes_cfg):
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(fringes_cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings_s"]
        assert set(timings) == {"compute", "write"}
        assert timings["compute"] >= 0 and timings["write"] >= 0
        assert timings["compute"] + timings["write"] <= manifest["wall_time_s"]
        assert manifest["bytes_written"] == sum(
            (out / name).stat().st_size for name in manifest["outputs"])

    def test_absolute_mode_recovers_dq_frequency(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ABSOLUTE_CFG)
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["f_hz"] - 293.332e3) / 293.332e3 < 0.005

    def test_seeded_outputs_bitwise_identical(self, tmp_path, fringes_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["fringes", "--config", str(fringes_cfg), "--out", str(out1)])
        main(["fringes", "--config", str(fringes_cfg), "--out", str(out2)])
        for name in ("fringes_combined.csv", "fringes_r1.csv", "spectrum_combined.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_changes_noise(self, tmp_path, fringes_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["fringes", "--config", str(fringes_cfg), "--out", str(out1)])
        main(["fringes", "--config", str(fringes_cfg), "--seed", "99",
              "--out", str(out2)])
        a = read_table(out1 / "fringes_combined.csv")["signal"]
        b = read_table(out2 / "fringes_combined.csv")["signal"]
        assert not np.array_equal(a, b)

    def test_writes_the_library_sweep(self, tmp_path, fringes_cfg):
        # `nvgyro fringes` is sweep_fringes on the [fringes] grid: its
        # records, R and sigma are the library's, byte for byte
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(fringes_cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        cfg = load_config(fringes_cfg)
        grid = cfg.fringes
        taus = np.linspace(grid.tau_min, grid.tau_max, grid.points)
        series = sweep_fringes(cfg.sequence, cfg.environment, cfg.constants, taus,
                               np.random.default_rng(3))
        ref = tmp_path / "ref"
        ref.mkdir()
        for j in range(4):
            write_tables({ref / f"fringes_r{j + 1}.csv": (["tau_s", "signal"],
                                                          [taus, series.records[:, j]])})
        write_tables({ref / "fringes_combined.csv": (["tau_s", "signal", "sigma"],
                                                     [taus, series.values, series.sigma])})
        for path in sorted(ref.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_coarse_grid_error_surfaces(self, tmp_path, capsys):
        # 1 us of the ~293.7 kHz fringe is under one period: the fit has
        # no seed, and the error names the file and [fringes]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[fringes]\ntau_min = 1e-6\ntau_max = 2e-6\npoints = 16\n")
        out = tmp_path / "o"
        rc = main(["fringes", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [fringes]: data span 1e-06 s covers 0.")
        assert err.endswith(" oscillation periods; need >= 1\n")
        assert not out.exists()

    def test_aliased_grid_is_rejected_before_writing(self, tmp_path, capsys):
        # B = 1024 G, next to the anticrossing, puts the DQ fringe at about
        # -28 MHz, far past the Nyquist rate of the default 1 us grid step
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[environment]\nB = 1024\n")
        out = tmp_path / "o"
        assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [fringes]: the largest tau step, 1e-06 s, "
                              f"aliases the DQ fringe at ")
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[sequence]\nbogus_key = 1\n")
        rc = main(["fringes", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["fringes"])  # missing --out
        assert exc.value.code == 2


class TestGyroCommand:
    def test_sweep_run_regression(self, tmp_path, fringes_cfg):
        out = tmp_path / "out"
        rc = main(["gyro", "--config", str(fringes_cfg), "--profile",
                   str(TRIANGLE_CSV), "--out", str(out), "--duration", "120"])
        assert rc == 0
        report = json.loads((out / "regression.json").read_text())
        assert report["alpha_per_hz"] == pytest.approx(report["alpha0_per_hz"],
                                                       rel=0.02)
        assert report["alpha_stderr_per_hz"] < abs(report["alpha_per_hz"])
        rotation = read_table(out / "rotation.csv")
        assert np.allclose(rotation["nu_hat_dps"], rotation["nu_hat_hz"] * 360.0)
        telem = read_table(out / "telemetry.csv")
        assert set(telem.dtype.names) == {"t_s", "angle_deg", "rate_dps", "accel_dps2"}

    def test_zero_profile_mean_zero(self, tmp_path, fringes_cfg):
        profile = tmp_path / "zero.csv"
        profile.write_text("duration_s,rate_dps,accel_dps2\n30.0,0.0,1.8\n")
        out = tmp_path / "out"
        assert main(["gyro", "--config", str(fringes_cfg), "--profile",
                     str(profile), "--out", str(out)]) == 0
        rotation = read_table(out / "rotation.csv")
        n = len(rotation["nu_hat_hz"])
        sem = np.std(rotation["nu_hat_hz"]) / np.sqrt(n)
        assert abs(np.mean(rotation["nu_hat_hz"])) < 5 * sem + 1e-12

    def test_tracking_rms_within_shot_noise(self, tmp_path, fringes_cfg):
        out = tmp_path / "out"
        main(["gyro", "--config", str(fringes_cfg), "--profile",
              str(TRIANGLE_CSV), "--out", str(out), "--duration", "120"])
        report = json.loads((out / "regression.json").read_text())
        rotation = read_table(out / "rotation.csv")
        resid_hz = rotation["nu_hat_hz"] - rotation["table_rate_dps"] / 360.0
        from nvgyro import default_config
        from nvgyro.sequence import combined_sigma
        sigma_nu = combined_sigma(default_config().sequence) / abs(
            report["alpha0_per_hz"]
        )
        assert np.sqrt(np.mean(resid_hz**2)) < 3 * sigma_nu

    def test_piecewise_trace_profile_tracks_table(self, tmp_path, fringes_cfg):
        # arbitrary multi-segment program: gyro follows the table within
        # the shot-noise prediction
        profile = tmp_path / "trace.csv"
        profile.write_text(
            "duration_s,rate_dps,accel_dps2\n"
            "10.0,40.0,8.0\n5.0,-60.0,20.0\n8.0,15.0,10.0\n"
            "6.0,-120.0,40.0\n10.0,0.0,25.0\n"
        )
        out = tmp_path / "out"
        assert main(["gyro", "--config", str(fringes_cfg), "--profile",
                     str(profile), "--out", str(out)]) == 0
        report = json.loads((out / "regression.json").read_text())
        rotation = read_table(out / "rotation.csv")
        resid_hz = rotation["nu_hat_hz"] - rotation["table_rate_dps"] / 360.0
        from nvgyro import default_config
        from nvgyro.sequence import combined_sigma
        sigma_nu = combined_sigma(default_config().sequence) / abs(
            report["alpha0_per_hz"]
        )
        assert np.sqrt(np.mean(resid_hz**2)) < 3 * sigma_nu


class TestAllanCommand:
    def test_summary_and_csv(self, tmp_path, fringes_cfg):
        out = tmp_path / "out"
        rc = main(["allan", "--config", str(fringes_cfg), "--out", str(out),
                   "--duration", "60"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        table = read_table(out / "allan.csv")
        assert np.all(np.diff(table["tau_s"]) > 0)
        # shot-noise-only run: measured ARW tracks the budget prediction
        assert summary["arw_hz_per_rt_hz"] == pytest.approx(
            summary["psn_prediction_hz_per_rt_hz"], rel=0.10
        )
        assert np.allclose(table["adev_dps"], table["adev_hz"] * 360.0)

    @pytest.mark.parametrize("line", ["pump_fidelity = 0.7",
                                      "rf_gradient = 0.5:0.8, 0.5:1.2"])
    def test_prediction_tracks_arw_beyond_ideal_pulses(self, tmp_path, line):
        # a weaker pump or an RF gradient shrinks alpha0; the prediction,
        # combined_sigma/|alpha0|*sqrt(cycle_period), shrinks the slope
        # with it, and is budget's sensitivity bit for bit
        cfg = tmp_path / "imperfect.cfg"
        cfg.write_text(f"[sequence]\n{line}\n")
        out = tmp_path / "out"
        assert main(["allan", "--config", str(cfg), "--duration", "600",
                     "--out", str(out / "allan")]) == 0
        assert main(["budget", "--config", str(cfg), "--out", str(out / "budget")]) == 0
        summary = json.loads((out / "allan" / "summary.json").read_text())
        budget = json.loads((out / "budget" / "budget.json").read_text())
        assert summary["arw_hz_per_rt_hz"] == pytest.approx(
            summary["psn_prediction_hz_per_rt_hz"], rel=0.10)
        assert summary["psn_prediction_hz_per_rt_hz"] == budget["sensitivity_hz_per_rt_hz"]

    def test_summary_line_prints_the_floor_tau(self, tmp_path, capsys):
        # a one-second run has its floor below 1 s: the printed tau is the
        # summary's, not rounded to whole seconds
        out = tmp_path / "out"
        assert main(["allan", "--duration", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        line = capsys.readouterr().out
        floor = line.split(" mHz at ")[1].split(" s -> ")[0]
        assert summary["bias_stability_at_s"] < 1
        assert float(floor) == pytest.approx(summary["bias_stability_at_s"], rel=1e-5)

    def test_too_short_run_writes_nothing(self, tmp_path, capsys):
        # 28 cycles pass the one-cycle duration check but are too few for
        # the Allan analysis: --duration is rejected before the stream runs
        out = tmp_path / "out"
        assert main(["allan", "--duration", "0.2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: --duration 0.2 s is 28 cycles of 0.007 s; the Allan "
                       "analysis needs at least 32\n")
        assert "Traceback" not in err
        assert not out.exists()



class TestBudgetCommand:
    def test_report_values(self, capsys):
        assert main(["budget", "--epsilon", "1e-4"]) == 0
        text = capsys.readouterr().out
        assert "9.59 mHz/rtHz (3.45 deg/rts)" in text
        assert "dynamic range" in text
        assert "working point" in text

    def test_budget_json(self, tmp_path):
        out = tmp_path / "out"
        assert main(["budget", "--epsilon", "1e-4", "--out", str(out)]) == 0
        budget = json.loads((out / "budget.json").read_text())
        assert budget["dynamic_range_hz"] == pytest.approx(1.4, rel=0.05)
        assert budget["sensitivity_hz_per_rt_hz"] == pytest.approx(10.0e-3, rel=0.05)
        assert budget["f_dq_hz"] == pytest.approx(293.73e3, rel=1e-4)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "budget"
        assert "seed" not in manifest  # budget draws no random numbers

    @pytest.mark.parametrize("argv", [[], ["--config", str(CONFIGS / "sq_cancellation.cfg")]],
                             ids=["defaults", "sq_cancellation"])
    def test_budget_prints_its_report(self, capsys, argv):
        # with no flags, and on the one shipped config that no other
        # budget test reads
        assert main(["budget", *argv]) == 0
        text = capsys.readouterr().out
        assert "dynamic range" in text and "working point" in text

    def test_budget_takes_no_seed(self, capsys):
        # --seed would change no byte of budget's output: a usage error
        with pytest.raises(SystemExit) as exit_info:
            main(["budget", "--seed", "1"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("detuning", [2000.0, -2000.0])
    def test_resonant_budget_snaps_to_its_fringe(self, tmp_path, capsys, detuning):
        # a 2 kHz fringe has its cosine nulls at odd multiples of 1/(4 * 2 kHz)
        cfg = tmp_path / "res.cfg"
        cfg.write_text(f"[sequence]\nphase_reference = resonant\n"
                       f"dq_detuning = {detuning!r}\n")
        out = tmp_path / "out"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
        tau = json.loads((out / "budget.json").read_text())["tau_wp_snapped_s"]
        turns = 4 * abs(detuning) * tau
        assert round(turns) % 2 == 1 and abs(turns - round(turns)) < 1e-9
        assert "snapped to cosine null 1.3750 ms" in capsys.readouterr().out

    def test_working_point_may_be_the_null_above_t2(self, tmp_path, capsys):
        # T2* = 1.3 ms lies below tau_wp_max = 1.45 ms, between the 2 kHz
        # fringe's nulls at 1.125 and 1.375 ms; the upper one fits the cycle
        # and has the larger slope tau*exp(-tau/T2*), and budget's own
        # sensitivity there is the better one too.
        base = "[sequence]\nphase_reference = resonant\ndq_detuning = 2000\nt2_dq = 1.3e-3\n"
        cfg = tmp_path / "res.cfg"
        cfg.write_text(base)
        assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "snapped to cosine null 1.3750 ms" in capsys.readouterr().out
        for tau, sens in (("1.375e-3", "13.79"), ("1.125e-3", "13.90")):
            cfg.write_text(base + f"tau_wp = {tau}\n")
            assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / tau)]) == 0
            assert f"at tau_wp = {float(tau) * 1e3:.4f} ms: {sens} mHz/rtHz" in (
                capsys.readouterr().out)

    def test_snapped_null_outside_the_cycle(self, tmp_path, capsys):
        # a 2e-9 Hz fringe has its first cosine null ~1e8 s out
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("[sequence]\nphase_reference = resonant\ndq_detuning = 1e-9\n")
        out = tmp_path / "out"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [sequence]: the fringe at 2.09548e-09 Hz "
                              f"has no null inside the cycle: ")
        assert "cycle_period = 0.007 s" in err
        assert not out.exists()

    def test_working_point_is_the_oracle_optimum(self, tmp_path):
        # The closed-form sensitivity at t_m = cycle_period/4, minimised
        # over the cosine nulls tau whose four Ramseys fit the cycle,
        # 4 * (pump_duration + tau) <= cycle_period.
        default_cfg = ROOT / "configs" / "default.cfg"
        out = tmp_path / "out"
        assert main(["budget", "--config", str(default_cfg), "--out", str(out)]) == 0
        budget = json.loads((out / "budget.json").read_text())
        seq = load_config(default_cfg).sequence
        f = budget["f_dq_hz"]
        nulls = [(2 * k + 1) / (4 * f) for k in range(int(f * seq.cycle_period))]
        nulls = [tau for tau in nulls if 4 * (seq.pump_duration + tau) <= seq.cycle_period]
        best = min(nulls, key=lambda tau: psn_rotation_sensitivity(
            seq.detector, tau, seq.t2_dq, seq.cycle_period / 4))
        assert budget["tau_wp_snapped_s"] == pytest.approx(best, rel=1e-12)
        assert budget["tau_wp_snapped_s"] == pytest.approx(1.4495e-3, abs=5e-8)

    def test_budget_reports_f_dq_at_the_drifted_field(self, tmp_path, capsys):
        cfg = tmp_path / "drift.cfg"
        cfg.write_text("[environment]\ndelta_B = 0.1\n")
        out = tmp_path / "out"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
        budget = json.loads((out / "budget.json").read_text())
        assert budget["f_dq_hz"] == dq_splitting(482.0 + 0.1, PhysicalConstants())
        assert budget["f1_hz"] - budget["f2_hz"] == pytest.approx(budget["f_dq_hz"],
                                                                  abs=1e-6)


@pytest.mark.parametrize("argv, files", [
    (["allan", "--duration", "60"], ["allan.csv"]),
    (["gyro", "--profile", str(TRIANGLE_CSV), "--duration", "20"],
     ["signal.csv", "rotation.csv"]),
], ids=["allan", "gyro"])
def test_quadrupole_shift_leaves_data_bytes_unchanged(tmp_path, argv, files):
    # delta_Q moves both carriers common-mode and does not enter the DQ
    # rate, so a 10 kHz shift writes the same bytes as none
    cfg = tmp_path / "shifted.cfg"
    cfg.write_text("[environment]\ndelta_Q = 1e4\n")
    base, shifted = tmp_path / "base", tmp_path / "shifted"
    assert main(argv + ["--out", str(base)]) == 0
    assert main(argv + ["--config", str(cfg), "--out", str(shifted)]) == 0
    for name in files:
        assert (shifted / name).read_bytes() == (base / name).read_bytes(), name


@pytest.mark.parametrize("command", ["allan", "gyro"])
def test_unallocatable_run_names_cycles_and_bytes(tmp_path, capsys, command):
    # 1e12 s is 142,857,142,857,142 cycles: 1.02 PiB of signal, past the
    # 2**47-byte address space, so the allocation fails before touching
    # any memory.  The stream's signal is gyro's one run-length array too
    # (its rates are made per block), so both commands reach its line.
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "gyro":
        profile = tmp_path / "long.csv"
        profile.write_text("duration_s,rate_dps,accel_dps2\n1e12,10,100\n")
        argv += ["--profile", str(profile)]
    else:
        argv += ["--duration", "1e12"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: out of memory: a stream of 142857142857142 cycles needs "
        f"{8 * 142857142857142} bytes for its signal (8 per cycle), more than "
        f"can be allocated\n")
    assert not out.exists()


def _hz_twin(name: str) -> str:
    return name.replace("_dps_per_rt_s", "_hz_per_rt_hz").replace("dps", "hz")


def test_one_hz_is_360_dps_in_every_output(tmp_path):
    # Every degree figure of gyro, allan and budget is its Hz twin times
    # 360 (divided by 360 per deg/s) bit for bit, and table_rate_dps is
    # the rate table's own evaluation at each cycle time.
    runs = {"gyro": ["gyro", "--profile", str(TRIANGLE_CSV), "--duration", "20"],
            "allan": ["allan", "--duration", "60"],
            "budget": ["budget"]}
    fields = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        for path in out.iterdir():
            if path.suffix == ".csv":
                table = read_table(path)
                fields.update({(path.name, key): table[key] for key in table.dtype.names})
            elif path.name != "manifest.json":
                fields.update({(path.name, key): value
                               for key, value in json.loads(path.read_text()).items()})
    checked = set()
    for (file, key), value in fields.items():
        if "dps" not in key or file == "telemetry.csv" or key == "table_rate_dps":
            continue
        hz = np.asarray(fields[file, _hz_twin(key)])
        expected = hz / 360.0 if key.endswith("_per_dps") else hz * 360.0
        assert np.array_equal(np.asarray(value), expected), (file, key)
        checked.add(key)
    assert checked == {"nu_hat_dps", "alpha0_per_dps", "alpha_per_dps",
                       "alpha_stderr_per_dps", "adev_dps", "arw_dps_per_rt_s",
                       "bias_stability_dps", "sensitivity_dps_per_rt_s",
                       "dynamic_range_dps"}
    rate_at = RateTrajectory.from_csv(TRIANGLE_CSV).rate_at
    assert np.array_equal(fields["rotation.csv", "table_rate_dps"],
                          rate_at(fields["rotation.csv", "t_s"]))
    assert np.array_equal(fields["telemetry.csv", "rate_dps"],
                          rate_at(fields["telemetry.csv", "t_s"]))


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: a fresh interpreter that runs
    # budget and a 200-point fringes fit must never import it
    cfg = tmp_path / "small.cfg"
    text = (ROOT / "configs" / "default.cfg").read_text()
    assert "points = 5000" in text and "tau_max = 5e-3" in text
    cfg.write_text(text.replace("points = 5000", "points = 200")
                   .replace("tau_max = 5e-3", "tau_max = 3e-4"))
    fringes = ["fringes", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from nvgyro.cli import main\n"
        "assert main(['budget']) == 0\n"
        f"assert main({fringes!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_allan_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, a cost of its own in
    # a fresh interpreter; the ARW takes the middle pair without it
    argv = ["allan", "--duration", "1", "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from nvgyro.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestCleanErrors:
    """Bad input exits 1 with `error: ...` naming the flag or file:line."""

    @pytest.mark.parametrize("argv, flag", [
        (["allan", "--duration", "-5"], "--duration"),
        (["allan", "--duration", "nan"], "--duration"),
        (["gyro", "--duration", "-1"], "--duration"),
        (["allan", "--seed", "-1"], "--seed"),
        (["budget", "--epsilon", "-1"], "--epsilon"),
    ])
    def test_bad_flag_values(self, tmp_path, capsys, argv, flag):
        if argv[0] == "gyro":
            argv = argv + ["--profile", str(TRIANGLE_CSV)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_seed_must_be_non_negative(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nseed = -1\n")
        assert main(["budget", "--config", str(cfg)]) == 1
        assert f"{cfg}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", [
        ("detector", "V0 = -1"),
        ("sequence", "pump_fidelity = 2"),
        ("environment", "B = -5"),
        ("sequence", "cycle_period = 1e-4"),
        ("constants", "D = 0"),
        ("environment", "B = 1024"),  # f_DQ < 0 past the anticrossing
        ("detector", "V0 = inf"),
        ("detector", "V0 = 1e-300\nG = 1e300"),  # 0 photoelectrons per readout
        ("detector", "V0 = 1e300\nG = 1e-300"),  # inf photoelectrons per readout
        ("constants", "gamma_e = inf"),
        ("constants", "A_perp = -inf"),
        ("environment", "B = inf"),
        ("environment", "nu = inf"),
        ("sequence", "cycle_period = inf"),
        ("sequence", "tau_wp = -inf"),
        ("sequence", "t2_dq = inf"),
        ("sequence", "t2_dq = 1e-6"),  # exp(-tau_wp/t2_dq) underflows to 0
        ("sequence", "rf_gradient = 1:inf"),
        ("sequence", "rf_gradient = 1.5:1, -0.5:0.6"),
        ("sequence", "phase_table = 0:inf, 0:0, 0:0, 0:0"),
        ("noise", "white_sigma = inf"),
        ("fringes", "tau_max = inf"),
        ("constants", "A_perp = 1e200"),  # f_DQ = -inf at 482 G
        ("constants", "gamma_e = 1e300"),  # f_DQ = nan at 482 G
        ("constants", "Q = 1e308"),  # the carriers' phases overflow
    ])
    def test_out_of_range_config_value(self, tmp_path, capsys, section, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{line}\n")
        assert main(["budget", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [{section}]: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["budget", "fringes", "allan", "gyro"])
    def test_working_point_past_the_cycle_on_every_command(self, tmp_path, capsys, command):
        # Four Ramseys at tau_wp = 5 ms take 4 * (0.3 + 5) = 21.2 ms of a
        # 7 ms cycle: every command rejects the config before it writes.
        cfg = tmp_path / "long.cfg"
        cfg.write_text("[sequence]\ntau_wp = 5e-3\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [sequence]: ")
        assert "tau_wp" in err and "cycle_period" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["budget", "fringes", "allan", "gyro"])
    def test_resonant_frame_needs_a_detuning_on_every_command(self, tmp_path, capsys,
                                                              command):
        # On resonance with no dq_detuning the DQ fringe sits at 0 Hz:
        # every command rejects the frame when the config loads, naming
        # dq_detuning rather than the working point or the fringe span.
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text("[sequence]\nphase_reference = resonant\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        if command == "allan":
            argv += ["--duration", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: phase_reference = resonant needs a nonzero "
                              f"dq_detuning: ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["budget", "fringes", "allan", "gyro"])
    @pytest.mark.parametrize("line", ["A_perp = 1e200", "gamma_e = 1e300"])
    def test_level_model_overflow_on_every_command(self, tmp_path, capsys, command, line):
        # The constants overflow double precision at 482 G.  Loading the
        # config evaluates f_DQ once and rejects it: no OverflowError, no
        # RuntimeWarning, one error line, nothing written.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(f"[constants]\n{line}\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        if command == "allan":
            argv += ["--duration", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [constants]: f_DQ at B = 482 G is ")
        assert "not finite" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["budget", "fringes", "allan", "gyro"])
    @pytest.mark.parametrize("section, line", [
        ("environment", "B = 1e305"),  # f_DQ is finite, f1 and f2 are +-3e307 Hz
        ("constants", "Q = 1e308"),
        ("environment", "delta_Q = 1e308"),
    ])
    def test_carrier_phase_overflow_on_every_command(self, tmp_path, capsys, command,
                                                     section, line):
        # The kernel's phase (-2j pi f) tau overflows for these carriers
        # although f_DQ is finite.  Loading the config evaluates it once
        # over a cycle and rejects it: no OverflowError from the tau_wp
        # snap, no RuntimeWarning, one error line, nothing written.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(f"[{section}]\n{line}\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        if command == "allan":
            argv += ["--duration", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [constants]: the carriers f1 = ")
        assert "overflow the phase of a 0.007 s cycle" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, where, message", [
        ("[fringes]\npoints = 4\n", "", "[fringes]: fringes grid needs at least 8 points"),
        ("[sequence\n", ":1", "malformed section header '[sequence'"),
        ("[run]\n = 1\n", ":2", "empty key"),
        ("[run]\nseed = 1.5\n", ":2", "key 'seed': '1.5' is not an integer"),
        ("[detector]\nbalanced = maybe\n", ":2", "key 'balanced': 'maybe' is not a boolean"),
        ("[sequence]\nrf_gradient = 1:1:1\n", ":2", "key 'rf_gradient': '1:1:1' is not a pair"),
        ("[sequence]\nrf_gradient = ,\n", ":2", "key 'rf_gradient': no pairs given"),
        ("[sequence]\nphase_reference = absolute\n", ":2",
         "phase_reference must be 'reset' or 'resonant'"),
        ("[sequence]\nt2_sq = 0\n", "", "[sequence]: t2_sq must be > 0 (inf: no SQ decay)"),
    ], ids=["few-points", "open-header", "empty-key", "fractional-seed", "not-a-boolean",
            "triple", "no-pairs", "unknown-reference", "zero-t2-sq"])
    def test_rejected_config_line(self, tmp_path, capsys, text, where, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}{where}: {message}\n"
        assert not out.exists()

    def test_anticrossing_names_the_file(self, tmp_path, capsys):
        # D/gamma_e = 1024.0856 G: the denominator of f_DQ vanishes
        cfg = tmp_path / "gslac.cfg"
        cfg.write_text("[environment]\nB = 1024.0856\n")
        assert main(["budget", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [constants]: D**2 - (gamma_e*B)**2 is near zero "
            f"(level anticrossing regime)\n")

    def test_balanced_off_is_accepted(self, tmp_path):
        cfg = tmp_path / "single.cfg"
        cfg.write_text("[detector]\nbalanced = off\n")
        assert load_config(cfg).sequence.detector.balanced is False
        assert main(["budget", "--config", str(cfg)]) == 0

    def test_removed_t_meas_names_cycle_period(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[detector]\nV0 = 15.0\nt_meas = inf\n")
        assert main(["budget", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: key 't_meas' in [detector] was removed: ")
        assert "cycle_period / 4" in err and "cycle_period = 7.68e-3" in err

    @pytest.mark.parametrize("command", ["allan", "gyro", "budget"])
    @pytest.mark.parametrize("t2_dq", ["2e-6", "5e-6", "1e-5", "2e-5"])
    def test_working_point_without_signal(self, tmp_path, capsys, command, t2_dq):
        # exp(-tau_wp/t2_dq) stays above 0, but the fringe term is below
        # double precision next to the baseline, so alpha0 is exactly 0.
        cfg = tmp_path / "decayed.cfg"
        cfg.write_text(f"[sequence]\nt2_dq = {t2_dq}\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        if command != "budget":
            argv += ["--duration", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [sequence]: ")
        assert "tau_wp" in err and "t2_dq" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_fringes_calibration_needs_a_delay(self, tmp_path, capsys):
        # tau_wp = 0 keeps the cycle rule, but alpha = 4 pi tau_wp A_wp
        # has no working point: fit.json's calibration names [sequence]
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[sequence]\ntau_wp = 0\n"
                       "[fringes]\ntau_min = 1e-6\ntau_max = 6.4e-5\npoints = 64\n")
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: [sequence]: tau_wp must be > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gyro", "allan", "budget"])
    def test_rotation_rate_is_rejected_where_it_is_not_read(self, tmp_path, capsys, command):
        # Only fringes reads [environment] nu: gyro takes its rates from
        # the profile, and allan and budget run at nu = 0.  The other
        # three reject a nonzero nu rather than ignore it.
        cfg = tmp_path / "nu.cfg"
        cfg.write_text("[environment]\nnu = 5\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        if command != "budget":
            argv += ["--duration", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [environment]: nu = 5 Hz is read only by "
                              f"fringes; ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fringes", "gyro", "allan", "budget"])
    def test_negative_total_field_is_an_environment_error(self, tmp_path, capsys, command):
        # delta_B drives B + delta_B below zero: the level model cannot
        # evaluate it, and the keys that set it are in [environment].
        cfg = tmp_path / "field.cfg"
        cfg.write_text("[environment]\nB = 1\ndelta_B = -2\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [environment]: B + delta_B = -1 G must be >= 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["white_sigma", "random_walk_sigma"])
    def test_stream_noise_is_rejected_by_fringes(self, tmp_path, capsys, key):
        # [noise] is added by the gyro and allan stream only; the sweep
        # draws each readout's photon shot noise, so fringes rejects a
        # nonzero value rather than ignore it, and writes nothing.
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(f"[noise]\n{key} = 1e-3\n")
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [noise]: {key} = 0.001 is read only by "
                              f"gyro and allan; ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    def test_fringes_honours_the_rotation_rate(self, tmp_path, capsys):
        # nu = 5 Hz moves the DQ fringe by 2 nu = 10 Hz; the same seed
        # draws the same noise, so the fits differ by 10 Hz to well
        # within their sigma.
        fits = []
        for nu in (0, 5):
            cfg = tmp_path / f"nu{nu}.cfg"
            cfg.write_text(f"[environment]\nnu = {nu}\n")
            out = tmp_path / f"out{nu}"
            assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 0
            fits.append(json.loads((out / "fit.json").read_text()))
        still, rotating = fits
        assert rotating["f_hz"] - still["f_hz"] == pytest.approx(
            10.0, abs=still["f_sigma_hz"])

    def test_infinite_mode_key(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("[sequence]\nphase_reference = resonant\ndq_detuning = inf\n")
        assert main(["budget", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: key 'dq_detuning'")

    def test_infinite_t2_sq_means_no_sq_decay(self, tmp_path, capsys):
        cfg = tmp_path / "nosq.cfg"
        cfg.write_text("[sequence]\nt2_sq = inf\n")
        assert load_config(cfg).sequence.effective_t2_sq == math.inf
        assert main(["budget", "--config", str(cfg)]) == 0

    def test_fringes_tau_max_must_fit_the_cycle(self, tmp_path, capsys):
        # 9 ms + 0.3 ms pump overruns the 7 ms cycle
        cfg = tmp_path / "long.cfg"
        cfg.write_text("[fringes]\ntau_max = 9e-3\n")
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [fringes]: tau_max = 0.009 s")
        assert not out.exists()

    def test_fringes_grid_that_cannot_increase(self, tmp_path, capsys):
        # 5000 points over 1e-320 s: linspace repeats subnormal delays
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[fringes]\ntau_min = 0.0\ntau_max = 1e-320\n")
        out = tmp_path / "out"
        assert main(["fringes", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [fringes]: taus must be strictly increasing\n")
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("10.0,500.0,1.8", "table limit"),
        ("10.0,nan,1.8", "table limit"),
        ("0.0,10.0,1.8", "duration"),
        ("nan,10.0,1.8", "duration"),
        ("10.0,10.0,inf", "accel"),
    ])
    def test_bad_profile_row_names_file_and_line(self, tmp_path, capsys, row, message):
        profile = tmp_path / "profile.csv"
        profile.write_text(f"duration_s,rate_dps,accel_dps2\n5.0,10.0,1.8\n{row}\n")
        rc = main(["gyro", "--profile", str(profile), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profile}:3:") and message in err

    def test_profile_shorter_than_a_cycle(self, tmp_path, capsys):
        profile = tmp_path / "short.csv"
        profile.write_text("duration_s,rate_dps,accel_dps2\n0.001,0.0,1.8\n")
        rc = main(["gyro", "--profile", str(profile), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {profile}: profile duration must be a finite time of at least "
            f"one cycle (0.007 s), got 0.001")

    @pytest.mark.parametrize("command, duration", [
        ("allan", "inf"), ("allan", "0.0035"), ("gyro", "inf"), ("gyro", "-1")])
    def test_duration_rule_names_the_flag(self, tmp_path, capsys, command, duration):
        argv = [command, "--duration", duration, "--out", str(tmp_path / "o")]
        if command == "gyro":
            argv += ["--profile", str(TRIANGLE_CSV)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: --duration must be a finite time of at least one cycle "
            f"(0.007 s), got {float(duration)}\n")
        assert not (tmp_path / "o").exists()

    def test_missing_profile(self, tmp_path, capsys):
        rc = main(["gyro", "--profile", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "none.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["config", "profile"])
    def test_non_utf8_input(self, tmp_path, capsys, kind):
        bad = tmp_path / f"bad.{'cfg' if kind == 'config' else 'csv'}"
        bad.write_bytes(b"[run]\nseed = 1 \xff\n" if kind == "config"
                        else b"duration_s,rate_dps,accel_dps2\n\xff\n")
        argv = (["budget", "--config", str(bad)] if kind == "config"
                else ["gyro", "--profile", str(bad), "--out", str(tmp_path / "o")])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read {kind} {bad}: not UTF-8 text\n"

    @pytest.mark.parametrize("argv, under", [
        (["budget"], ""),
        (["allan", "--duration", "1"], "sub"),
    ], ids=["existing-file", "path-under-a-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, argv, under):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / under
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ")
        assert "Traceback" not in err
