"""Command-line orchestration: fringes / gyro / allan / budget.

Each command only computes: it returns its outputs, a mapping from file
name to a JSON dict or a (names, columns) table, and the text it prints.
`main` alone writes them: after the command returns, and only with
--out, it creates the directory, writes every output, then writes a JSON
manifest (command, config snapshot, seed, version, output list, bytes
written, compute and write seconds, wall time).  A run that fails writes
nothing.  Outputs are byte-reproducible for a fixed (config, seed); the
manifest additionally records the timings.  Exit codes: 0 ok, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from . import __version__
from .analysis import (
    ALLAN_MIN_SAMPLES,
    _allan_in_place,
    calibration_from_fringes,
    calibration_from_sweep,
    dynamic_range,
    fit_decaying_sine,
    one_rad_rotation_rate,
    power_spectrum,
    rotation_from_signal,
    select_working_point,
)
from .config import ExperimentConfig, default_config, load_config
from .errors import ConfigError, GyroSimError, input_error
from .io import write_json, write_table
from .ratetable import RateTrajectory
from .sequence import (combine_4ramsey, combined_sigma, ramsey_signals, run_gyro_stream,
                       sweep_fringes)
from .spin import DEG_PER_REV, dq_splitting, transition_frequencies


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _working_point(args, cfg: ExperimentConfig) -> tuple[float, float, float]:
    """(baseline R at nu=0, alpha0 = dR/dnu, shot-noise sensitivity in
    Hz/sqrt(Hz)) at tau_wp; alpha0 from noiseless points at +-0.01 Hz.

    The sensitivity is the stream's own floor: one combined sample per
    cycle_period with rate noise combined_sigma/|alpha0|, i.e. a
    measurement time of cycle_period/4 per Ramsey.  A working point whose
    alpha0 is zero or not finite carries no usable rotation signal and is
    a ConfigError naming tau_wp and t2_dq.
    """
    seq = cfg.sequence
    delta_nu = 0.01
    env = cfg.environment.replace(nu=np.array([0.0, delta_nu, -delta_nu]))
    base, plus, minus = combine_4ramsey(ramsey_signals(
        seq, env, cfg.constants, seq.tau_wp))
    alpha0 = float((plus - minus) / (2.0 * delta_nu))
    if not (alpha0 != 0.0 and math.isfinite(alpha0)):
        raise ConfigError(
            f"{args.config}: [sequence]: tau_wp = {seq.tau_wp:g} s and "
            f"t2_dq = {seq.t2_dq:g} s leave no usable rotation signal: "
            f"alpha0 = {alpha0:g} per Hz")
    return (float(base), alpha0,
            combined_sigma(seq) / abs(alpha0) * math.sqrt(seq.cycle_period))


def cmd_fringes(args, cfg: ExperimentConfig) -> tuple[dict, str]:
    grid, seq = cfg.fringes, cfg.sequence
    taus = np.linspace(grid.tau_min, grid.tau_max, grid.points)
    with input_error(f"{args.config}: [fringes]: "):
        series = sweep_fringes(seq, cfg.environment, cfg.constants, taus,
                               default_rng(cfg.seed))

    outputs = {}
    for j, record in enumerate(series.records.T, start=1):
        outputs[f"fringes_r{j}.csv"] = (["tau_s", "signal"], [taus, record])
        outputs[f"spectrum_r{j}.csv"] = (["freq_hz", "power"], power_spectrum(taus, record))
    outputs["fringes_combined.csv"] = (["tau_s", "signal", "sigma"],
                                       [taus, series.values, series.sigma])
    outputs["spectrum_combined.csv"] = (["freq_hz", "power"],
                                        power_spectrum(taus, series.values))

    fit = fit_decaying_sine(series)
    sig = fit.sigmas
    outputs["fit.json"] = {
        "model": "A*exp(-tau/T2star)*sin(2*pi*f*tau + phi) + offset",
        "A": fit.A, "A_sigma": sig[0],
        "f_hz": fit.f, "f_sigma_hz": sig[1],
        "phi_rad": fit.phi, "phi_sigma_rad": sig[2],
        "T2star_s": fit.T2star, "T2star_sigma_s": sig[3],
        "offset": fit.offset, "offset_sigma": sig[4],
        "residual_rms": fit.residual_rms,
        "covariance": fit.covariance.tolist(),
        "alpha_per_hz": calibration_from_fringes(fit, seq.tau_wp),
        "tau_wp_s": seq.tau_wp,
    }
    return outputs, (f"fringes: {len(taus)} points, fitted f = {fit.f:.3f} Hz, "
                     f"T2* = {fit.T2star * 1e3:.3f} ms -> {args.out}")


def cmd_gyro(args, cfg: ExperimentConfig) -> tuple[dict, str]:
    traj = RateTrajectory.from_csv(args.profile)
    seq = cfg.sequence
    duration = traj.t_end
    with input_error(f"{args.profile}: profile "):
        seq.n_cycles(duration)
    if args.duration is not None:
        with input_error("--"):
            seq.n_cycles(args.duration)
        duration = min(duration, args.duration)
    rng = default_rng(cfg.seed)
    t = np.arange(seq.n_cycles(duration)) * seq.cycle_period
    table_rate = traj.rate_at(t)  # deg/s, written as the table evaluated it
    nu_true = table_rate / DEG_PER_REV

    baseline, alpha0, _ = _working_point(args, cfg)
    signal = run_gyro_stream(seq, cfg.environment.replace(nu=nu_true),
                             cfg.constants, duration, rng)

    report: dict = {
        "alpha0_per_hz": alpha0,
        "alpha0_per_dps": alpha0 / DEG_PER_REV,
        "baseline": baseline,
        "n_samples": len(signal),
    }
    # Regress S against the table rate when the profile actually sweeps.
    if np.std(nu_true) > 1e-4:
        slope, stderr, intercept = calibration_from_sweep(nu_true, signal)
        report.update({
            "alpha_per_hz": slope,
            "alpha_stderr_per_hz": stderr,
            "alpha_per_dps": slope / DEG_PER_REV,
            "alpha_stderr_per_dps": stderr / DEG_PER_REV,
            "intercept": intercept,
        })
        alpha_used, baseline_used = slope, intercept
    else:
        alpha_used, baseline_used = alpha0, baseline
    report["alpha_used_per_hz"] = alpha_used

    nu_hat = rotation_from_signal(signal, alpha_used, baseline_used)
    outputs = {
        "telemetry.csv": (["t_s", "angle_deg", "rate_dps", "accel_dps2"],
                          traj.telemetry()),
        "signal.csv": (["t_s", "signal"], [t, signal]),
        "rotation.csv": (["t_s", "nu_hat_hz", "nu_hat_dps", "table_rate_dps"],
                         [t, nu_hat, nu_hat * DEG_PER_REV, table_rate]),
        "regression.json": report,
    }
    rms = float(np.sqrt(np.mean((nu_hat - nu_true) ** 2))) * DEG_PER_REV
    return outputs, (f"gyro: {len(signal)} samples over {duration:.1f} s, "
                     f"table-vs-gyro RMS {rms:.3f} deg/s -> {args.out}")


def cmd_allan(args, cfg: ExperimentConfig) -> tuple[dict, str]:
    with input_error("--"):
        n_cycles = cfg.sequence.n_cycles(args.duration)
        if n_cycles < ALLAN_MIN_SAMPLES:
            raise ValueError(f"duration {args.duration} s is {n_cycles} cycles of "
                             f"{cfg.sequence.cycle_period} s; the Allan analysis needs "
                             f"at least {ALLAN_MIN_SAMPLES}")
    baseline, alpha0, psn = _working_point(args, cfg)
    rng = default_rng(cfg.seed)
    env = cfg.environment.replace(nu=0.0)
    signal = run_gyro_stream(cfg.sequence, env, cfg.constants, args.duration, rng)
    n_samples = len(signal)
    # The stream's buffer becomes the rotation estimate, then the Allan
    # phase series, in place: the Allan step holds one word per cycle.
    series = _allan_in_place(rotation_from_signal(signal, alpha0, baseline, out=signal),
                             cfg.sequence.cycle_period)

    # ARW: median of the first four points (m = 1, 2, 4, 8, which every
    # series has), taken as np.median does: the mean of the middle pair.
    first = np.sort(series.adev[:4] * np.sqrt(series.tau_avg[:4]))
    arw = float((first[1] + first[2]) / 2.0)
    i_min = int(np.argmin(series.adev))
    outputs = {
        "allan.csv": (["tau_s", "adev_hz", "adev_dps", "n_samples"],
                      [series.tau_avg, series.adev, series.adev * DEG_PER_REV,
                       series.n_samples]),
        "summary.json": {
            "duration_s": args.duration,
            "n_samples": n_samples,
            "arw_hz_per_rt_hz": arw,
            "arw_dps_per_rt_s": arw * DEG_PER_REV,
            "bias_stability_hz": float(series.adev[i_min]),
            "bias_stability_dps": float(series.adev[i_min]) * DEG_PER_REV,
            "bias_stability_at_s": float(series.tau_avg[i_min]),
            "psn_prediction_hz_per_rt_hz": psn,
            "alpha0_per_hz": alpha0,
        },
    }
    return outputs, (f"allan: {n_samples} samples, ARW {arw * 1e3:.2f} mHz/rtHz, "
                     f"floor {series.adev[i_min] * 1e3:.3f} mHz at "
                     f"{series.tau_avg[i_min]:.0f} s -> {args.out}")


def cmd_budget(args, cfg: ExperimentConfig) -> tuple[dict, str]:
    seq, env = cfg.sequence, cfg.environment
    f_dq = dq_splitting(env.B + env.delta_B, cfg.constants)
    f_fringe = abs(cfg.fringe_frequency())
    if not (f_dq > 0 and f_fringe > 0):
        raise ConfigError(
            f"{args.config}: [environment]: B + delta_B = {env.B + env.delta_B:g} G "
            f"gives f_DQ = {f_dq:.6g} Hz and a fringe at {f_fringe:.6g} Hz; the "
            f"budget needs both > 0 (f_DQ <= 0 just below the ground-state "
            f"anticrossing at D/gamma_e = {cfg.constants.D / cfg.constants.gamma_e:.1f} G)")
    _, _, sens = _working_point(args, cfg)
    f1, f2 = transition_frequencies(env, cfg.constants)
    nu0 = one_rad_rotation_rate(seq.tau_wp)
    with input_error("--epsilon: "):
        dr = dynamic_range(args.epsilon, nu0)
    overhead = max(seq.cycle_period / 4.0 - seq.tau_wp, 0.0)
    wp = select_working_point(seq.t2_dq, f_fringe, overhead)
    with input_error(f"{args.config}: [sequence]: the fringe at {f_fringe:g} Hz "
                     f"has no null inside the cycle: "):
        seq.check_delay(wp.tau_wp, "the snapped tau_wp")

    lines = [
        f"nvgyro budget (B = {env.B:.1f} G)",
        f"  f_DQ = {f_dq / 1e3:.3f} kHz   f1 = {f1 / 1e6:.6f} MHz   "
        f"f2 = {f2 / 1e6:.6f} MHz",
        f"  shot-noise sensitivity at tau_wp = {seq.tau_wp * 1e3:.4f} ms: "
        f"{sens * 1e3:.2f} mHz/rtHz ({sens * DEG_PER_REV:.2f} deg/rts)",
        f"  nu0 (1 rad shift) = {nu0:.2f} Hz",
        f"  dynamic range at epsilon = {args.epsilon:.1e}: "
        f"+-{dr:.3f} Hz (+-{dr * DEG_PER_REV:.0f} deg/s)",
        f"  working point: optimum {wp.tau_optimal * 1e3:.4f} ms "
        f"(overhead {overhead * 1e3:.3f} ms), "
        f"snapped to cosine null {wp.tau_wp * 1e3:.4f} ms",
    ]
    outputs = {"budget.json": {
        "f_dq_hz": f_dq, "f1_hz": f1, "f2_hz": f2,
        "sensitivity_hz_per_rt_hz": sens,
        "sensitivity_dps_per_rt_s": sens * DEG_PER_REV,
        "nu0_hz": nu0,
        "epsilon": args.epsilon,
        "dynamic_range_hz": dr,
        "dynamic_range_dps": dr * DEG_PER_REV,
        "tau_optimal_s": wp.tau_optimal,
        "tau_wp_snapped_s": wp.tau_wp,
        "overhead_s": overhead,
    }}
    return outputs, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvgyro",
        description="Diamond 14N nuclear-spin gyroscope digital twin",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("fringes", help="phase-cycled fringe sweeps, spectra, fit")
    common(p)
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("gyro", help="rate-table rotation run")
    common(p)
    p.add_argument("--profile", required=True, help="rotation profile CSV")
    p.add_argument("--duration", type=float, help="cap the streamed duration (s)")
    p.set_defaults(func=cmd_gyro)

    p = sub.add_parser("allan", help="non-rotating noise run and Allan deviation")
    common(p)
    p.add_argument("--duration", type=float, default=600.0,
                   help="stream duration in seconds (default 600)")
    p.set_defaults(func=cmd_allan)

    p = sub.add_parser("budget", help="sensitivity / dynamic-range report")
    common(p, out_required=False)
    p.add_argument("--epsilon", type=float, default=1e-4,
                   help="linearity tolerance for the dynamic range (default 1e-4)")
    p.set_defaults(func=cmd_budget)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = _load(args)
        outputs, summary = args.func(args, cfg)
        if args.out:
            t_compute = time.monotonic()
            out = Path(args.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {out}: {exc}") from None
            for name, data in outputs.items():
                if isinstance(data, dict):
                    write_json(out / name, data)
                else:
                    names, columns = data
                    write_table(out / name, names, columns)
            t_write = time.monotonic()
            write_json(out / "manifest.json", {
                "command": args.command,
                "version": __version__,
                "seed": cfg.seed,
                "config": cfg.to_mapping(),
                "outputs": sorted(outputs),
                "bytes_written": sum((out / name).stat().st_size for name in outputs),
                "timings_s": {"compute": t_compute - t0, "write": t_write - t_compute},
                "wall_time_s": time.monotonic() - t0,
            })
    except GyroSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
