"""Command-line orchestration: fringes / gyro / allan / budget.

Every data-producing command writes CSVs plus a JSON manifest (command,
config snapshot, seed, version, output list, wall time); the manifest is
written last, after verifying every listed file exists.  Outputs are
byte-reproducible for a fixed (config, seed); the manifest additionally
records the wall time.  Exit codes: 0 ok, 1 domain error, 2 usage error.
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
    allan_deviation,
    calibration_from_fringes,
    dynamic_range,
    fit_decaying_sine,
    one_rad_rotation_rate,
    power_spectrum,
    rotation_from_signal,
    select_working_point,
)
from .config import ExperimentConfig, default_config, load_config
from .detector import psn_rotation_sensitivity
from .errors import ConfigError, GyroSimError
from .io import write_json, write_table
from .ratetable import RotationProfile, run_profile
from .sequence import (
    FringeSeries,
    combine_4ramsey,
    combined_sigma,
    ramsey_signals,
    run_gyro_stream,
)
from .spin import DEG_PER_REV, dq_splitting, transition_frequencies


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _check_duration(duration: float, cfg: ExperimentConfig) -> None:
    """Reject a --duration that cannot hold one stream cycle."""
    period = cfg.sequence.cycle_period
    if not (math.isfinite(duration) and duration >= period):
        raise ConfigError(f"--duration must be a finite time of at least one "
                          f"cycle ({period} s), got {duration}")


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from None
    return out


def _write_manifest(out: Path, command: str, cfg: ExperimentConfig,
                    outputs: list[str], t0: float) -> None:
    missing = [name for name in outputs if not (out / name).exists()]
    if missing:
        raise GyroSimError(f"internal error: missing outputs {missing}")
    write_json(out / "manifest.json", {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.to_mapping(),
        "outputs": sorted(outputs),
        "wall_time_s": time.monotonic() - t0,
    })


def _alpha_direct(cfg: ExperimentConfig) -> tuple[float, float]:
    """(baseline R at nu=0, dR/dnu) from noiseless points at +-0.01 Hz."""
    seq = cfg.sequence
    delta_nu = 0.01
    base, plus, minus = combine_4ramsey(ramsey_signals(
        seq, cfg.environment, cfg.constants, seq.tau_wp,
        nu=np.array([0.0, delta_nu, -delta_nu])))
    return float(base), float((plus - minus) / (2.0 * delta_nu))


def cmd_fringes(args) -> int:
    t0 = time.monotonic()
    cfg = _load(args)
    try:
        cfg.sequence.check_delay(cfg.fringes.tau_max, "tau_max")
    except ValueError as exc:
        raise ConfigError(f"{args.config}: [fringes]: {exc}") from None
    out = _outdir(args)
    rng = default_rng(cfg.seed)
    seq, env, consts = cfg.sequence, cfg.environment, cfg.constants
    taus = np.linspace(cfg.fringes.tau_min, cfg.fringes.tau_max, cfg.fringes.points)

    # The four phase-cycled sweeps share noise draws with the combined
    # signal, as in hardware where R is formed from the same records.
    shots = ramsey_signals(seq, env, consts, taus, rng)
    combined = combine_4ramsey(shots)
    sigma = np.full(len(taus), combined_sigma(seq))

    outputs = []
    for j in range(4):
        name = f"fringes_r{j + 1}.csv"
        write_table(out / name, ["tau_s", "signal"], [taus, shots[:, j]])
        outputs.append(name)
        series_j = FringeSeries(taus=taus, values=shots[:, j])
        freqs, power = power_spectrum(series_j)
        spec_name = f"spectrum_r{j + 1}.csv"
        write_table(out / spec_name, ["freq_hz", "power"], [freqs, power])
        outputs.append(spec_name)

    series = FringeSeries(taus=taus, values=combined, sigma=sigma)
    write_table(out / "fringes_combined.csv", ["tau_s", "signal", "sigma"],
                [taus, combined, sigma])
    outputs.append("fringes_combined.csv")
    freqs, power = power_spectrum(series)
    write_table(out / "spectrum_combined.csv", ["freq_hz", "power"], [freqs, power])
    outputs.append("spectrum_combined.csv")

    fit = fit_decaying_sine(series)
    sig = fit.sigmas
    write_json(out / "fit.json", {
        "model": "A*exp(-tau/T2star)*sin(2*pi*f*tau + phi) + offset",
        "A": fit.A, "A_sigma": sig[0],
        "f_hz": fit.f, "f_sigma_hz": sig[1],
        "phi_rad": fit.phi, "phi_sigma_rad": sig[2],
        "T2star_s": fit.T2star, "T2star_sigma_s": sig[3],
        "offset": fit.offset, "offset_sigma": sig[4],
        "residual_rms": fit.residual_rms,
        "covariance": fit.covariance.tolist(),
        "alpha_per_hz": calibration_from_fringes(fit, seq.tau_wp).per_hz,
        "tau_wp_s": seq.tau_wp,
    })
    outputs.append("fit.json")
    _write_manifest(out, "fringes", cfg, outputs, t0)
    print(f"fringes: {len(taus)} points, fitted f = {fit.f:.3f} Hz, "
          f"T2* = {fit.T2star * 1e3:.3f} ms -> {out}")
    return 0


def cmd_gyro(args) -> int:
    t0 = time.monotonic()
    cfg = _load(args)
    telemetry, traj = run_profile(RotationProfile.from_csv(args.profile))
    duration = traj.t_end
    if duration < cfg.sequence.cycle_period:
        raise ConfigError(f"{args.profile}: profile lasts {duration} s, "
                          f"shorter than one cycle")
    if args.duration is not None:
        _check_duration(args.duration, cfg)
        duration = min(duration, args.duration)
    out = _outdir(args)
    rng = default_rng(cfg.seed)

    def nu_at(t):
        return traj.rate_at(t) / DEG_PER_REV  # deg/s -> Hz

    stream = run_gyro_stream(cfg.sequence, cfg.environment, cfg.constants,
                             duration, rng, nu_at=nu_at)
    nu_true = nu_at(stream.t)

    baseline, alpha0 = _alpha_direct(cfg)
    report: dict = {
        "alpha0_per_hz": alpha0,
        "alpha0_per_dps": alpha0 / DEG_PER_REV,
        "baseline": baseline,
        "n_samples": len(stream),
    }
    # Regress S against the table rate when the profile actually sweeps.
    if np.std(nu_true) > 1e-4:
        dev = nu_true - np.mean(nu_true)
        slope = float(np.sum(dev * (stream.S - np.mean(stream.S))) / np.sum(dev**2))
        intercept = float(np.mean(stream.S) - slope * np.mean(nu_true))
        resid = stream.S - (slope * nu_true + intercept)
        stderr = float(np.sqrt(np.sum(resid**2) / max(len(stream) - 2, 1)
                               / np.sum(dev**2)))
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

    nu_hat = rotation_from_signal(stream.S, alpha_used, baseline_used)
    write_table(out / "telemetry.csv",
                ["t_s", "angle_deg", "rate_dps", "accel_dps2"],
                [telemetry.t, telemetry.angle, telemetry.rate, telemetry.accel])
    write_table(out / "signal.csv", ["t_s", "signal"], [stream.t, stream.S])
    write_table(out / "rotation.csv",
                ["t_s", "nu_hat_hz", "nu_hat_dps", "table_rate_dps"],
                [stream.t, nu_hat, nu_hat * DEG_PER_REV, nu_true * DEG_PER_REV])
    write_json(out / "regression.json", report)
    outputs = ["telemetry.csv", "signal.csv", "rotation.csv", "regression.json"]
    _write_manifest(out, "gyro", cfg, outputs, t0)
    rms = float(np.sqrt(np.mean((nu_hat - nu_true) ** 2))) * DEG_PER_REV
    print(f"gyro: {len(stream)} samples over {duration:.1f} s, "
          f"table-vs-gyro RMS {rms:.3f} deg/s -> {out}")
    return 0


def cmd_allan(args) -> int:
    t0 = time.monotonic()
    cfg = _load(args)
    _check_duration(args.duration, cfg)
    out = _outdir(args)
    rng = default_rng(cfg.seed)
    env = cfg.environment.replace(nu=0.0)
    stream = run_gyro_stream(cfg.sequence, env, cfg.constants, args.duration, rng)
    baseline, alpha0 = _alpha_direct(cfg)
    nu_hat = rotation_from_signal(stream.S, alpha0, baseline)
    series = allan_deviation(nu_hat, cfg.sequence.cycle_period)

    write_table(out / "allan.csv",
                ["tau_s", "adev_hz", "adev_dps", "n_samples"],
                [series.tau_avg, series.adev, series.adev * DEG_PER_REV,
                 series.n_samples])
    # ARW: median of the first four points (m = 1, 2, 4, 8, which every
    # series has), taken as np.median does: the mean of the middle pair.
    first = np.sort(series.adev[:4] * np.sqrt(series.tau_avg[:4]))
    arw = float((first[1] + first[2]) / 2.0)
    i_min = int(np.argmin(series.adev))
    psn = psn_rotation_sensitivity(cfg.sequence.detector, cfg.sequence.tau_wp,
                                   cfg.sequence.t2_dq)
    write_json(out / "summary.json", {
        "duration_s": args.duration,
        "n_samples": len(stream),
        "arw_hz_per_rt_hz": arw,
        "arw_dps_per_rt_s": arw * DEG_PER_REV,
        "bias_stability_hz": float(series.adev[i_min]),
        "bias_stability_dps": float(series.adev[i_min]) * DEG_PER_REV,
        "bias_stability_at_s": float(series.tau_avg[i_min]),
        "psn_prediction_hz_per_rt_hz": psn.hz_per_rt_hz,
        "alpha0_per_hz": alpha0,
    })
    outputs = ["allan.csv", "summary.json"]
    _write_manifest(out, "allan", cfg, outputs, t0)
    print(f"allan: {len(stream)} samples, ARW {arw * 1e3:.2f} mHz/rtHz, "
          f"floor {series.adev[i_min] * 1e3:.3f} mHz at "
          f"{series.tau_avg[i_min]:.0f} s -> {out}")
    return 0


def cmd_budget(args) -> int:
    t0 = time.monotonic()
    cfg = _load(args)
    seq, det = cfg.sequence, cfg.sequence.detector
    f_dq = dq_splitting(cfg.environment.B, cfg.constants)
    if not f_dq > 0:
        raise ConfigError(
            f"{args.config}: [environment]: B = {cfg.environment.B:g} G gives "
            f"f_DQ = {f_dq:.6g} Hz; the budget needs f_DQ > 0 "
            f"(0 < B below the ground-state anticrossing)")
    f1, f2 = transition_frequencies(cfg.environment, cfg.constants)
    sens = psn_rotation_sensitivity(det, seq.tau_wp, seq.t2_dq)
    nu0 = one_rad_rotation_rate(seq.tau_wp)
    try:
        dr = dynamic_range(args.epsilon, nu0)
    except ValueError as exc:
        raise ConfigError(f"--epsilon: {exc}") from None
    overhead = max(seq.cycle_period / 4.0 - seq.tau_wp, 0.0)
    wp = select_working_point(seq.t2_dq, f_dq, overhead)

    lines = [
        f"nvgyro budget (B = {cfg.environment.B:.1f} G)",
        f"  f_DQ = {f_dq / 1e3:.3f} kHz   f1 = {f1 / 1e6:.6f} MHz   "
        f"f2 = {f2 / 1e6:.6f} MHz",
        f"  shot-noise sensitivity at tau_wp = {seq.tau_wp * 1e3:.4f} ms: "
        f"{sens.hz_per_rt_hz * 1e3:.2f} mHz/rtHz "
        f"({sens.dps_per_rt_s:.2f} deg/rts)",
        f"  nu0 (1 rad shift) = {nu0:.2f} Hz",
        f"  dynamic range at epsilon = {args.epsilon:.1e}: "
        f"+-{dr.hz:.3f} Hz (+-{dr.dps:.0f} deg/s)",
        f"  working point: optimum {wp.tau_optimal * 1e3:.4f} ms "
        f"(overhead {overhead * 1e3:.3f} ms), "
        f"snapped to cosine null {wp.tau_wp * 1e3:.4f} ms",
    ]
    print("\n".join(lines))
    if args.out:
        out = _outdir(args)
        write_json(out / "budget.json", {
            "f_dq_hz": f_dq, "f1_hz": f1, "f2_hz": f2,
            "sensitivity_hz_per_rt_hz": sens.hz_per_rt_hz,
            "sensitivity_dps_per_rt_s": sens.dps_per_rt_s,
            "nu0_hz": nu0,
            "epsilon": args.epsilon,
            "dynamic_range_hz": dr.hz,
            "dynamic_range_dps": dr.dps,
            "tau_optimal_s": wp.tau_optimal,
            "tau_wp_snapped_s": wp.tau_wp,
            "overhead_s": overhead,
        })
        _write_manifest(out, "budget", cfg, ["budget.json"], t0)
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GyroSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
