"""Command-line orchestration: fringes / gyro / allan / budget.

Each command only computes: it returns its outputs, a mapping from file
name to a JSON dict or a (names, columns) table, and the text it prints.
A table column is an array or an io.Producer, which makes its cells one
write block at a time.  gyro holds one run-length array, its signal: its
rates, rotation estimate and telemetry are Producers, made per block.
`main` alone writes them: after the command returns, and only with
--out, it creates the directory, writes every table in one pass
(io.write_tables: tables that share a row count are written in lockstep
and a column object they share, such as fringes' tau_s and its one
spectrum axis or gyro's t_s, is formatted once), then every JSON
output, then a JSON manifest (command, config snapshot, version, output
list, bytes written, compute and write seconds, wall time, and the seed
of the commands that draw random numbers; budget takes no --seed).  A
run that fails writes nothing.  Outputs are byte-reproducible for a
fixed (config, seed); the manifest additionally records the timings.
Exit codes: 0 ok, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from . import __version__
from .analysis import (
    ALLAN_MIN_SAMPLES,
    allan_deviation,
    calibration_from_fringes,
    calibration_from_sweep,
    dynamic_range,
    fit_decaying_sine,
    one_rad_rotation_rate,
    power_spectrum,
    rate_spread,
    rotation_from_signal,
    rotation_rms_error,
    select_working_point,
)
from .config import ExperimentConfig, default_config, load_config
from .errors import ConfigError, GyroSimError, input_error
from .io import Producer, write_json, write_tables
from .ratetable import RateTrajectory
from .sequence import (combine_4ramsey, combined_sigma, ramsey_signals, run_gyro_stream,
                       sweep_fringes)
from .spin import DEG_PER_REV, dq_splitting, transition_frequencies


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
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

    gyro, allan and budget all start from this working point, and none
    of them reads [environment] nu, so a nonzero nu is a ConfigError.
    """
    nu = cfg.environment.nu
    if nu != 0.0:
        raise ConfigError(
            f"{args.config}: [environment]: nu = {nu:g} Hz is read only by fringes; "
            f"gyro takes its rates from the profile, and allan and budget run at nu = 0")
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
    for key in ("white_sigma", "random_walk_sigma"):
        if (value := getattr(seq.noise, key)) != 0.0:
            raise ConfigError(
                f"{args.config}: [noise]: {key} = {value:g} is read only by gyro and "
                f"allan; fringes draws the photon shot noise of each readout alone")
    taus = np.linspace(grid.tau_min, grid.tau_max, grid.points)
    # A grid that the sweep, the spectra or the fit cannot use is an error
    # of [fringes].  The five tables of each length share one axis
    # object, tau_s or freq_hz, which the writer formats once.
    outputs = {}
    with input_error(f"{args.config}: [fringes]: "):
        series = sweep_fringes(seq, cfg.environment, cfg.constants, taus,
                               default_rng(cfg.seed))
        freqs, power = power_spectrum(taus, series.values)
        for j, record in enumerate(series.records.T, start=1):
            outputs[f"fringes_r{j}.csv"] = (["tau_s", "signal"], [taus, record])
            outputs[f"spectrum_r{j}.csv"] = (["freq_hz", "power"],
                                             [freqs, power_spectrum(taus, record)[1]])
        fit = fit_decaying_sine(series)
    outputs["fringes_combined.csv"] = (["tau_s", "signal", "sigma"],
                                       [taus, series.values, series.sigma])
    outputs["spectrum_combined.csv"] = (["freq_hz", "power"], [freqs, power])

    with input_error(f"{args.config}: [sequence]: "):
        alpha = calibration_from_fringes(fit, seq.tau_wp)
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
        "alpha_per_hz": alpha,
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
    n = seq.n_cycles(duration)

    def times(start, stop):  # cycle k starts at k * cycle_period
        return np.arange(start, stop) * seq.cycle_period

    def table_rate(start, stop):  # deg/s, written as the table evaluated it
        return traj.rate_at(times(start, stop))

    # The table's rates in Hz, made a block at a time wherever they are read.
    nu = Producer(n, lambda start, stop: table_rate(start, stop) / DEG_PER_REV)
    baseline, alpha0, _ = _working_point(args, cfg)
    signal = run_gyro_stream(seq, cfg.environment.replace(nu=nu),
                             cfg.constants, duration, rng)

    report: dict = {
        "alpha0_per_hz": alpha0,
        "alpha0_per_dps": alpha0 / DEG_PER_REV,
        "baseline": baseline,
        "n_samples": n,
    }
    # Regress S against the table rate when the profile actually sweeps.
    if rate_spread(nu) > 1e-4:
        slope, stderr, intercept = calibration_from_sweep(nu, signal)
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
    rms = rotation_rms_error(signal, alpha_used, baseline_used, nu) * DEG_PER_REV

    # Each write block's estimate is formed once, for both its columns.
    @functools.lru_cache(maxsize=1)
    def nu_hat_hz(start, stop):
        return rotation_from_signal(signal[start:stop], alpha_used, baseline_used)

    def nu_hat_dps(start, stop):
        return nu_hat_hz(start, stop) * DEG_PER_REV

    # main's writer makes every column but the signal one block at a time.
    t_s = Producer(n, times)
    outputs = {
        "telemetry.csv": (["t_s", "angle_deg", "rate_dps", "accel_dps2"],
                          traj.telemetry()),
        "signal.csv": (["t_s", "signal"], [t_s, signal]),
        "rotation.csv": (["t_s", "nu_hat_hz", "nu_hat_dps", "table_rate_dps"],
                         [t_s, Producer(n, nu_hat_hz), Producer(n, nu_hat_dps),
                          Producer(n, table_rate)]),
        "regression.json": report,
    }
    return outputs, (f"gyro: {n} samples over {duration:.1f} s, "
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
    signal = run_gyro_stream(cfg.sequence, cfg.environment, cfg.constants, args.duration, rng)
    n_samples = len(signal)
    # The stream's buffer becomes the rotation estimate, then the Allan
    # phase series, in place: the Allan step holds one word per cycle.
    series = allan_deviation(rotation_from_signal(signal, alpha0, baseline, out=signal),
                             cfg.sequence.cycle_period, overwrite=True)

    # ARW: median of the first four points (m = 1, 2, 4, 8, which every
    # series has), the mean of the middle pair as np.median forms it,
    # without the numpy.ma import np.median makes on its first call.
    lo, hi = np.sort(series.adev[:4] * np.sqrt(series.tau_avg[:4]))[1:3]
    arw = float((lo + hi) / 2.0)
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
                     f"{series.tau_avg[i_min]:g} s -> {args.out}")


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
    with input_error(f"{args.config}: [sequence]: the fringe at {f_fringe:g} Hz has no null "
                     f"inside the cycle: with cycle_period = {seq.cycle_period:g} s and "
                     f"t2_dq = {seq.t2_dq:g} s, "):
        wp = select_working_point(seq.t2_dq, f_fringe, seq.tau_wp_max)

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
        f"(4 Ramseys in a {seq.cycle_period * 1e3:.3f} ms cycle), "
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
    }}
    return outputs, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvgyro",
        description="Diamond 14N nuclear-spin gyroscope digital twin",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, seeded=True):
        p.add_argument("--config", help="experiment config file")
        if seeded:
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
    common(p, out_required=False, seeded=False)  # budget draws no random numbers
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
            write_tables({out / name: data for name, data in outputs.items()
                          if not isinstance(data, dict)})
            for name, data in outputs.items():
                if isinstance(data, dict):
                    write_json(out / name, data)
            t_write = time.monotonic()
            write_json(out / "manifest.json", {
                "command": args.command,
                "version": __version__,
                # only the commands that draw random numbers take a seed
                **({"seed": cfg.seed} if "seed" in args else {}),
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
