"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion NN: PASS/FAIL` line (visible with -s or
in captured output) and asserts the same condition.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from nvgyro import (
    DetectorConfig,
    FieldEnvironment,
    LITERATURE_CONSTANTS,
    NoiseHooks,
    RateTrajectory,
    RotatingFrame,
    SequenceConfig,
    allan_deviation,
    calibration_from_fringes,
    combine_4ramsey,
    dq_splitting,
    dynamic_range,
    fit_decaying_sine,
    linearity,
    power_spectrum,
    psn_rotation_sensitivity,
    ramsey_signals,
    run_gyro_stream,
    snap_to_cos_null,
    sweep_fringes,
    transition_frequencies,
)
from nvgyro.sequence import combined_sigma

C = LITERATURE_CONSTANTS
ENV = FieldEnvironment(B=482.0)
TRIANGLE_CSV = Path(__file__).resolve().parents[1] / "configs" / "triangle_profile.csv"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sync_cfg(dq_detuning=2000.0, **kwargs) -> SequenceConfig:
    frame = RotatingFrame.dq_detuned(ENV, C, dq_detuning)
    return SequenceConfig(frame=frame, **kwargs)


def test_criterion_01_dq_splitting_value_and_runtime():
    f = dq_splitting(482.0, C)
    runs = []
    for _ in range(100):
        t0 = time.perf_counter()
        dq_splitting(482.0, C)
        runs.append(time.perf_counter() - t0)
    fastest = min(runs)
    ok = 292.0e3 <= f <= 294.8e3 and fastest < 1e-3
    _report(1, ok, f"f_DQ(482 G) = {f / 1e3:.3f} kHz (band 292.0-294.8), "
                   f"runtime {fastest * 1e6:.1f} us < 1 ms")


def test_criterion_02_fringe_pipeline_recovery():
    t0 = time.perf_counter()
    f_inj, t2_inj = 2000.0, 1.95e-3
    cfg = _sync_cfg(f_inj, t2_dq=t2_inj)
    taus = np.linspace(1e-6, 5e-3, 500)
    rng = np.random.default_rng(12345)
    series = sweep_fringes(cfg, ENV, C, taus, rng)  # photon-shot-noise level
    fit = fit_decaying_sine(series)
    elapsed = time.perf_counter() - t0
    f_err = abs(fit.f - f_inj)
    t2_rel = abs(fit.T2star - t2_inj) / t2_inj
    ok = f_err <= fit.sigmas[1] and t2_rel <= 0.05 and elapsed < 10.0
    _report(2, ok, f"f = {fit.f:.4f} Hz (inj {f_inj}, err {f_err:.4f} <= "
                   f"1 sigma {fit.sigmas[1]:.4f}), T2* = {fit.T2star * 1e3:.4f} ms "
                   f"({t2_rel * 100:.2f}% of 1.95 ms), {elapsed:.1f} s < 10 s")


def test_criterion_03_sq_cancellation():
    t0 = time.perf_counter()
    cfg = SequenceConfig(rf_gradient=((0.5, 0.9), (0.5, 1.1)))
    n, dt = 4096, 78.125e-9
    taus = np.arange(n) * dt + 1e-9
    # R1..R4 share one shot-noise draw, as the records of one measurement
    singles = ramsey_signals(cfg, ENV, C, taus, np.random.default_rng(7))
    combined = (singles[:, 0] - singles[:, 1] + singles[:, 2] - singles[:, 3]) / 4
    f1, f2 = transition_frequencies(ENV, C)
    f_dq = f1 - f2

    def peak(values, f_target):
        freqs, power = power_spectrum(taus, values)
        i = int(np.argmin(np.abs(freqs - f_target)))
        return float(np.max(power[i - 3:i + 4])), freqs, power

    def floor(freqs, power):
        mask = np.ones(len(freqs), dtype=bool)
        mask[:5] = False
        for f in (f1, f2, f_dq):
            i = int(np.argmin(np.abs(freqs - f)))
            mask[max(i - 25, 0):i + 26] = False
        return float(np.median(power[mask]))

    results = []
    for f_sq in (f1, f2):
        p_single, freqs, power = peak(singles[:, 0], f_sq)
        noise_floor = floor(freqs, power)
        p_comb, _, _ = peak(combined, f_sq)
        results.append((p_single / noise_floor, p_single / p_comb))
    elapsed = time.perf_counter() - t0
    ok = all(above >= 10.0 and supp >= 100.0 for above, supp in results)
    ok = ok and elapsed < 30.0
    detail = ", ".join(
        f"{name}: single/floor x{above:.0f}, suppression x{supp:.0f}"
        for name, (above, supp) in zip(("f1", "f2"), results)
    )
    _report(3, ok, detail + f", {elapsed:.1f} s < 30 s")


def test_criterion_04_quadrupole_immunity():
    cfg = _sync_cfg(2000.0)
    taus = np.linspace(1e-6, 5e-3, 500)
    fits = {}
    for dq in (-10e3, 0.0, 10e3):
        series = sweep_fringes(cfg, ENV.replace(delta_Q=dq), C, taus)
        fits[dq] = fit_decaying_sine(series).f
    shift = max(abs(fits[10e3] - fits[0.0]), abs(fits[-10e3] - fits[0.0]))
    ok = shift < 1e-3
    _report(4, ok, f"delta_Q = +-10 kHz moves fitted fringe by {shift:.2e} Hz < 1 mHz")


def test_criterion_05_rotation_factor_of_two():
    cfg = _sync_cfg(2000.0)
    taus = np.linspace(1e-6, 5e-3, 500)
    f0 = fit_decaying_sine(sweep_fringes(cfg, ENV, C, taus)).f
    f1 = fit_decaying_sine(sweep_fringes(cfg, ENV.replace(nu=1.0), C, taus)).f
    shift = f1 - f0
    ok = abs(shift - 2.0) <= 0.002
    _report(5, ok, f"nu = 1.000 Hz shifts fringe by {shift:.6f} Hz (2.000 +- 0.002)")


def test_criterion_06_sensitivity_budget():
    # budget formula with its own stated inputs (tau = 1.4 ms, T2* = 2.0 ms)
    sens = psn_rotation_sensitivity(DetectorConfig(), 1.4e-3, t2=2.0e-3)
    rel = abs(sens - 9.8e-3) / 9.8e-3
    conv = 13e-3 * 360.0
    ok = rel <= 0.02 and conv == pytest.approx(4.68, abs=1e-12)
    _report(6, ok, f"budget {sens * 1e3:.3f} mHz/rtHz "
                   f"({rel * 100:.2f}% of 9.8), 13 mHz/rtHz -> {conv:.2f} deg/rts")


def test_criterion_07_calibration_agreement():
    # formula value with the quoted fringe amplitude
    cal_quoted = calibration_from_fringes(1.32, 1.428e-3)
    quoted_ok = abs(cal_quoted / 360.0 - 6.56e-5) / 6.56e-5 <= 0.02

    # three estimators on the simulated instrument (absolute mode)
    f_dq = dq_splitting(482.0, C)
    tau_wp = snap_to_cos_null(1.428e-3, f_dq)
    cfg = SequenceConfig(tau_wp=tau_wp)
    taus = np.linspace(0.0, 5e-3, 5000)
    fit = fit_decaying_sine(sweep_fringes(cfg, ENV, C, taus))
    alpha_fringe = calibration_from_fringes(fit, tau_wp)

    dtau = 2e-8
    r_plus, r_minus = combine_4ramsey(ramsey_signals(
        cfg, ENV, C, np.array([tau_wp + dtau, tau_wp - dtau])))
    ds_dtau = (r_plus - r_minus) / (2 * dtau)
    from nvgyro import calibration_from_slope
    alpha_slope = calibration_from_slope(ds_dtau, tau_wp, f_dq)

    traj = RateTrajectory.from_csv(TRIANGLE_CSV)
    t = np.arange(cfg.n_cycles(traj.t_end)) * cfg.cycle_period
    nu = np.asarray(traj.rate_at(t)) / 360.0
    signal = run_gyro_stream(cfg, ENV.replace(nu=nu), C, traj.t_end,
                             np.random.default_rng(42))
    dev = nu - nu.mean()
    alpha_sweep = float(np.sum(dev * (signal - signal.mean())) / np.sum(dev**2))

    mags = [abs(alpha_fringe), abs(alpha_slope), abs(alpha_sweep)]
    pairwise = max(abs(a / b - 1.0) for a in mags for b in mags)
    ok = quoted_ok and pairwise <= 0.02
    _report(7, ok, f"alpha(A=1.32%) = {cal_quoted / 360.0:.3e} %/(deg/s) "
                   f"(vs 6.56e-5), fringe/slope/sweep = "
                   f"{alpha_fringe:.4e}/{alpha_slope:.4e}/{alpha_sweep:.4e}, "
                   f"max pairwise dev {pairwise * 100:.2f}% <= 2%")


def test_criterion_08_allan_suite():
    t0 = time.perf_counter()
    # (a) 1e6-sample white noise: scaling and slope
    rng = np.random.default_rng(2468)
    sigma = 0.25
    white = rng.normal(0.0, sigma, 1_000_000)
    m_list = [1, 2, 4, 8, 16, 32, 64]
    series = allan_deviation(white, tau0=1.0, m_values=m_list)
    scaling_dev = np.max(np.abs(series.adev * np.sqrt(series.tau_avg) / sigma - 1.0))
    decade = series.tau_avg <= 10.0
    slope = np.polyfit(np.log(series.tau_avg[decade]),
                       np.log(series.adev[decade]), 1)[0]

    # (b) configured 13 mHz/rtHz total noise floor: upper bound at 300 s
    f_dq = dq_splitting(482.0, C)
    tau_wp = snap_to_cos_null(1.428e-3, f_dq)
    base_cfg = SequenceConfig(tau_wp=tau_wp)
    dn = 0.01
    baseline, plus, minus = combine_4ramsey(ramsey_signals(
        base_cfg, ENV.replace(nu=np.array([0.0, dn, -dn])), C, tau_wp))
    alpha = (plus - minus) / (2 * dn)
    t_c = base_cfg.cycle_period
    target_sample_sigma = 13e-3 / math.sqrt(t_c)  # Hz per sample for 13 mHz/rtHz
    psn_sigma = combined_sigma(base_cfg) / abs(alpha)
    extra = math.sqrt(target_sample_sigma**2 - psn_sigma**2) * abs(alpha)
    cfg = base_cfg.replace(noise=NoiseHooks(white_sigma=extra))
    signal = run_gyro_stream(cfg, ENV, C, 1800.0, np.random.default_rng(99))
    nu_hat = (signal - baseline) / alpha
    m300 = round(300.0 / t_c)
    floor_series = allan_deviation(nu_hat, t_c, m_values=[1, 2, 4, m300])
    arw = float(np.median(floor_series.adev[:3] * np.sqrt(floor_series.tau_avg[:3])))
    adev_300 = float(floor_series.adev[-1])
    elapsed = time.perf_counter() - t0

    ok = (scaling_dev <= 0.05 and abs(slope + 0.5) <= 0.03
          and adev_300 <= 1.5e-3 and elapsed < 60.0)
    _report(8, ok, f"white: max |adev/(sigma/sqrt(m)) - 1| = {scaling_dev * 100:.2f}% "
                   f"<= 5%, slope {slope:.4f} (-0.5 +- 0.03); floor run: ARW "
                   f"{arw * 1e3:.2f} mHz/rtHz, adev(300 s) = {adev_300 * 1e3:.3f} mHz "
                   f"<= 1.5 mHz, {elapsed:.1f} s < 60 s")


def test_criterion_09_dynamic_range():
    nu0 = 55.7
    nus = np.array([0.5, 5.0, 10.0, 30.0, 55.7])
    nu_meas, _ = linearity(nus, nu0)
    exact = np.all(nu_meas == nu0 * np.sin(nus / nu0))
    _, eps10 = linearity(10.0, nu0)
    dr = dynamic_range(1e-4, nu0)
    ok = (exact and abs(eps10 - 5.4e-3) <= 2e-4
          and abs(dr - 1.4) / 1.4 <= 0.03)
    _report(9, ok, f"nu_meas = nu0*sin(nu/nu0) exact, eps(10 Hz) = {eps10:.4e} "
                   f"(5.4e-3 +- 2e-4), nu_DR(1e-4) = {dr:.4f} Hz "
                   f"({dr * 360.0:.0f} deg/s, 1.4 Hz +- 3%)")


def test_criterion_10_rate_table_kinematics():
    accel, target = 1.8, 180.0
    traj = RateTrajectory([(150.0, target, accel)])
    t, _, rate, _ = traj.telemetry()
    dt = 0.03
    polled_at_dt = np.max(np.abs(np.diff(t) - dt)) < 1e-12
    # completion time: the ramp ends inside the poll interval that first reads 180
    t_done = target / accel
    t_first = t[np.argmax(rate == target)]
    completed_in_band = t_first - dt < t_done <= t_first
    closed_form = target**2 / (2 * accel)
    err = abs(traj.angle_at(t_done) - closed_form)
    ok = (polled_at_dt and completed_in_band and err < 1e-9
          and traj.rate_at(t_done) == target and rate[-1] == target)
    _report(10, ok, f"0 -> 180 deg/s at 1.8 deg/s^2 completes at "
                    f"{t_done:.1f} s, angle error {err:.2e} deg < 1e-9")
