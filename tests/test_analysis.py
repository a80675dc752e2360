import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nvgyro.analysis
from nvgyro import (
    LITERATURE_CONSTANTS,
    AllanSeries,
    FieldEnvironment,
    FitConvergenceError,
    FringeSeries,
    InsufficientSpanError,
    NonUniformGridError,
    SequenceConfig,
    allan_deviation,
    calibration_from_fringes,
    calibration_from_slope,
    calibration_from_sweep,
    dynamic_range,
    fit_decaying_sine,
    linearity,
    load_config,
    one_rad_rotation_rate,
    power_spectrum,
    rotation_from_signal,
    select_working_point,
    snap_to_cos_null,
    sweep_fringes,
)
from nvgyro.analysis import WorkingPointWarning, _decaying_sine, spectrum_peak_frequency
from nvgyro.spin import DEG_PER_REV
from oracle import fringe_fit

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def synth(taus, a=0.0066, f=293.332e3, phi=1.234, t2=1.95e-3, offset=0.001,
          sigma=0.0, rng=None):
    y = _decaying_sine(np.asarray(taus), a, f, phi, t2, offset)
    if sigma > 0:
        y = y + rng.normal(0.0, sigma, len(y))
    return FringeSeries(taus=np.asarray(taus), values=y,
                        sigma=np.full(len(y), sigma) if sigma > 0 else None)


DENSE = np.linspace(0.0, 5e-3, 4096)


class TestFitDecayingSine:
    def test_noiseless_recovery_to_1e6(self):
        fit = fit_decaying_sine(synth(DENSE))
        assert fit.A == pytest.approx(0.0066, rel=1e-6)
        assert fit.f == pytest.approx(293.332e3, rel=1e-6)
        assert fit.phi == pytest.approx(1.234, rel=1e-6)
        assert fit.T2star == pytest.approx(1.95e-3, rel=1e-6)
        assert fit.offset == pytest.approx(0.001, rel=1e-4)

    def test_noisy_recovery_within_ci(self):
        rng = np.random.default_rng(77)
        fit = fit_decaying_sine(synth(DENSE, sigma=2e-4, rng=rng))
        assert abs(fit.f - 293.332e3) < 2 * fit.sigmas[1]
        assert fit.T2star == pytest.approx(1.95e-3, rel=0.05)

    def test_constant_series_rejected(self):
        taus = np.linspace(0, 1e-3, 64)
        with pytest.raises(InsufficientSpanError):
            fit_decaying_sine(FringeSeries(taus=taus, values=np.ones(64)))

    def test_too_few_points_rejected(self):
        taus = np.linspace(0, 1e-3, 6)
        series = FringeSeries(taus=taus, values=np.sin(taus * 1e4))
        with pytest.raises(InsufficientSpanError):
            fit_decaying_sine(series)

    def test_under_one_period_rejected(self):
        taus = np.linspace(0, 1e-4, 50)
        y = _decaying_sine(taus, 1.0, 3e3, 0.0, 1e6, 0.0)  # 0.3 periods
        with pytest.raises(InsufficientSpanError):
            fit_decaying_sine(FringeSeries(taus=taus, values=y))

    def test_amplitude_normalized_positive(self):
        y = _decaying_sine(DENSE, -0.004, 2e3, 0.3, 1.9e-3, 0.0)
        fit = fit_decaying_sine(FringeSeries(taus=DENSE, values=y))
        assert fit.A > 0
        assert np.allclose(fit.model(DENSE), y, atol=1e-9)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(3)
        fit = fit_decaying_sine(synth(DENSE, sigma=1e-4, rng=rng))
        cov = fit.covariance
        assert np.allclose(cov, cov.T, atol=1e-20)
        assert np.linalg.eigvalsh(cov).min() > -1e-18

    def test_three_sigma_coverage_500_trials(self):
        # fits on data from the fit's own model: the reported covariance
        # covers the truth at 3 sigma in >= 99% of (trial, parameter) pairs
        rng = np.random.default_rng(2024)
        taus = np.linspace(1e-6, 5e-3, 300)
        truth = np.array([0.0074, 2000.0, 4.712, 1.95e-3, 0.0])
        sigma = 7.4e-6
        inside = total = 0
        for _ in range(500):
            y = _decaying_sine(taus, *truth) + rng.normal(0, sigma, len(taus))
            fit = fit_decaying_sine(
                FringeSeries(taus=taus, values=y, sigma=np.full(len(taus), sigma))
            )
            phi = (fit.phi - truth[2] + math.pi) % (2 * math.pi) - math.pi + truth[2]
            est = np.array([fit.A, fit.f, phi, fit.T2star, fit.offset])
            inside += int(np.sum(np.abs(est - truth) <= 3 * fit.sigmas))
            total += 5
        assert inside / total >= 0.99

    def test_iteration_cap_raises(self, monkeypatch):
        # a noisy fringe needs more than one Gauss-Newton step
        monkeypatch.setattr(nvgyro.analysis, "MAX_FIT_ITERATIONS", 1)
        series = synth(DENSE, sigma=2e-4, rng=np.random.default_rng(77))
        with pytest.raises(FitConvergenceError, match="did not converge in 1 iter"):
            fit_decaying_sine(series)

    def test_spectrum_fit_agreement_within_one_bin(self):
        rng = np.random.default_rng(11)
        series = synth(DENSE, sigma=1e-4, rng=rng)
        freqs, power = power_spectrum(series.taus, series.values)
        f_peak = spectrum_peak_frequency(freqs, power)
        fit = fit_decaying_sine(series)
        bin_width = freqs[1] - freqs[0]
        assert abs(f_peak - fit.f) < bin_width * 4  # zero-padded x4 -> one raw bin


def cli_fringes(name: str, seed: int | None = None,
                grid: dict | None = None) -> FringeSeries:
    """The combined series `nvgyro fringes` fits for a shipped config,
    with the grid fields in grid replaced."""
    cfg = load_config(CONFIGS / name)
    grid = replace(cfg.fringes, **(grid or {}))
    taus = np.linspace(grid.tau_min, grid.tau_max, grid.points)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    return sweep_fringes(cfg.sequence, cfg.environment, cfg.constants, taus, rng)


@pytest.mark.parametrize("name, seed, grid", [
    ("default.cfg", 0, None), ("default.cfg", 1, None),
    ("default.cfg", 2, None), ("default.cfg", 3, None),
    # the golden grids
    pytest.param("default.cfg", None, {"points": 200, "tau_max": 3e-4},
                 id="default.cfg-None-200"),
    pytest.param("sq_cancellation.cfg", None, {"points": 256},
                 id="sq_cancellation.cfg-None-256"),
])
def test_fit_matches_least_squares_oracle(name, seed, grid):
    series = cli_fringes(name, seed, grid)
    fit = fit_decaying_sine(series)
    x, sig = fringe_fit(series)
    assert abs(fit.f - x[1]) <= 1e-4 * sig[1]
    assert fit.T2star == pytest.approx(x[3], rel=1e-8)
    assert fit.A == pytest.approx(x[0], rel=1e-8)
    np.testing.assert_allclose(fit.sigmas, sig, rtol=1e-4)


class TestPowerSpectrum:
    def test_pure_sine_peak_within_one_bin(self):
        taus = np.linspace(0, 1e-2, 1000)
        y = np.sin(2 * np.pi * 2345.0 * taus)
        freqs, power = power_spectrum(taus, y, zero_pad=1)
        raw_bin = 1.0 / (taus[-1] - taus[0])
        assert abs(spectrum_peak_frequency(freqs, power) - 2345.0) <= raw_bin

    def test_dc_removed(self):
        taus = np.linspace(0, 1e-2, 512)
        y = 5.0 + 0.01 * np.sin(2 * np.pi * 1000.0 * taus)
        freqs, power = power_spectrum(taus, y)
        assert power[0] < 1e-18 * np.max(power)

    def test_non_uniform_grid_rejected(self):
        taus = np.array([0.0, 1e-4, 3e-4, 4e-4, 5e-4, 6e-4, 7e-4, 8e-4])
        with pytest.raises(NonUniformGridError):
            power_spectrum(taus, np.sin(taus * 1e4))


class TestCalibration:
    def test_fringe_amplitude_formula(self):
        # alpha = 4*pi*tau_wp*A: A = 1.32 % at tau_wp = 1.428 ms
        cal = calibration_from_fringes(1.32, 1.428e-3)
        assert cal == pytest.approx(2.36e-2, rel=0.01)
        assert cal / DEG_PER_REV == pytest.approx(6.56e-5, rel=0.01)

    def test_linear_in_amplitude(self):
        one = calibration_from_fringes(1.0, 1.428e-3)
        two = calibration_from_fringes(2.0, 1.428e-3)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_from_fit_applies_envelope_and_sign(self):
        a, f, t2 = 0.0074, 2000.0, 1.95e-3
        tau_wp = snap_to_cos_null(1.4e-3, f)
        y = _decaying_sine(DENSE, a, f, math.pi / 2, t2, 0.0)
        fit = fit_decaying_sine(FringeSeries(taus=DENSE, values=y))
        cal = calibration_from_fringes(fit, tau_wp)
        expected_mag = 4 * math.pi * tau_wp * a * math.exp(-tau_wp / t2)
        assert abs(cal) == pytest.approx(expected_mag, rel=1e-6)
        sign = math.copysign(1.0, math.cos(2 * math.pi * f * tau_wp + math.pi / 2))
        assert math.copysign(1.0, cal) == sign

    def test_misaligned_working_point_warns(self):
        y = _decaying_sine(DENSE, 0.0074, 2000.0, math.pi / 2, 1.95e-3, 0.0)
        fit = fit_decaying_sine(FringeSeries(taus=DENSE, values=y))
        bad_tau = snap_to_cos_null(1.4e-3, 2000.0) + 0.25 / (2 * 2000.0)
        with pytest.warns(WorkingPointWarning):
            calibration_from_fringes(fit, bad_tau)

    def test_unsnapped_working_point_warning_names_the_fix(self):
        # a hand-built SequenceConfig keeps the unsnapped default tau_wp;
        # the warning names the snap, and taking it silences the warning
        cfg, env = SequenceConfig(), FieldEnvironment(B=482.0)
        taus = np.linspace(0.0, 5e-3, 5000)
        fit = fit_decaying_sine(sweep_fringes(cfg, env, LITERATURE_CONSTANTS, taus))
        with pytest.warns(WorkingPointWarning, match=(
                r"default_config\(\) and load_config\(\) snap tau_wp .*"
                r"use snap_to_cos_null\(tau_wp, 293\d\d\d\.?\d*\)")) as record:
            calibration_from_fringes(fit, cfg.tau_wp)
        f = float(str(record[0].message).rsplit(", ", 1)[1].rstrip(")"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibration_from_fringes(fit, snap_to_cos_null(cfg.tau_wp, f))

    def test_slope_method_matches_fringe_method(self):
        # analytic slope of the same synthetic fringe at the working point
        a, f, t2 = 0.0074, 2000.0, 1.95e-3
        tau_wp = snap_to_cos_null(1.3e-3, f)
        y = _decaying_sine(DENSE, a, f, math.pi / 2, t2, 0.0)
        fit = fit_decaying_sine(FringeSeries(taus=DENSE, values=y))
        eps = 1e-8
        slope = (float(fit.model([tau_wp + eps])[0]) -
                 float(fit.model([tau_wp - eps])[0])) / (2 * eps)
        cal_slope = calibration_from_slope(slope, tau_wp, f)
        cal_fringe = calibration_from_fringes(fit, tau_wp)
        assert cal_slope == pytest.approx(cal_fringe, rel=0.01)

    def test_zero_slope_gives_zero(self):
        assert calibration_from_slope(0.0, 1.4e-3, 2e3) == 0.0

    def test_sweep_line_matches_polyfit_and_linregress(self):
        # a noisy rate-table sweep: slope and intercept as np.polyfit,
        # standard error as scipy's linregress
        from scipy.stats import linregress
        rng = np.random.default_rng(7)
        nu = 0.5 * np.sin(np.linspace(0.0, 20.0, 2000))
        signal = 0.4 + 6.6e-3 * nu + rng.normal(0.0, 1e-4, nu.size)
        slope, stderr, intercept = calibration_from_sweep(nu, signal)
        np.testing.assert_allclose([slope, intercept], np.polyfit(nu, signal, 1),
                                   rtol=1e-12)
        ref = linregress(nu, signal)
        assert slope == pytest.approx(ref.slope, rel=1e-12)
        assert stderr == pytest.approx(ref.stderr, rel=1e-9)
        assert intercept == pytest.approx(ref.intercept, rel=1e-12)

    def test_sweep_line_is_exact_on_a_line(self):
        nu = np.array([-1.0, 0.0, 0.5, 2.0])
        slope, stderr, intercept = calibration_from_sweep(nu, 3.0 + 0.25 * nu)
        assert (slope, stderr, intercept) == (0.25, 0.0, 3.0)

    @pytest.mark.parametrize("nu", [[1.0, 1.0, 1.0], [0.5]])
    def test_sweep_without_spread_is_rejected(self, nu):
        # no line through one rate: a ValueError, not nan and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no spread"):
                calibration_from_sweep(nu, np.linspace(0.1, 0.3, len(nu)))


class TestRotationFromSignal:
    def test_baseline_maps_to_zero(self):
        assert rotation_from_signal(0.5, 1e-4, 0.5) == 0.0

    def test_linear_map(self):
        s = np.array([0.5, 0.5 + 2e-4, 0.5 - 1e-4])
        nu = rotation_from_signal(s, 1e-4, 0.5)
        assert nu == pytest.approx([0.0, 2.0, -1.0])

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_signal(0.5, 0.0, 0.5)

    def test_in_place_matches_new_array(self):
        s = np.random.default_rng(6).normal(0.5, 1e-3, 1000)
        expected = rotation_from_signal(s, 1e-4, 0.5)
        got = rotation_from_signal(s, 1e-4, 0.5, out=s)
        assert got is s
        assert np.array_equal(got, expected)


class TestAllanDeviation:
    def test_white_noise_scaling(self):
        rng = np.random.default_rng(8)
        sigma = 0.37
        y = rng.normal(0, sigma, 200_000)
        series = allan_deviation(y, tau0=1.0, m_values=[1, 2, 4, 8, 16, 32, 64])
        expected = sigma / np.sqrt(series.tau_avg)
        assert np.all(np.abs(series.adev / expected - 1) < 0.05)

    def test_log_log_slope_minus_half(self):
        rng = np.random.default_rng(9)
        y = rng.normal(0, 1.0, 400_000)
        series = allan_deviation(y, tau0=1.0, m_values=[1, 2, 4, 8])
        slope = np.polyfit(np.log(series.tau_avg), np.log(series.adev), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.03)

    def test_constant_series_is_zero(self):
        series = allan_deviation(np.full(128, 3.3), tau0=0.007)
        assert np.all(series.adev < 1e-12)  # zero up to mean-rounding residue

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientSpanError):
            allan_deviation(np.zeros(31), tau0=1.0)

    def test_octave_spacing_and_counts(self):
        y = np.random.default_rng(1).normal(0, 1, 1024)
        series = allan_deviation(y, tau0=0.5)
        assert list(series.tau_avg) == [0.5 * m for m in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
        assert list(series.n_samples) == [1025 - 2 * m for m in (1, 2, 4, 8, 16, 32, 64, 128, 256)]

    def test_random_walk_slope_plus_half(self):
        # integrated white noise has adev ~ tau^{+1/2}: distinguishes the
        # estimator from a naive std
        rng = np.random.default_rng(10)
        y = np.cumsum(rng.normal(0, 1.0, 200_000))
        series = allan_deviation(y, tau0=1.0, m_values=[4, 8, 16, 32])
        slope = np.polyfit(np.log(series.tau_avg), np.log(series.adev), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)

    def test_input_is_left_unchanged(self):
        y = np.random.default_rng(3).normal(0.5, 1.0, 50_000)
        kept = y.copy()
        allan_deviation(y, tau0=0.007)
        assert np.array_equal(y, kept)

    def test_leaves_sum_like_np_sum(self):
        # _pairwise_sum follows numpy's pairwise reduction tree; if a numpy
        # release changes that order, this fails instead of Allan bytes
        # moving silently.  Lengths straddle the leaf size, its double and
        # multiples of 8 next to them.
        leaf = nvgyro.analysis._ALLAN_LEAF
        a = np.random.default_rng(12).normal(0.0, 1.0, 3 * leaf + 64) ** 2
        a *= 10.0 ** np.random.default_rng(13).uniform(-8, 8, a.size)

        def fill(i, j, out):
            out[:] = a[i:j]
            return out

        lengths = {n + k for n in (8, 128, 1024, leaf, 2 * leaf, 3 * leaf)
                   for k in (-9, -8, -1, 0, 1, 8, 9) if n + k > 0}
        for buf_size in (128, 136, 1000, leaf):
            buf = np.empty(buf_size)
            for n in sorted(lengths):
                assert nvgyro.analysis._pairwise_sum(fill, n, buf) == np.sum(a[:n]), \
                    (n, buf_size)

    def test_averaging_factors_must_be_integers(self):
        y = np.random.default_rng(4).normal(0.0, 1.0, 64)
        for m in (1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be an integer"):
                allan_deviation(y, 1.0, [m])
        integral = allan_deviation(y, 1.0, [2.0, np.int64(4)])
        assert list(integral.adev) == list(allan_deviation(y, 1.0, [2, 4]).adev)

    def test_series_invariants(self):
        with pytest.raises(ValueError):
            AllanSeries(np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([1, 1]))
        with pytest.raises(ValueError, match="equal lengths"):
            AllanSeries(np.array([1.0, 2.0]), np.array([1.0]), np.array([1, 1]))

    @pytest.mark.parametrize("values, tau0, m_values, message", [
        (np.zeros((8, 8)), 1.0, None, "1-D"),
        (np.zeros(64), 0.0, None, "tau0 must be > 0"),
        (np.zeros(64), 1.0, [0], "m=0 needs more than 2m"),
        (np.zeros(64), 1.0, [33], "m=33 needs more than 2m"),
    ], ids=["2-D", "zero-tau0", "zero-m", "m-past-half"])
    def test_argument_guards(self, values, tau0, m_values, message):
        with pytest.raises(ValueError, match=message):
            allan_deviation(values, tau0, m_values)


@pytest.mark.parametrize("call, message", [
    (lambda: snap_to_cos_null(0.0, 2000.0), "tau and f must be > 0"),
    (lambda: snap_to_cos_null(1e-3, 0.0), "tau and f must be > 0"),
    (lambda: select_working_point(0.0, 2000.0), "t2star, f_dq must be > 0"),
    (lambda: select_working_point(1.95e-3, -1.0), "t2star, f_dq must be > 0"),
    (lambda: select_working_point(1.95e-3, 2000.0, -1e-3), "overhead >= 0"),
    (lambda: linearity(1.0, 0.0), "nu0 must be > 0"),
    (lambda: one_rad_rotation_rate(0.0), "tau must be > 0"),
    (lambda: dynamic_range(1e-4, 0.0), "nu0 must be > 0"),
    (lambda: calibration_from_fringes(0.01, 0.0), "tau_wp must be > 0"),
    (lambda: calibration_from_slope(1.0, 0.0, 293e3), "tau_wp and f_dq must be > 0"),
    (lambda: calibration_from_slope(1.0, 1.4e-3, 0.0), "tau_wp and f_dq must be > 0"),
], ids=["snap-tau", "snap-f", "wp-t2star", "wp-f", "wp-overhead", "linearity-nu0",
        "nu0-tau", "range-nu0", "fringes-tau", "slope-tau", "slope-f"])
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestWorkingPoint:
    def test_snap_satisfies_cosine_null(self):
        for f in (293.332e3, 2000.0, 55.7e3):
            tau = snap_to_cos_null(1.428e-3, f)
            assert abs(math.cos(2 * math.pi * f * tau)) < 1e-6

    def test_snap_is_nearest(self):
        f = 2000.0
        tau = snap_to_cos_null(1.36e-3, f)
        spacing = 1.0 / (2 * f)
        assert abs(tau - 1.36e-3) <= spacing / 2 + 1e-15

    def test_overhead_optimum_against_grid_oracle(self):
        # independent dense-grid argmax of tau*exp(-tau/T2)/sqrt(tau+ovh)
        t2, ovh = 1.95e-3, 0.52e-3
        grid = np.linspace(1e-5, 8e-3, 800_001)
        merit = grid * np.exp(-grid / t2) / np.sqrt(grid + ovh)
        oracle = grid[np.argmax(merit)]
        wp = select_working_point(t2, 293.332e3, ovh)
        assert wp.tau_optimal == pytest.approx(oracle, abs=2e-8)
        assert wp.tau_optimal == pytest.approx(1.26e-3, rel=0.01)

    def test_zero_overhead_optimum_is_half_t2(self):
        # the stated merit function peaks at T2*/2 when overhead vanishes
        # (the per-shot slope alone would peak at T2*)
        wp = select_working_point(1.95e-3, 293.332e3, 0.0)
        assert wp.tau_optimal == 1.95e-3 / 2

    def test_snapped_value_near_optimum(self):
        wp = select_working_point(1.95e-3, 293.332e3, 0.52e-3)
        assert abs(wp.tau_wp - wp.tau_optimal) < 1.0 / (2 * 293.332e3)
        assert abs(math.cos(2 * math.pi * 293.332e3 * wp.tau_wp)) < 1e-6


class TestLinearity:
    def test_nu0_at_default_working_point(self):
        assert one_rad_rotation_rate(1.428e-3) == pytest.approx(55.7, abs=0.05)

    def test_sine_response(self):
        nu_meas, _ = linearity(55.7, 55.7)
        assert nu_meas == pytest.approx(55.7 * math.sin(1.0), rel=1e-12)

    def test_small_signal_epsilon_quadratic(self):
        nu0 = 55.7
        for nu in (0.5, 1.0, 2.0):
            _, eps = linearity(nu, nu0)
            assert eps == pytest.approx((nu / nu0) ** 2 / 6, rel=5e-3)

    def test_epsilon_at_10hz(self):
        _, eps = linearity(10.0, 55.7)
        assert eps == pytest.approx(5.4e-3, abs=2e-4)

    def test_oddness_exact(self):
        nus = np.array([0.3, 5.0, 40.0, 55.7, 100.0])
        plus, _ = linearity(nus, 55.7)
        minus, _ = linearity(-nus, 55.7)
        assert np.all(minus == -plus)

    def test_zero_rate(self):
        nu_meas, eps = linearity(0.0, 55.7)
        assert nu_meas == 0.0 and eps == 0.0


class TestDynamicRange:
    def test_100ppm_value(self):
        dr = dynamic_range(1e-4, 55.7)
        assert dr == pytest.approx(1.4, rel=0.03)
        assert dr * DEG_PER_REV == pytest.approx(500.0, rel=0.03)

    def test_shrinks_to_zero(self):
        assert dynamic_range(1e-8, 55.7) == pytest.approx(
            55.7 * math.sqrt(6e-8), rel=1e-12
        )
        assert dynamic_range(1e-8, 55.7) < 0.02

    def test_consistency_with_rounded_constant(self):
        # nu0*sqrt(6) = 136.4 vs the rounded 140 Hz prefactor: within 3%
        assert 55.7 * math.sqrt(6) == pytest.approx(140.0, rel=0.03)

    def test_bounds(self):
        with pytest.raises(ValueError):
            dynamic_range(0.0, 55.7)
        with pytest.raises(ValueError):
            dynamic_range(0.2, 55.7)
