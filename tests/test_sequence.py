import math
from pathlib import Path

import numpy as np
import pytest

from nvgyro import (
    FieldEnvironment,
    FringeSeries,
    NoiseHooks,
    PhysicalConstants,
    RateTrajectory,
    RotatingFrame,
    SequenceConfig,
    combine_4ramsey,
    dq_pulse,
    dq_splitting,
    fit_decaying_sine,
    power_spectrum,
    ramsey_projections,
    ramsey_signals,
    run_gyro_stream,
    snap_to_cos_null,
    sq_pi_pulse,
    sweep_fringes,
    transition_frequencies,
)
from nvgyro import sequence
from nvgyro.io import Producer
from nvgyro.sequence import _prepared_state, combined_sigma

C = PhysicalConstants()
ENV = FieldEnvironment(B=482.0)
TRIANGLE_CSV = Path(__file__).resolve().parents[1] / "configs" / "triangle_profile.csv"
F_DQ = dq_splitting(482.0, C)


def sync_config(dq_detuning=2000.0, **kwargs) -> SequenceConfig:
    frame = RotatingFrame.dq_detuned(ENV, C, dq_detuning)
    return SequenceConfig(frame=frame, **kwargs)


def spectrum_peak(series, f_target, halfwidth_bins=3):
    freqs, power = power_spectrum(series.taus, series.values)
    i = int(np.argmin(np.abs(freqs - f_target)))
    lo = max(i - halfwidth_bins, 1)
    return float(np.max(power[lo:i + halfwidth_bins + 1])), freqs, power


def spectrum_floor(freqs, power, exclude):
    mask = np.ones(len(freqs), dtype=bool)
    mask[:5] = False
    for f in exclude:
        i = int(np.argmin(np.abs(freqs - f)))
        mask[max(i - 25, 0):i + 26] = False
    return float(np.median(power[mask]))


def pumped_populations(fidelity: float) -> np.ndarray:
    """Populations of the pumped state: _prepared_state with its pulses undone."""
    rho = _prepared_state(SequenceConfig(pump_fidelity=fidelity), 1.0)
    u = dq_pulse() @ sq_pi_pulse()
    return np.diag(u.conj().T @ rho @ u).real


class TestPumpState:
    def test_perfect_pump(self):
        assert pumped_populations(1.0) == pytest.approx((1, 0, 0), abs=1e-15)

    def test_partial_pump(self):
        p = pumped_populations(0.7)
        assert p[0] == pytest.approx(0.7 + 0.3 / 3)
        assert p[1] == pytest.approx(0.1)
        assert sum(p) == pytest.approx(1.0)

    def test_bright_projection(self):
        # At tau = 0 the (0,0) and (pi,pi) readouts return a perfectly
        # pumped ensemble to |0> (dark); (pi,0) and (0,pi) leave it in the
        # |+-1> superposition (fully bright).
        proj = ramsey_projections(SequenceConfig(pump_fidelity=1.0), ENV, C, 0.0)
        assert proj == pytest.approx((0.0, 1.0, 0.0, 1.0), abs=1e-12)


class TestRunDqRamsey:
    # a single DQ Ramsey with second-pulse phases (0, 0) is column 0 of
    # ramsey_signals under the default phase table

    def test_tau_zero_is_extremum(self):
        cfg = sync_config()
        s0 = ramsey_signals(cfg, ENV, C, 0.0)[0]
        taus = np.linspace(0.0, 0.4e-3, 40)
        vals = ramsey_signals(cfg, ENV, C, taus)[:, 0]
        assert s0 == pytest.approx(min(vals), abs=1e-12)

    def test_ideal_sweep_single_spectral_peak(self):
        # ideal pulses: only the DQ line appears, nothing at f1 or f2
        cfg = SequenceConfig()
        n, dt = 2048, 78.125e-9
        taus = np.arange(n) * dt + 1e-9
        vals = ramsey_signals(cfg, ENV, C, taus)[:, 0]
        series = FringeSeries(taus=taus, values=vals)
        f1, f2 = transition_frequencies(ENV, C)
        p_dq, freqs, power = spectrum_peak(series, F_DQ)
        p_f1, _, _ = spectrum_peak(series, f1)
        p_f2, _, _ = spectrum_peak(series, f2)
        floor = spectrum_floor(freqs, power, (F_DQ, f1, f2))
        assert p_dq > 1e4 * max(p_f1, p_f2)
        assert max(p_f1, p_f2) < 100 * floor

    def test_rf_gradient_produces_sq_peaks(self):
        # absolute frame: residual SQ signals appear at f1 and f2
        cfg = SequenceConfig(rf_gradient=((0.5, 0.9), (0.5, 1.1)))
        n, dt = 2048, 78.125e-9
        taus = np.arange(n) * dt + 1e-9
        vals = ramsey_signals(cfg, ENV, C, taus)[:, 0]
        series = FringeSeries(taus=taus, values=vals)
        f1, f2 = transition_frequencies(ENV, C)
        p1, freqs, power = spectrum_peak(series, f1)
        p2, _, _ = spectrum_peak(series, f2)
        pdq, _, _ = spectrum_peak(series, F_DQ)
        floor = spectrum_floor(freqs, power, (f1, f2, F_DQ))
        assert p1 > 100 * floor and p2 > 100 * floor and pdq > 100 * floor

    def test_deterministic_without_rng(self):
        cfg = sync_config()
        a = ramsey_signals(cfg, ENV, C, 1e-3)
        b = ramsey_signals(cfg, ENV, C, 1e-3)
        assert np.array_equal(a, b)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ramsey_signals(sync_config(), ENV, C, -1e-6)


class TestRun4Ramsey:
    def test_fitted_t2_matches_injected(self):
        cfg = sync_config(t2_dq=1.95e-3)
        taus = np.linspace(1e-6, 5e-3, 400)
        series = sweep_fringes(cfg, ENV, C, taus)
        fit = fit_decaying_sine(series)
        assert fit.T2star == pytest.approx(1.95e-3, rel=1e-6)
        assert fit.f == pytest.approx(2000.0, abs=1e-6)

    def test_identical_phase_entries_cancel(self):
        cfg = sync_config()
        cfg = cfg.replace(phase_table=((0.0, 0.0),) * 4)
        taus = np.array([0.0, 0.5e-3, 2e-3])
        assert combine_4ramsey(ramsey_signals(cfg, ENV, C, taus)) == pytest.approx(0.0, abs=1e-15)

    def test_sq_cancellation_20db(self):
        # residual SQ power in the combined signal is >= 100x (20 dB) below
        # any individual Ramsey's SQ peak, for gradient scales 0.9/1.1
        cfg = SequenceConfig(rf_gradient=((0.5, 0.9), (0.5, 1.1)))
        n, dt = 2048, 78.125e-9
        taus = np.arange(n) * dt + 1e-9
        f1, f2 = transition_frequencies(ENV, C)
        singles = ramsey_signals(cfg, ENV, C, taus)
        combined = (singles[:, 0] - singles[:, 1] + singles[:, 2] - singles[:, 3]) / 4
        comb = FringeSeries(taus=taus, values=combined)
        for f_sq in (f1, f2):
            p_comb, _, _ = spectrum_peak(comb, f_sq)
            for j in range(4):
                single = FringeSeries(taus=taus, values=singles[:, j])
                p_single, _, _ = spectrum_peak(single, f_sq)
                assert p_single > 100.0 * p_comb

    @pytest.mark.parametrize("scale_pair", [(0.8, 1.2), (0.9, 1.1), (0.85, 1.05)])
    def test_phase_cycling_cancellation_property(self, scale_pair):
        cfg = SequenceConfig(rf_gradient=((0.5, scale_pair[0]), (0.5, scale_pair[1])))
        n, dt = 1024, 78.125e-9
        taus = np.arange(n) * dt + 1e-9
        f1, _ = transition_frequencies(ENV, C)
        singles = ramsey_signals(cfg, ENV, C, taus).T
        combined = (singles[0] - singles[1] + singles[2] - singles[3]) / 4
        p_single, _, _ = spectrum_peak(FringeSeries(taus=taus, values=singles[0]), f1)
        p_comb, _, _ = spectrum_peak(FringeSeries(taus=taus, values=combined), f1)
        assert p_single >= 100.0 * p_comb

    def test_amplitude_never_increases_with_gradient(self):
        taus = np.linspace(1e-6, 5e-3, 300)
        fit_ideal = fit_decaying_sine(sweep_fringes(sync_config(), ENV, C, taus))
        for grad in (((0.5, 0.9), (0.5, 1.1)), ((1.0, 0.8),), ((0.3, 0.85), (0.7, 1.15))):
            cfg = sync_config(rf_gradient=grad)
            fit = fit_decaying_sine(sweep_fringes(cfg, ENV, C, taus))
            assert fit.A <= fit_ideal.A * (1 + 1e-9)

    def test_fringe_frequency_tracks_detuning_and_rotation(self):
        # fitted fringe frequency = (f1 - f2) - frame reference + 2 nu
        for d_inj, nu in ((1500.0, 0.0), (2500.0, 1.0), (2000.0, -0.75)):
            cfg = sync_config(d_inj)
            taus = np.linspace(1e-6, 4e-3, 400)
            fit = fit_decaying_sine(sweep_fringes(cfg, ENV.replace(nu=nu), C, taus))
            assert fit.f == pytest.approx(d_inj + 2 * nu, abs=1e-5)


class TestSweepFringes:
    def test_single_point_grid(self):
        series = sweep_fringes(sync_config(), ENV, C, [1e-3])
        assert len(series) == 1

    def test_matches_pointwise_calls(self):
        cfg = sync_config()
        taus = np.linspace(1e-6, 2e-3, 10)
        series = sweep_fringes(cfg, ENV, C, taus)
        direct = [combine_4ramsey(ramsey_signals(cfg, ENV, C, float(t))) for t in taus]
        assert np.allclose(series.values, direct, atol=0)

    def test_envelope_decay_reproduced(self):
        cfg = sync_config(t2_dq=1.95e-3)
        taus = np.linspace(1e-6, 5e-3, 500)
        fit = fit_decaying_sine(sweep_fringes(cfg, ENV, C, taus))
        kappa = 0.015 / (1 + 0.0075)
        assert fit.A == pytest.approx(kappa / 2, rel=1e-3)
        assert fit.T2star == pytest.approx(1.95e-3, rel=1e-3)

    def test_seeded_determinism_bitwise(self):
        cfg = sync_config()
        taus = np.linspace(1e-6, 2e-3, 50)
        a = sweep_fringes(cfg, ENV, C, taus, np.random.default_rng(99))
        b = sweep_fringes(cfg, ENV, C, taus, np.random.default_rng(99))
        assert np.array_equal(a.values, b.values)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_fringes(sync_config(), ENV, C, [])
        with pytest.raises(ValueError):
            sweep_fringes(sync_config(), ENV, C, [2e-3, 1e-3])

    def test_grid_must_fit_in_cycle(self):
        with pytest.raises(ValueError, match="^tau_max = 0.0069 s"):
            sweep_fringes(sync_config(), ENV, C, [1e-3, 6.9e-3])

    def test_keeps_the_records_it_combined(self):
        cfg = sync_config()
        taus = np.linspace(1e-6, 2e-3, 50)
        series = sweep_fringes(cfg, ENV, C, taus, np.random.default_rng(5))
        records = ramsey_signals(cfg, ENV, C, taus, np.random.default_rng(5))
        assert np.array_equal(series.records, records)
        assert np.array_equal(series.values, combine_4ramsey(records))
        assert sweep_fringes(cfg, ENV, C, taus).records.shape == (50, 4)

    def test_records_match_taus(self):
        taus = np.linspace(0.0, 1e-3, 8)
        assert FringeSeries(taus=taus, values=np.zeros(8)).records is None
        for shape in ((8, 3), (7, 4), (8,)):
            with pytest.raises(ValueError, match="records"):
                FringeSeries(taus=taus, values=np.zeros(8), records=np.zeros(shape))

    def test_sigma_matches_taus(self):
        taus = np.linspace(0.0, 1e-3, 8)
        with pytest.raises(ValueError, match="sigma must match taus"):
            FringeSeries(taus=taus, values=np.zeros(8), sigma=np.ones(7))


class TestGyroStream:
    def wp_config(self, **kwargs):
        tau_wp = snap_to_cos_null(1.428e-3, 2000.0, SequenceConfig().tau_wp_max)
        return sync_config(tau_wp=tau_wp, **kwargs)

    def test_constant_signal_without_rotation(self):
        cfg = self.wp_config()
        signal = run_gyro_stream(cfg, ENV, C, 0.5)
        assert np.ptp(signal) == 0.0

    def test_matches_scalar_4ramsey(self):
        # per-cycle rates in the environment reach the kernel cycle by
        # cycle: over two and a half stream blocks the stream is the
        # whole-array readout of ramsey_signals, bit for bit
        cfg = self.wp_config()
        duration = 2.5 * sequence._STREAM_BLOCK * cfg.cycle_period
        t = np.arange(cfg.n_cycles(duration)) * cfg.cycle_period
        nu = 20.0 * np.sin(3 * t) / 360.0
        signal = run_gyro_stream(cfg, ENV.replace(nu=nu), C, duration)
        direct = combine_4ramsey(ramsey_signals(cfg, ENV.replace(nu=nu), C, cfg.tau_wp))
        assert len(signal) > 2 * sequence._STREAM_BLOCK
        assert np.array_equal(signal, direct)

    def test_constant_rotation_offset_matches_calibration(self):
        # S offset at 10 deg/s equals alpha * 10 deg/s within 1%
        cfg = self.wp_config()
        dn = 0.01
        base, plus, minus = combine_4ramsey(ramsey_signals(
            cfg, ENV.replace(nu=np.array([0.0, dn, -dn])), C, cfg.tau_wp))
        slope = (plus - minus) / (2 * dn)
        signal = run_gyro_stream(cfg, ENV.replace(nu=10.0 / 360.0), C, 0.5)
        offset = float(np.mean(signal)) - base
        assert offset == pytest.approx(slope * 10.0 / 360.0, rel=0.01)

    def test_linear_response_over_triangle_sweep(self):
        # S vs nu over a +-180 deg/s sweep is linear: residuals << span
        cfg = self.wp_config()
        traj = RateTrajectory.from_csv(TRIANGLE_CSV)
        t = np.arange(cfg.n_cycles(traj.t_end)) * cfg.cycle_period
        nu = np.asarray(traj.rate_at(t)) / 360.0
        signal = run_gyro_stream(cfg, ENV.replace(nu=nu), C, traj.t_end)
        coeffs = np.polyfit(nu, signal, 1)
        resid = signal - np.polyval(coeffs, nu)
        span = np.ptp(signal)
        assert np.max(np.abs(resid)) < 2e-4 * span

    def test_sample_rate(self):
        cfg = self.wp_config()
        signal = run_gyro_stream(cfg, ENV, C, 1.0)
        assert len(signal) == cfg.n_cycles(1.0) == int(1.0 / cfg.cycle_period)

    def test_seeded_determinism(self):
        cfg = self.wp_config(noise=NoiseHooks(white_sigma=1e-6,
                                              random_walk_sigma=1e-7))
        a = run_gyro_stream(cfg, ENV, C, 2.0, np.random.default_rng(5))
        b = run_gyro_stream(cfg, ENV, C, 2.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_rotation_reads_as_half_a_frequency_shift(self):
        # a rotation nu and a field-induced DQ-splitting shift of 2*nu
        # move the working-point signal identically
        from scipy.optimize import brentq
        cfg = self.wp_config()
        target = 1.0  # Hz of DQ splitting
        db = brentq(
            lambda d: dq_splitting(482.0 + d, C) - dq_splitting(482.0, C) - target,
            0.0, 0.1,
        )
        r0, r_nu = combine_4ramsey(ramsey_signals(
            cfg, ENV.replace(nu=np.array([0.0, target / 2])), C, cfg.tau_wp))
        r_db = combine_4ramsey(ramsey_signals(cfg, ENV.replace(delta_B=db), C, cfg.tau_wp))
        assert r_nu - r0 == pytest.approx(r_db - r0, rel=1e-6)

    def test_noise_hooks_change_spread(self):
        cfg = self.wp_config()
        quiet = run_gyro_stream(cfg, ENV, C, 5.0, np.random.default_rng(1))
        loud_cfg = self.wp_config(noise=NoiseHooks(white_sigma=1e-4))
        loud = run_gyro_stream(loud_cfg, ENV, C, 5.0, np.random.default_rng(1))
        assert np.std(loud) > 3 * np.std(quiet)

    def test_noise_hooks_are_whole_run_draws(self, monkeypatch):
        # After the shot noise, n white draws then n random-walk steps,
        # as whole-run rng.normal arrays and one np.cumsum, across blocks.
        monkeypatch.setattr(sequence, "_STREAM_BLOCK", 7)
        white, walk = 3e-5, 2e-4
        cfg = self.wp_config(noise=NoiseHooks(white_sigma=white, random_walk_sigma=walk))
        rng = np.random.default_rng(4)
        expected = run_gyro_stream(self.wp_config(), ENV, C, 0.2, rng)
        n = len(expected)
        expected += rng.normal(0.0, white, n)
        expected += np.cumsum(rng.normal(0.0, walk * np.sqrt(cfg.cycle_period), n))
        got = run_gyro_stream(cfg, ENV, C, 0.2, np.random.default_rng(4))
        assert n > 3 * 7
        assert np.array_equal(got, expected)

    def test_one_draw_matches_the_four_readout_draws(self):
        # The stream's noise around its noise-free samples and the
        # combination of four independently drawn readouts must both have
        # variance combined_sigma**2 (chi-squared, 99.9%), and each other's
        # (F-test, 99.9%).
        from scipy import stats
        n = 200_000
        cfg = self.wp_config()
        duration = (n + 0.5) * cfg.cycle_period
        stream = (run_gyro_stream(cfg, ENV, C, duration, np.random.default_rng(11))
                  - run_gyro_stream(cfg, ENV, C, duration))
        taus = np.full(n, cfg.tau_wp)
        four = (combine_4ramsey(ramsey_signals(cfg, ENV, C, taus, np.random.default_rng(12)))
                - combine_4ramsey(ramsey_signals(cfg, ENV, C, taus)))
        var = combined_sigma(cfg) ** 2
        lo, hi = stats.chi2.ppf([0.0005, 0.9995], n)
        for noise in (stream, four):
            assert len(noise) == n
            assert lo <= np.sum(noise ** 2) / var <= hi
        f_lo, f_hi = stats.f.ppf([0.0005, 0.9995], n, n)
        assert f_lo <= np.mean(stream ** 2) / np.mean(four ** 2) <= f_hi

    def test_duration_validation(self):
        for duration in (0.0, 1e-3, math.inf):
            with pytest.raises(ValueError):
                run_gyro_stream(self.wp_config(), ENV, C, duration)

    def test_environment_arrays_hold_one_entry_per_cycle(self):
        # Producers are held to their length; an array to its shape, so
        # an (n, 1) column is rejected, not broadcast.
        cfg = self.wp_config()
        n = cfg.n_cycles(0.1)

        def zeros(cells):
            return Producer(cells, lambda start, stop: np.zeros(stop - start))

        for env in (ENV.replace(nu=np.zeros(n - 1)), ENV.replace(delta_Q=np.zeros(n + 1)),
                    ENV.replace(delta_B=np.zeros((n, 1))), ENV.replace(nu=zeros(n - 1)),
                    ENV.replace(delta_B=zeros(n + 1))):
            with pytest.raises(ValueError, match="one entry per cycle"):
                run_gyro_stream(cfg, env, C, 0.1)


class TestSequenceConfig:
    def test_phase_table_must_have_four_entries(self):
        with pytest.raises(ValueError):
            SequenceConfig(phase_table=((0.0, 0.0),) * 3)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SequenceConfig(rf_gradient=((0.6, 1.0), (0.6, 0.9)))

    def test_cycle_must_fit_pump_and_tau(self):
        with pytest.raises(ValueError):
            SequenceConfig(tau_wp=7e-3)

    def test_readout_window_fits_pump(self):
        from nvgyro import DetectorConfig
        with pytest.raises(ValueError):
            SequenceConfig(detector=DetectorConfig(t_R=400e-6))

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0, 0.0, 3.5e-3])
    def test_n_cycles_needs_a_finite_cycle(self, duration):
        cfg = SequenceConfig()
        with pytest.raises(ValueError, match=r"^duration must be a finite time of "
                                             r"at least one cycle \(0.007 s\)"):
            cfg.n_cycles(duration)

    def test_n_cycles_counts_whole_cycles(self):
        cfg = SequenceConfig()
        assert cfg.n_cycles(cfg.cycle_period) == 1
        assert cfg.n_cycles(1.0) == 142  # 1.0 / 0.007 = 142.86
