import numpy as np
import pytest

from nvgyro import (
    LITERATURE_CONSTANTS,
    FieldEnvironment,
    FringeSeries,
    NoiseHooks,
    RotatingFrame,
    SequenceConfig,
    bright_projection,
    dq_splitting,
    fit_decaying_sine,
    power_spectrum,
    pump_state,
    populations,
    run_4ramsey_point,
    run_dq_ramsey,
    run_gyro_stream,
    snap_to_cos_null,
    sweep_fringes,
    sweep_single_ramsey,
    transition_frequencies,
)

C = LITERATURE_CONSTANTS
ENV = FieldEnvironment(B=482.0)
F_DQ = dq_splitting(482.0, C)


def sync_config(dq_detuning=2000.0, **kwargs) -> SequenceConfig:
    frame = RotatingFrame.dq_detuned(ENV, C, dq_detuning)
    return SequenceConfig(frame=frame, **kwargs)


def spectrum_peak(series, f_target, halfwidth_bins=3):
    freqs, power = power_spectrum(series)
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


class TestPumpState:
    def test_perfect_pump(self):
        assert populations(pump_state(1.0)) == pytest.approx((1, 0, 0), abs=1e-15)

    def test_partial_pump(self):
        p = populations(pump_state(0.7))
        assert p[0] == pytest.approx(0.7 + 0.3 / 3)
        assert p[1] == pytest.approx(0.1)
        assert sum(p) == pytest.approx(1.0)

    def test_bright_projection(self):
        assert bright_projection(pump_state(1.0)) == pytest.approx(1.0)


class TestRunDqRamsey:
    def test_tau_zero_is_extremum(self):
        cfg = sync_config()
        s0 = run_dq_ramsey(cfg, ENV, C, 0.0, (0.0, 0.0))
        taus = np.linspace(0.0, 0.4e-3, 40)
        vals = [run_dq_ramsey(cfg, ENV, C, float(t), (0.0, 0.0)) for t in taus]
        assert s0 == pytest.approx(min(vals), abs=1e-12)

    def test_ideal_sweep_single_spectral_peak(self):
        # ideal pulses: only the DQ line appears, nothing at f1 or f2
        cfg = SequenceConfig()
        n, dt = 2048, 78.125e-9
        taus = np.arange(n) * dt + 1e-9
        vals = [run_dq_ramsey(cfg, ENV, C, float(t), (0.0, 0.0)) for t in taus]
        series = FringeSeries(taus=taus, values=np.array(vals))
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
        vals = [run_dq_ramsey(cfg, ENV, C, float(t), (0.0, 0.0)) for t in taus]
        series = FringeSeries(taus=taus, values=np.array(vals))
        f1, f2 = transition_frequencies(ENV, C)
        p1, freqs, power = spectrum_peak(series, f1)
        p2, _, _ = spectrum_peak(series, f2)
        pdq, _, _ = spectrum_peak(series, F_DQ)
        floor = spectrum_floor(freqs, power, (f1, f2, F_DQ))
        assert p1 > 100 * floor and p2 > 100 * floor and pdq > 100 * floor

    def test_deterministic_without_rng(self):
        cfg = sync_config()
        a = run_dq_ramsey(cfg, ENV, C, 1e-3, (0.0, 0.0))
        b = run_dq_ramsey(cfg, ENV, C, 1e-3, (0.0, 0.0))
        assert a == b

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            run_dq_ramsey(sync_config(), ENV, C, -1e-6, (0.0, 0.0))


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
        for tau in (0.0, 0.5e-3, 2e-3):
            assert run_4ramsey_point(cfg, ENV, C, tau) == pytest.approx(0.0, abs=1e-15)

    def test_sq_cancellation_20db(self):
        # residual SQ power in the combined signal is >= 100x (20 dB) below
        # any individual Ramsey's SQ peak, for gradient scales 0.9/1.1
        cfg = SequenceConfig(rf_gradient=((0.5, 0.9), (0.5, 1.1)))
        n, dt = 2048, 78.125e-9
        taus = np.arange(n) * dt + 1e-9
        f1, f2 = transition_frequencies(ENV, C)
        singles = np.empty((n, 4))
        for j in range(4):
            singles[:, j] = sweep_single_ramsey(cfg, ENV, C, taus, j).values
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
        singles = [sweep_single_ramsey(cfg, ENV, C, taus, j).values for j in range(4)]
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
        taus = np.linspace(1e-6, 2e-3, 7)
        series = sweep_fringes(cfg, ENV, C, taus)
        direct = [run_4ramsey_point(cfg, ENV, C, float(t)) for t in taus]
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
        with pytest.raises(ValueError):
            sweep_fringes(sync_config(), ENV, C, [1e-3, 6.9e-3])


class TestGyroStream:
    def wp_config(self, **kwargs):
        tau_wp = snap_to_cos_null(1.428e-3, 2000.0)
        return sync_config(tau_wp=tau_wp, **kwargs)

    def test_constant_signal_without_rotation(self):
        cfg = self.wp_config()
        stream = run_gyro_stream(cfg, ENV, C, 0.5)
        assert np.ptp(stream.S) == 0.0

    def test_matches_scalar_4ramsey(self):
        # per-cycle rate samples reach the kernel as the environment's nu
        cfg = self.wp_config()

        def nu_at(t):
            return 20.0 * np.sin(3 * t) / 360.0

        stream = run_gyro_stream(cfg, ENV, C, 0.25, nu_at=nu_at)
        direct = [run_4ramsey_point(cfg, ENV.replace(nu=float(nu_at(t))), C,
                                    cfg.tau_wp)
                  for t in stream.t]
        assert np.allclose(stream.S, direct, atol=1e-15)

    def test_constant_rotation_offset_matches_calibration(self):
        # S offset at 10 deg/s equals alpha * 10 deg/s within 1%
        cfg = self.wp_config()
        dn = 0.01
        slope = (run_4ramsey_point(cfg, ENV.replace(nu=dn), C, cfg.tau_wp)
                 - run_4ramsey_point(cfg, ENV.replace(nu=-dn), C, cfg.tau_wp)) / (2 * dn)
        base = run_4ramsey_point(cfg, ENV, C, cfg.tau_wp)
        stream = run_gyro_stream(cfg, ENV.replace(nu=10.0 / 360.0), C, 0.5)
        offset = float(np.mean(stream.S)) - base
        assert offset == pytest.approx(slope * 10.0 / 360.0, rel=0.01)

    def test_linear_response_over_triangle_sweep(self):
        # S vs nu over a +-180 deg/s sweep is linear: residuals << span
        from nvgyro import run_profile, triangle_profile
        cfg = self.wp_config()
        telem, traj = run_profile(triangle_profile(180.0, 1.8, cycles=1))
        stream = run_gyro_stream(cfg, ENV, C, traj.total_duration,
                                 nu_at=lambda t: traj.rate_at(t) / 360.0)
        nu = np.asarray(traj.rate_at(stream.t)) / 360.0
        coeffs = np.polyfit(nu, stream.S, 1)
        resid = stream.S - np.polyval(coeffs, nu)
        span = np.ptp(stream.S)
        assert np.max(np.abs(resid)) < 2e-4 * span

    def test_sample_rate(self):
        cfg = self.wp_config()
        stream = run_gyro_stream(cfg, ENV, C, 1.0)
        assert len(stream) == int(1.0 / cfg.cycle_period)
        assert np.allclose(np.diff(stream.t), cfg.cycle_period)

    def test_seeded_determinism(self):
        cfg = self.wp_config(noise=NoiseHooks(white_sigma=1e-6,
                                              random_walk_sigma=1e-7))
        a = run_gyro_stream(cfg, ENV, C, 2.0, np.random.default_rng(5))
        b = run_gyro_stream(cfg, ENV, C, 2.0, np.random.default_rng(5))
        assert np.array_equal(a.S, b.S)

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
        r0 = run_4ramsey_point(cfg, ENV, C, cfg.tau_wp)
        r_nu = run_4ramsey_point(cfg, ENV.replace(nu=target / 2), C, cfg.tau_wp)
        r_db = run_4ramsey_point(cfg, ENV.replace(delta_B=db), C, cfg.tau_wp)
        assert r_nu - r0 == pytest.approx(r_db - r0, rel=1e-6)

    def test_noise_hooks_change_spread(self):
        cfg = self.wp_config()
        quiet = run_gyro_stream(cfg, ENV, C, 5.0, np.random.default_rng(1))
        loud_cfg = self.wp_config(noise=NoiseHooks(white_sigma=1e-4))
        loud = run_gyro_stream(loud_cfg, ENV, C, 5.0, np.random.default_rng(1))
        assert np.std(loud.S) > 3 * np.std(quiet.S)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            run_gyro_stream(self.wp_config(), ENV, C, 0.0)
        with pytest.raises(ValueError):
            run_gyro_stream(self.wp_config(), ENV, C, 1e-3)


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
