import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nvgyro import (
    DetectorConfig,
    NoiseHooks,
    photoelectron_count,
    psn_fractional_uncertainty,
    readout_signal,
    signal_sigma,
)
from nvgyro.spin import DEG_PER_REV, ELEMENTARY_CHARGE
from oracle import psn_rotation_sensitivity

D = DetectorConfig()
#: The paper's measurement time, the closed form's t_m where none is given.
T_M = 1.92e-3
#: DQ coherence time where none is given.
T2 = 1.95e-3


def volts(projection, rng=None):
    """Readout in volts: the normalized signal S times V_pump."""
    return readout_signal(D, projection, rng) * D.v_pump


class TestReadoutVoltage:
    def test_bright_endpoint(self):
        assert volts(1.0) == pytest.approx(15.1125, abs=1e-12)

    def test_dark_endpoint(self):
        assert volts(0.0) == pytest.approx(14.8875, abs=1e-12)

    def test_linear_interpolation(self):
        lo, hi = volts(0.0), volts(1.0)
        assert volts(0.25) == pytest.approx(lo + 0.25 * (hi - lo))

    def test_balanced_noise_is_sqrt2_larger(self):
        unbalanced = D.replace(balanced=False)
        ratio = (psn_fractional_uncertainty(D) /
                 psn_fractional_uncertainty(unbalanced))
        assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_monte_carlo_noise_std(self):
        # 1e5 noisy draws match the analytic photon-shot-noise std within 2%
        rng = np.random.default_rng(321)
        draws = volts(np.full(100_000, 0.5), rng)
        predicted = D.V0 * psn_fractional_uncertainty(D)
        assert np.std(draws) == pytest.approx(predicted, rel=0.02)
        assert np.std(draws / D.v_pump) == pytest.approx(signal_sigma(D), rel=0.02)

    def test_array_projection(self):
        out = readout_signal(D, np.array([0.0, 1.0]))
        assert out.shape == (2,)

    def test_noisy_readout_into_its_own_projections(self):
        # The time-varying stream passes its projections as out: the draws
        # land in that buffer before the volts are added, bit for bit.
        projection = np.linspace(0.0, 1.0, 9)
        volts_ = D.v_low + projection * D.V0 * D.contrast
        draws = np.random.default_rng(17).standard_normal(9)
        expected = (draws * (D.V0 * psn_fractional_uncertainty(D)) + volts_) / D.v_pump
        result = readout_signal(D, projection, np.random.default_rng(17), out=projection)
        assert result is projection
        np.testing.assert_array_equal(result, expected)


class TestNormalizeContrast:
    """S = V / V_pump with a noiseless pump reference."""

    def test_identity(self):
        # a pumped ensemble (projection 1) reads V_pump, i.e. S = 1
        assert readout_signal(D, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_arithmetic(self):
        # the dark level over the pump level: V_L / V_H
        assert readout_signal(D, 0.0) == pytest.approx(14.8875 / 15.1125)

    def test_fractional_uncertainty_preserved(self):
        # delta_S / S equals delta_V / V when dividing by a constant V_pump
        dp = 1e-3
        s1, s0 = readout_signal(D, 0.5 + dp), readout_signal(D, 0.5)
        dv = volts(0.5 + dp) - volts(0.5)
        assert (s1 - s0) / s0 == pytest.approx(dv / volts(0.5), rel=1e-9)

    def test_nonpositive_vpump(self):
        # V_pump = V0*(1 + C/2) > 0 because V0 and C are checked positive
        with pytest.raises(ValueError):
            DetectorConfig(V0=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(V0=-15.0)


class TestPhotoelectronCount:
    def test_default_count(self):
        # (15 / (1.75e5 * q_e)) * 17e-6 ~ 9.1e9
        n = photoelectron_count(D)
        assert n == pytest.approx(9.095e9, rel=1e-3)

    def test_linearity_in_readout_time(self):
        doubled = D.replace(t_R=2 * D.t_R)
        assert photoelectron_count(doubled) == pytest.approx(
            2 * photoelectron_count(D), rel=1e-12
        )


class TestPsnFractionalUncertainty:
    def test_two_photoelectrons_balanced_gives_unity(self):
        # craft a detector with N_p = 2
        d = DetectorConfig(V0=1.0, G=1e-6 / (2 * ELEMENTARY_CHARGE), t_R=1e-6)
        assert photoelectron_count(d) == pytest.approx(2.0, rel=1e-12)
        assert psn_fractional_uncertainty(d) == pytest.approx(1.0, rel=1e-12)

    def test_default_value(self):
        assert psn_fractional_uncertainty(D) == pytest.approx(1.48e-5, rel=0.01)

    def test_unbalanced_halves_variance(self):
        var_b = psn_fractional_uncertainty(D) ** 2
        var_u = psn_fractional_uncertainty(D.replace(balanced=False)) ** 2
        assert var_u == pytest.approx(var_b / 2, rel=1e-12)


class TestRotationSensitivity:
    """The paper's closed form, tests/oracle.py's reference for `budget`."""

    def test_budget_value(self):
        # exact budget inputs: tau = 1.4 ms, T2* = 2.0 ms, defaults otherwise
        sens = psn_rotation_sensitivity(D, 1.4e-3, 2.0e-3, T_M)
        assert sens == pytest.approx(9.8e-3, rel=0.02)

    def test_unit_conversion(self):
        # the paper's 13 mHz/rtHz is 4.68 deg/rts
        assert 13e-3 * DEG_PER_REV == pytest.approx(4.68, abs=1e-12)

    def test_divergence_at_small_tau(self):
        small = psn_rotation_sensitivity(D, 1e-9, T2, T_M)
        assert small > 1e3 * psn_rotation_sensitivity(D, 1.4e-3, T2, T_M)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            psn_rotation_sensitivity(D, 0.0, T2, T_M)

    def test_optimum_tau_with_overhead(self):
        # duty-cycled sensitivity is minimal at the root of
        # 1/tau - 1/T2* - 1/(2*(tau+overhead)) = 0 and convex around it
        overhead = 0.52e-3
        t2 = 1.95e-3

        def duty_sens(tau):
            return psn_rotation_sensitivity(D, tau, t2, tau + overhead)

        root = brentq(lambda t: 1 / t - 1 / t2 - 1 / (2 * (t + overhead)), 1e-4, 5e-3)
        taus = np.linspace(0.3e-3, 3.5e-3, 2001)
        vals = np.array([duty_sens(t) for t in taus])
        tau_min = taus[np.argmin(vals)]
        assert tau_min == pytest.approx(root, abs=2 * (taus[1] - taus[0]))
        i = np.argmin(vals)
        second = np.diff(vals, 2)[i - 50:i + 50]
        assert np.all(second > 0)


class TestNoiseHooks:
    def test_defaults_off(self):
        hooks = NoiseHooks()
        assert hooks.white_sigma == 0.0 and hooks.random_walk_sigma == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseHooks(white_sigma=-1.0)


class TestDetectorConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DetectorConfig(contrast=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(contrast=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(V0=-1.0)

    @pytest.mark.parametrize("V0, G", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_photoelectron_count_must_be_finite_and_positive(self, V0, G):
        # each field is in range, but the count underflows to 0 or
        # overflows to inf, leaving no finite shot noise
        with pytest.raises(ValueError, match="photoelectrons per readout"):
            DetectorConfig(V0=V0, G=G)

    def test_levels(self):
        assert D.v_pump == pytest.approx(15.1125)
        assert D.v_low == pytest.approx(14.8875)
