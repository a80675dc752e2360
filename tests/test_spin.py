import math

import numpy as np
import pytest
from scipy.linalg import expm

from nvgyro import (
    ABSOLUTE_FRAME,
    LITERATURE_CONSTANTS,
    FieldEnvironment,
    PhysicalConstants,
    RotatingFrame,
    SequenceConfig,
    SingularSplittingError,
    dq_pulse,
    dq_splitting,
    sq_pi_pulse,
    transition_frequencies,
)
from nvgyro.sequence import _prepared_state
from nvgyro.spin import coherence_factors
from oracle import PulseKind, two_tone_generator

C = LITERATURE_CONSTANTS
ENV = FieldEnvironment(B=482.0)

# Density matrices over (m_I = +1, 0, -1).
PLUS = np.diag([1.0, 0.0, 0.0]).astype(complex)
ZERO = np.diag([0.0, 1.0, 0.0]).astype(complex)
MIXED = np.eye(3, dtype=complex) / 3.0


def kernel_pulse(kind: PulseKind, phase_f1=0.0, phase_f2=0.0, area_scale=1.0):
    """The nvgyro unitary of the oracle's pulse kind."""
    if kind is PulseKind.SQ_PI_F1:
        return sq_pi_pulse(phase_f1, area_scale)
    return dq_pulse(phase_f1, phase_f2, area_scale)


def pulsed(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def assert_density_matrix(rho: np.ndarray, atol: float = 1e-12) -> None:
    """Hermitian, unit trace and positive semidefinite."""
    assert np.linalg.norm(rho - rho.conj().T) < atol, "rho is not Hermitian"
    assert abs(np.trace(rho).real - 1.0) < atol, "trace(rho) != 1"
    assert np.linalg.eigvalsh(rho).min() >= -1e-10, "rho has a negative eigenvalue"


def free_factor(tau, env, t2_dq, t2_sq=None, frame=ABSOLUTE_FRAME):
    """coherence_factors of env in frame."""
    return coherence_factors(tau, env, C, frame, t2_dq, t2_dq if t2_sq is None else t2_sq)


def evolved(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """rho after free precession: the three coherence factors z scale
    <+1|rho|0>, <-1|rho|0>, <+1|rho|-1> and their Hermitian partners."""
    f = np.ones((3, 3), dtype=complex)
    f[0, 1], f[2, 1], f[0, 2] = z
    f[1, 0], f[1, 2], f[2, 0] = np.conj(z)
    return rho * f


class TestDqSplitting:
    def test_operating_field_value(self):
        # 293.332 kHz measured; literature constants land within 0.5%
        f = dq_splitting(482.0, C)
        assert abs(f - 293.332e3) / 293.332e3 < 0.005

    def test_zero_field(self):
        assert dq_splitting(0.0, C) == 0.0

    def test_no_hyperfine_correction(self):
        c = C.replace(A_perp=1e-30)
        assert dq_splitting(482.0, c) == pytest.approx(2 * 482.0 * C.gamma_n, rel=1e-12)

    def test_monotonic_up_to_450_gauss(self):
        b = np.linspace(0.0, 450.0, 2000)
        f = dq_splitting(b, C)
        assert np.all(np.diff(f) > 0)

    def test_singular_denominator(self):
        b_gslac = C.D / C.gamma_e
        with pytest.raises(SingularSplittingError):
            dq_splitting(b_gslac, C)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            dq_splitting(-1.0, C)

    @pytest.mark.parametrize("constants, value", [
        ({"A_perp": 1e200}, "-inf"), ({"gamma_e": 1e300}, "nan")])
    def test_overflow_is_a_value_error_naming_f_dq(self, constants, value):
        # under pytest's filterwarnings a numpy RuntimeWarning would fail this
        with pytest.raises(ValueError, match=rf"^f_DQ at B = 400 G is {value} Hz, not finite"):
            dq_splitting(np.array([400.0, 482.0]), C.replace(**constants))


class TestTransitionFrequencies:
    def test_carrier_values(self):
        f1, f2 = transition_frequencies(ENV, C)
        assert f1 == pytest.approx(5.089e6, rel=2e-4)
        assert f2 == pytest.approx(4.796e6, rel=2e-4)
        assert f1 - f2 == pytest.approx(dq_splitting(482.0, C), abs=1e-9)
        assert (f1 + f2) / 2 == pytest.approx(C.Q, abs=1e-9)

    def test_quadrupole_common_mode(self):
        f1, f2 = transition_frequencies(ENV, C)
        g1, g2 = transition_frequencies(ENV.replace(delta_Q=1e3), C)
        assert g1 - f1 == pytest.approx(1e3, abs=1e-9)
        assert g2 - f2 == pytest.approx(1e3, abs=1e-9)
        assert g1 - g2 == pytest.approx(f1 - f2, abs=1e-6)

    def test_quadrupole_immunity_any_shift(self):
        f1, f2 = transition_frequencies(ENV, C)
        for dq in (-10e3, -37.0, 0.1, 10e3):
            g1, g2 = transition_frequencies(ENV.replace(delta_Q=dq), C)
            assert abs((g1 - g2) - (f1 - f2)) < 1e-6

    def test_field_drift_moves_splitting(self):
        # finite difference of dq_splitting is the oracle
        f1, f2 = transition_frequencies(ENV, C)
        g1, g2 = transition_frequencies(ENV.replace(delta_B=1.0), C)
        expected = dq_splitting(483.0, C) - dq_splitting(482.0, C)
        assert (g1 - g2) - (f1 - f2) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(2 * C.gamma_n, rel=0.02)


class TestPulseUnitary:
    @pytest.mark.parametrize("kind", [PulseKind.SQ_PI_F1, PulseKind.DQ_TWO_TONE])
    @pytest.mark.parametrize("scale", [0.8, 1.0, 1.1])
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (1.1, 2.7), (math.pi, math.pi / 3)])
    def test_matches_matrix_exponential(self, kind, scale, phases):
        u = kernel_pulse(kind, *phases, area_scale=scale)
        oracle = expm(-1j * two_tone_generator(kind, *phases, area_scale=scale))
        assert np.allclose(u, oracle, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 0.9, 1.0, 1.2])
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.3, 5.1)])
    def test_unitarity(self, scale, phases):
        for kind in PulseKind:
            u = kernel_pulse(kind, *phases, area_scale=scale)
            assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-12

    def test_sq_pi_swaps_populations(self):
        out = pulsed(PLUS, sq_pi_pulse())
        assert np.diag(out).real == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_dq_pulse_creates_double_quantum_coherence(self):
        out = pulsed(ZERO, dq_pulse())
        assert np.diag(out).real == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)
        assert abs(out[0, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_pulse_preserves_state_validity(self):
        for kind in PulseKind:
            assert_density_matrix(pulsed(MIXED, kernel_pulse(kind, 0.4, 1.9, 0.93)))

    def test_invalid_area_scale(self):
        for scale in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="area_scale must be > 0"):
                sq_pi_pulse(area_scale=scale)
            with pytest.raises(ValueError, match="area_scale must be > 0"):
                dq_pulse(area_scale=scale)

    def test_phases_wrap(self):
        # each phase is taken mod 2*pi before it enters the matrix
        two_pi = 2 * math.pi
        for ph1, ph2 in [(-math.pi, 7.0), (13.0, -0.25), (two_pi, -two_pi)]:
            assert np.array_equal(sq_pi_pulse(ph1), sq_pi_pulse(ph1 % two_pi))
            assert np.array_equal(dq_pulse(ph1, ph2),
                                  dq_pulse(ph1 % two_pi, ph2 % two_pi))


def dq_state() -> np.ndarray:
    return pulsed(ZERO, dq_pulse())


class TestEvolveFree:
    def on_resonance(self):
        return RotatingFrame.dq_detuned(ENV, C, 0.0)

    def test_tau_zero_identity(self):
        s = dq_state()
        out = evolved(s, free_factor(0.0, ENV, 1.95e-3, frame=self.on_resonance()))
        assert np.allclose(out, s, atol=1e-15)

    def test_pure_decay_on_resonance(self):
        s = dq_state()
        tau = 0.7e-3
        out = evolved(s, free_factor(tau, ENV, 1.95e-3, frame=self.on_resonance()))
        expected = 0.5 * math.exp(-tau / 1.95e-3)
        assert abs(out[0, 2]) == pytest.approx(expected, abs=1e-10)
        # no phase on resonance at nu = 0
        assert out[0, 2].imag == pytest.approx(0.0, abs=1e-10)

    def test_rotation_phase_factor_of_two(self):
        # nu = 1 Hz for 0.25 s -> DQ phase 2*pi*2*nu*tau = pi
        s = dq_state()
        out = evolved(s, free_factor(0.25, ENV.replace(nu=1.0), 1e6,
                                     frame=self.on_resonance()))
        phase = np.angle(out[0, 2] / s[0, 2])
        assert abs(phase) == pytest.approx(math.pi, abs=1e-9)

    def test_dephasing_law(self):
        s = dq_state()
        for tau in (0.1e-3, 1e-3, 3e-3):
            out = evolved(s, free_factor(tau, ENV, 1.95e-3, frame=self.on_resonance()))
            ratio = abs(out[0, 2]) / abs(s[0, 2])
            assert abs(ratio - math.exp(-tau / 1.95e-3)) < 1e-10

    def test_independent_sq_decay(self):
        s = pulsed(PLUS, sq_pi_pulse(area_scale=0.5))
        assert abs(s[0, 1]) > 0.1
        out = evolved(s, free_factor(1e-3, ENV, 1.95e-3, t2_sq=0.5e-3,
                                     frame=self.on_resonance()))
        ratio = abs(out[0, 1]) / abs(s[0, 1])
        assert ratio == pytest.approx(math.exp(-1e-3 / 0.5e-3), abs=1e-10)

    def test_dq_decay_ignores_t2_sq(self):
        s = dq_state()
        out = evolved(s, free_factor(1e-3, ENV, 1.95e-3, t2_sq=0.5e-3,
                                     frame=self.on_resonance()))
        ratio = abs(out[0, 2]) / abs(s[0, 2])
        assert ratio == pytest.approx(math.exp(-1e-3 / 1.95e-3), abs=1e-10)

    def test_absolute_frame_dq_rate(self):
        # In the phase-reset frame the DQ coherence turns at f_DQ + 2*nu.
        s = dq_state()
        tau = 1.25e-7
        nu = 2.0
        out = evolved(s, free_factor(tau, ENV.replace(nu=nu), 1e6, frame=ABSOLUTE_FRAME))
        expected = -2 * math.pi * (dq_splitting(482.0, C) + 2 * nu) * tau
        phase = np.angle(out[0, 2] / s[0, 2])
        assert (phase - expected) % (2 * math.pi) == pytest.approx(0.0, abs=1e-7) or \
               (expected - phase) % (2 * math.pi) == pytest.approx(0.0, abs=1e-7)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            free_factor(-1e-3, ENV, 1.95e-3)
        with pytest.raises(ValueError):
            free_factor(1e-3, ENV, 0.0)


class TestStateAndConstants:
    def test_populations_pure_and_mixed(self):
        # the pumped states the kernel prepares: pure |+1> and fully mixed,
        # after the SQ pi and DQ pulses of an ideal sequence
        pure = _prepared_state(SequenceConfig(pump_fidelity=1.0), 1.0)
        assert np.diag(pure).real == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)
        mixed = _prepared_state(SequenceConfig(pump_fidelity=0.0), 1.0)
        assert np.diag(mixed).real == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_state_validation_rejects_bad_matrices(self):
        # the validity check used above has teeth: trace and Hermiticity
        with pytest.raises(AssertionError, match="trace"):
            assert_density_matrix(np.diag([0.7, 0.2, 0.2]).astype(complex))
        nonherm = np.array([[1, 1e-6, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(AssertionError, match="Hermitian"):
            assert_density_matrix(nonherm)

    def test_constants_invariants(self):
        with pytest.raises(ValueError):
            PhysicalConstants(D=-1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(gamma_e=1.0, gamma_n=2.0)
        # A_perp is sign-free: only its square enters
        c = PhysicalConstants(A_perp=-2.62e6)
        assert dq_splitting(482.0, c) == dq_splitting(482.0, C)

    def test_environment_invariants(self):
        with pytest.raises(ValueError):
            FieldEnvironment(B=-5.0)
