"""Spin-1 nuclear levels, transition frequencies, RF pulses, free evolution.

The 14N nucleus intrinsic to an NV center is modeled as a bare spin-1 in
the m_S = 0 electron manifold, basis ordered (m_I = +1, 0, -1).  Level
model (all frequencies in Hz): both |+-1> sit a quadrupole splitting Q
above |0>, split from each other by the double-quantum (DQ) interval

    f_DQ = 2*B*gamma_n * (1 - (gamma_e/gamma_n) * A_perp**2 / (D**2 - gamma_e**2 B**2)),

so the two single-quantum (SQ) transitions are f1 = Q + f_DQ/2
(|0> <-> |+1>) and f2 = Q - f_DQ/2 (|0> <-> |-1>).  Assigning f1 to the
|0> <-> |+1> branch follows from f1 > f2 at the 482 G operating field;
this sign convention is recorded here, not asserted as a measured fact.

Sample rotation at rate nu about the NV axis (clockwise positive) shifts
the |+-1> levels by +-nu, so the DQ coherence precesses at f_DQ + 2*nu
(dq_rate) while the mid-level quadrupole shift (temperature) drops out of
it exactly.  All three reach the levels through one FieldEnvironment,
whose perturbations may be arrays (one entry per delay or per cycle).
Free precession changes only the three coherences of rho, each by one
factor (coherence_factors); populations stay as they are.

RF pulses are hard pulses: instantaneous rotations characterized only by
area and phase.  The sequence uses two, each one function returning its
unitary: sq_pi_pulse on the f1 tone and the two-tone dq_pulse.  Phase
bookkeeping between pulses uses an explicit RotatingFrame of per-tone
reference frequencies; the default references of zero model
synthesizers whose phase restarts at each pulse, which makes fringes
appear at the absolute transition frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .io import Producer

# Elementary charge in A*s, used by the photodetector shot-noise budget.
ELEMENTARY_CHARGE = 1.602176634e-19

# Degrees per revolution: a rotation of 1 Hz is 360 deg/s.
DEG_PER_REV = 360.0

def check_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first listed field of obj that is not
    finite in every entry."""
    for name in names:
        if not np.isfinite(getattr(obj, name)).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PhysicalConstants:
    """Literature constants of the NV / 14N system; PhysicalConstants()
    is the default profile.

    gamma_e, gamma_n in Hz/G, D (zero-field splitting), A_perp (transverse
    hyperfine) and Q (quadrupole splitting) in Hz; Q is back-derived from
    the ~5.089/4.796 MHz carrier pair at 482 G.
    """

    gamma_e: float = 2.8025e6
    gamma_n: float = 307.7
    D: float = 2.870e9
    A_perp: float = 2.62e6
    Q: float = 4.9425e6

    def __post_init__(self):
        for name in ("gamma_e", "gamma_n", "D", "Q"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        check_finite(self, "A_perp")
        if self.gamma_e / self.gamma_n <= 1.0:
            raise ValueError("gamma_e/gamma_n must be >> 1")

    def replace(self, **kwargs) -> "PhysicalConstants":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class FieldEnvironment:
    """Bias field and slow perturbations seen by the nucleus.

    B: bias field (G); nu: rotation rate about the NV axis (Hz, clockwise
    positive); delta_Q: quadrupole perturbation (Hz, temperature drift
    proxy); delta_B: bias-field drift (G).  B is a scalar; nu, delta_Q
    and delta_B may be arrays (a sequence becomes a float numpy array),
    which broadcast against the delays of the Ramsey kernel, or, in
    run_gyro_stream, io.Producers, made and checked one block at a time
    (one entry per cycle).  An environment holding arrays is unhashable.
    """

    B: float = 482.0
    nu: float = 0.0
    delta_Q: float = 0.0
    delta_B: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.B < math.inf:
            raise ValueError("B must be finite and >= 0")
        for name in ("nu", "delta_Q", "delta_B"):
            if np.ndim(value := getattr(self, name)):
                object.__setattr__(self, name, np.asarray(value, dtype=float))
            if not isinstance(value, Producer):  # the stream checks each block
                check_finite(self, name)

    def replace(self, **kwargs) -> "FieldEnvironment":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class RotatingFrame:
    """Per-tone phase reference frequencies (Hz) for free evolution.

    f1/f2 = 0 reproduces pulse-phase-reset hardware: coherences accumulate
    phase at their absolute transition frequencies.  Setting f1/f2 to the
    synthesizer frequencies gives phase-synchronized operation where only
    detunings accumulate.
    """

    f1: float = 0.0
    f2: float = 0.0

    @property
    def dq_reference(self) -> float:
        return self.f1 - self.f2

    @classmethod
    def dq_detuned(cls, env: FieldEnvironment, c: PhysicalConstants,
                   dq_detuning: float) -> "RotatingFrame":
        """On-resonance frame offset so the DQ fringe appears at dq_detuning."""
        f1, f2 = transition_frequencies(env, c)
        return cls(f1=f1 - dq_detuning / 2.0, f2=f2 + dq_detuning / 2.0)


#: Phase-reset convention: fringes at absolute transition frequencies.
ABSOLUTE_FRAME = RotatingFrame(0.0, 0.0)


def dq_splitting(B, c: PhysicalConstants):
    """Splitting between |+1> and |-1> at bias field B (G). Array-friendly.

    Raises ValueError near the ground-state level anticrossing, where the
    denominator D**2 - (gamma_e*B)**2 vanishes, and naming f_DQ where the
    constants overflow double precision at B (an f_DQ that is not
    finite); it neither warns nor raises OverflowError.  Both are value
    checks of the field and constants, so input_error reports them
    against the input that set them.
    """
    B = np.asarray(B, dtype=float)
    if np.any(B < 0):
        raise ValueError("B must be >= 0")
    # numpy scalars: an overflow gives inf (or nan), which the finite check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.float64(c.D) ** 2
        denom = d2 - (c.gamma_e * B) ** 2
        if np.any(np.abs(denom) < 1e-6 * d2):
            raise ValueError(
                "D**2 - (gamma_e*B)**2 is near zero (level anticrossing regime)"
            )
        out = 2.0 * B * c.gamma_n * (1.0 - (c.gamma_e / c.gamma_n)
                                     * np.float64(c.A_perp) ** 2 / denom)
    if not np.isfinite(out).all():
        i = np.argmin(np.isfinite(out))
        raise ValueError(
            f"f_DQ at B = {B.flat[i]:g} G is "
            f"{out.flat[i]:g} Hz, not finite: gamma_e = {c.gamma_e:g}, gamma_n = "
            f"{c.gamma_n:g}, D = {c.D:g} and A_perp = {c.A_perp:g} overflow the "
            f"level model")
    return float(out) if out.ndim == 0 else out


def transition_frequencies(env: FieldEnvironment, c: PhysicalConstants):
    """(f1, f2) of the |0><->|+1| and |0><->|-1| transitions in Hz.

    f1 - f2 equals dq_splitting at B + delta_B; (f1 + f2)/2 = Q + delta_Q,
    so a quadrupole perturbation moves both carriers common-mode and
    leaves the DQ interval untouched.
    """
    f_dq = dq_splitting(env.B + env.delta_B, c)
    center = c.Q + env.delta_Q
    return center + f_dq / 2.0, center - f_dq / 2.0


_TWO_PI = 2.0 * math.pi


def _pulse_terms(area_scale: float, *phases: float):
    """(cos, sin) of half the pulse angle pi*area_scale and e^{-i*phase}
    of each tone phase, taken mod 2*pi; ValueError unless area_scale > 0."""
    if not area_scale > 0:
        raise ValueError("area_scale must be > 0")
    half = 0.5 * math.pi * area_scale
    return (math.cos(half), math.sin(half),
            *(np.exp(-1j * (phase % _TWO_PI)) for phase in phases))


def sq_pi_pulse(phase_f1: float = 0.0, area_scale: float = 1.0) -> np.ndarray:
    """Unitary of the SQ pi pulse on f1 in the (+1, 0, -1) basis.

    It rotates the {+1, 0} two-level subspace by pi*area_scale about the
    axis set by phase_f1 (rad); area_scale models RF-gradient
    miscalibration of the nominal area.
    """
    ch, sh, e1 = _pulse_terms(area_scale, phase_f1)
    return np.array(
        [
            [ch, -1j * sh * e1, 0.0],
            [-1j * sh / e1, ch, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def dq_pulse(phase_f1: float = 0.0, phase_f2: float = 0.0,
             area_scale: float = 1.0) -> np.ndarray:
    """Unitary of the two-tone DQ pulse in the (+1, 0, -1) basis.

    Both SQ subspaces are driven at once with per-tone area
    (pi/sqrt(2))*area_scale and tone phases phase_f1, phase_f2 (rad); the
    bright superposition of |+-1> then sees an effective angle
    pi*area_scale, so the ideal pulse maps |0> onto an equal |+-1>
    superposition.
    """
    ch, sh, e1, e2 = _pulse_terms(area_scale, phase_f1, phase_f2)
    s2 = math.sqrt(2.0)
    return np.array(
        [
            [(1.0 + ch) / 2.0, -1j * sh * e1 / s2, (ch - 1.0) / 2.0 * e1 / e2],
            [-1j * sh / (e1 * s2), ch, -1j * sh / (e2 * s2)],
            [(ch - 1.0) / 2.0 * e2 / e1, -1j * sh * e2 / s2, (1.0 + ch) / 2.0],
        ],
        dtype=complex,
    )


def dq_rate(env: FieldEnvironment, c: PhysicalConstants, frame: RotatingFrame):
    """Rate (Hz) at which the DQ coherence turns in frame: f_DQ at
    B + delta_B plus 2*nu less the frame's DQ reference.  delta_Q does
    not enter it.  An array when the environment holds arrays."""
    return dq_splitting(env.B + env.delta_B, c) + 2.0 * env.nu - frame.dq_reference


def coherence_factors(tau, env: FieldEnvironment, c: PhysicalConstants,
                      frame: RotatingFrame, t2_dq: float, t2_sq: float) -> np.ndarray:
    """Factors by which free precession for tau scales the three
    coherences <+1|rho|0>, <-1|rho|0> and <+1|rho|-1>, shape (..., 3).

    Populations are untouched.  The two SQ coherences turn at their
    tone's detuning from the frame, shifted by +-nu, and decay with
    t2_sq; the DQ coherence turns at dq_rate and decays with t2_dq.  tau
    and the environment's array fields broadcast against each other;
    their broadcast shape leads the result.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    if t2_dq <= 0 or t2_sq <= 0:
        raise ValueError("coherence times must be > 0")
    f1, f2 = transition_frequencies(env, c)
    rates = np.stack(np.broadcast_arrays(f1 + env.nu - frame.f1, f2 - env.nu - frame.f2,
                                         dq_rate(env, c, frame)), axis=-1)
    tau = tau[..., None]
    decay = np.exp(-tau / np.array([t2_sq, t2_sq, t2_dq]))
    return decay * np.exp(-2j * np.pi * rates * tau)
