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
while the mid-level quadrupole shift (temperature) cancels out of it.
All three reach the levels through one FieldEnvironment, whose
perturbations may be arrays (one entry per delay or per cycle).

RF pulses are hard pulses: instantaneous rotations characterized only by
area and phase.  Phase bookkeeping between pulses uses an explicit
RotatingFrame of per-tone reference frequencies; the default references
of zero model synthesizers whose phase restarts at each pulse, which
makes fringes appear at the absolute transition frequencies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularSplittingError

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
    """Literature constants of the NV / 14N system.

    gamma_e, gamma_n in Hz/G, D (zero-field splitting), A_perp (transverse
    hyperfine) and Q (quadrupole splitting) in Hz.
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


#: Default constants profile (overridable; Q back-derived from the
#: ~5.089/4.796 MHz carrier pair at 482 G).
LITERATURE_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class FieldEnvironment:
    """Bias field and slow perturbations seen by the nucleus.

    B: bias field (G); nu: rotation rate about the NV axis (Hz, clockwise
    positive); delta_Q: quadrupole perturbation (Hz, temperature drift
    proxy); delta_B: bias-field drift (G).  B is a scalar; nu, delta_Q
    and delta_B may be arrays (a sequence becomes a float numpy array),
    which broadcast against the delays of the Ramsey kernel (one entry
    per cycle in run_gyro_stream).  An environment holding arrays is
    unhashable.
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
        check_finite(self, "nu", "delta_Q", "delta_B")

    def replace(self, **kwargs) -> "FieldEnvironment":
        return replace(self, **kwargs)


class PulseKind(enum.Enum):
    SQ_PI_F1 = "sq_pi_f1"
    DQ_TWO_TONE = "dq_two_tone"


_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PulseSpec:
    """Hard RF pulse: kind, tone phases (rad), and a common area scale.

    area_scale multiplies the nominal pulse area (pi for the SQ pulse,
    pi/sqrt(2) per tone for the two-tone DQ pulse) and models RF-gradient
    miscalibration.
    """

    kind: PulseKind
    phase_f1: float = 0.0
    phase_f2: float = 0.0
    area_scale: float = 1.0

    def __post_init__(self):
        if self.area_scale <= 0:
            raise ValueError("area_scale must be > 0")
        object.__setattr__(self, "phase_f1", self.phase_f1 % _TWO_PI)
        object.__setattr__(self, "phase_f2", self.phase_f2 % _TWO_PI)


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


def dq_splitting(B, c: PhysicalConstants = LITERATURE_CONSTANTS):
    """Splitting between |+1> and |-1> at bias field B (G). Array-friendly.

    Raises SingularSplittingError near the ground-state level anticrossing
    where the denominator D**2 - (gamma_e*B)**2 vanishes.
    """
    B = np.asarray(B, dtype=float)
    if np.any(B < 0):
        raise ValueError("B must be >= 0")
    denom = c.D**2 - (c.gamma_e * B) ** 2
    if np.any(np.abs(denom) < 1e-6 * c.D**2):
        raise SingularSplittingError(
            "D**2 - (gamma_e*B)**2 is near zero (level anticrossing regime)"
        )
    out = 2.0 * B * c.gamma_n * (1.0 - (c.gamma_e / c.gamma_n) * c.A_perp**2 / denom)
    return float(out) if out.ndim == 0 else out


def transition_frequencies(env: FieldEnvironment,
                           c: PhysicalConstants = LITERATURE_CONSTANTS):
    """(f1, f2) of the |0><->|+1| and |0><->|-1| transitions in Hz.

    f1 - f2 equals dq_splitting at B + delta_B; (f1 + f2)/2 = Q + delta_Q,
    so a quadrupole perturbation moves both carriers common-mode and
    leaves the DQ interval untouched.
    """
    f_dq = dq_splitting(env.B + env.delta_B, c)
    center = c.Q + env.delta_Q
    return center + f_dq / 2.0, center - f_dq / 2.0


def pulse_unitary(p: PulseSpec) -> np.ndarray:
    """Unitary of a hard RF pulse in the (+1, 0, -1) basis.

    Hard pulses depend only on their areas and phases.  SQ_PI_F1 rotates the {+1, 0} two-level subspace by pi*area_scale about
    the axis set by phase_f1.  DQ_TWO_TONE drives both SQ subspaces
    simultaneously with per-tone area (pi/sqrt(2))*area_scale; the bright
    superposition of |+-1> then sees an effective angle pi*area_scale, so
    the ideal pulse maps |0> onto an equal |+-1> superposition.
    """
    if p.kind is PulseKind.SQ_PI_F1:
        half = 0.5 * math.pi * p.area_scale
        ch, sh = math.cos(half), math.sin(half)
        e1 = np.exp(-1j * p.phase_f1)
        return np.array(
            [
                [ch, -1j * sh * e1, 0.0],
                [-1j * sh / e1, ch, 0.0],
                [0.0, 0.0, 1.0],
            ],
            dtype=complex,
        )
    if p.kind is PulseKind.DQ_TWO_TONE:
        # Per-tone area (pi/sqrt(2))*scale -> bright-state angle pi*scale.
        half = 0.5 * math.pi * p.area_scale
        ch, sh = math.cos(half), math.sin(half)
        e1 = np.exp(-1j * p.phase_f1)
        e2 = np.exp(-1j * p.phase_f2)
        s2 = math.sqrt(2.0)
        return np.array(
            [
                [(1.0 + ch) / 2.0, -1j * sh * e1 / s2, (ch - 1.0) / 2.0 * e1 / e2],
                [-1j * sh / (e1 * s2), ch, -1j * sh / (e2 * s2)],
                [(ch - 1.0) / 2.0 * e2 / e1, -1j * sh * e2 / s2, (1.0 + ch) / 2.0],
            ],
            dtype=complex,
        )
    raise ValueError(f"unknown pulse kind {p.kind!r}")


def frame_detunings(env: FieldEnvironment, c: PhysicalConstants,
                    frame: RotatingFrame):
    """Per-tone phase accumulation rates (Hz) including the rotation shift;
    arrays when the environment holds arrays."""
    f1, f2 = transition_frequencies(env, c)
    return f1 + env.nu - frame.f1, f2 - env.nu - frame.f2


def evolution_factor(tau, delta1, delta2, t2_dq: float,
                     t2_sq: float) -> np.ndarray:
    """Elementwise factor that free precession for tau applies to rho.

    Populations are untouched.  The DQ coherence <+1|rho|-1> turns at
    delta1 - delta2 and decays with t2_dq; the SQ coherences turn at
    their own detunings and decay with t2_sq.  tau and the per-tone detunings broadcast against each other; their
    broadcast shape leads the returned (..., 3, 3) array.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    if t2_dq <= 0 or t2_sq <= 0:
        raise ValueError("coherence times must be > 0")
    e1, e2 = np.broadcast_arrays(np.exp(-2j * np.pi * np.asarray(delta1) * tau),
                                 np.exp(-2j * np.pi * np.asarray(delta2) * tau))
    phases = np.stack([e1, np.ones_like(e1), e2], axis=-1)
    damp_sq = np.exp(-tau / t2_sq)
    damp_dq = np.exp(-tau / t2_dq)
    one = np.ones_like(damp_sq)
    decay = np.stack(
        [one, damp_sq, damp_dq,
         damp_sq, one, damp_sq,
         damp_dq, damp_sq, one], axis=-1
    ).reshape(tau.shape + (3, 3))
    return phases[..., :, None] * phases[..., None, :].conj() * decay
