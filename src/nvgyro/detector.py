"""Fluorescence readout model and the photon-shot-noise budget.

Populations map to voltage between the low and high readout levels
V_L = V0*(1 - C/2) and V_H = V0*(1 + C/2).  The readout distinguishes the
|m_I = 0| population from the |+-1> manifold: projection = 1 - p_zero, so
a freshly pumped |+1> ensemble reads bright (V_pump = V_H) and an ideal
Ramsey fringe spans the full V_L..V_H range at tau = 0.

Shot noise is Gaussian (the detected photoelectron number is ~1e10 per
readout); balanced detection doubles the photon shot-noise variance
(sqrt(2) in amplitude) without adding signal.  Slow technical noise can
be injected through NoiseHooks (white + random walk on the normalized
signal) -- by default the floor is photoelectron shot noise only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spin import DEG_PER_REV, ELEMENTARY_CHARGE

#: Measured DQ coherence time T2* (s), the default of SequenceConfig.t2_dq.
DEFAULT_T2_DQ = 1.95e-3


@dataclass(frozen=True)
class DetectorConfig:
    """Photodetector and timing parameters of a single optical readout.

    V0: mean fluorescence voltage (V); G: transimpedance gain (V/A);
    contrast: full fringe contrast C; t_R: signal-bearing readout window
    (s) inside the pump pulse; balanced: balanced photodiode flag;
    t_meas: duration of one measurement (s).
    """

    V0: float = 15.0
    G: float = 1.75e5
    contrast: float = 0.015
    t_R: float = 17e-6
    balanced: bool = True
    t_meas: float = 1.92e-3

    def __post_init__(self):
        for name in ("V0", "G", "t_R", "t_meas"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 < self.contrast < 1.0:
            raise ValueError("contrast must be in (0, 1)")

    @property
    def v_high(self) -> float:
        return self.V0 * (1.0 + self.contrast / 2.0)

    @property
    def v_low(self) -> float:
        return self.V0 * (1.0 - self.contrast / 2.0)

    @property
    def v_pump(self) -> float:
        """Reference level after optical pumping (bright state)."""
        return self.v_high

    def replace(self, **kwargs) -> "DetectorConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class NoiseHooks:
    """Optional technical-noise injection on the normalized signal S.

    white_sigma: std of extra white noise per combined sample;
    random_walk_sigma: random-walk increment std per sqrt(second).
    """

    white_sigma: float = 0.0
    random_walk_sigma: float = 0.0

    def __post_init__(self):
        for name in ("white_sigma", "random_walk_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


def photoelectron_count(d: DetectorConfig) -> float:
    """Detected photoelectrons in one readout window: (V0/(G*q_e))*t_R."""
    return (d.V0 / (d.G * ELEMENTARY_CHARGE)) * d.t_R


def psn_fractional_uncertainty(d: DetectorConfig) -> float:
    """Photon-shot-noise fractional voltage uncertainty delta_V/V0.

    sqrt(2)/sqrt(N_p) for balanced detection, 1/sqrt(N_p) otherwise.
    """
    factor = math.sqrt(2.0) if d.balanced else 1.0
    return factor / math.sqrt(photoelectron_count(d))


def signal_sigma(d: DetectorConfig) -> float:
    """Photon-shot-noise std of one readout of the normalized signal S."""
    return d.V0 * psn_fractional_uncertainty(d) / d.v_pump


def readout_signal(d: DetectorConfig, projection,
                   rng: np.random.Generator | None = None):
    """Normalized signal S = V/V_pump of bright projections in [0, 1].

    The voltage interpolates linearly V_L..V_H; with an rng, one Gaussian
    photon-shot-noise draw is added per entry of projection, in C order.
    """
    volts = d.v_low + projection * d.V0 * d.contrast
    if rng is not None:
        volts = volts + rng.normal(0.0, d.V0 * psn_fractional_uncertainty(d),
                                   size=np.shape(projection))
    return volts / d.v_pump


@dataclass(frozen=True)
class RotationSensitivity:
    """Photon-shot-noise-limited rotation sensitivity in both unit systems."""

    hz_per_rt_hz: float

    @property
    def dps_per_rt_s(self) -> float:
        """Degrees per root second: 1 Hz of rotation is 360 deg/s."""
        return self.hz_per_rt_hz * DEG_PER_REV


def psn_rotation_sensitivity(d: DetectorConfig, tau: float,
                             t2: float = DEFAULT_T2_DQ) -> RotationSensitivity:
    """Shot-noise-limited rotation sensitivity of the working-point protocol.

    delta_nu * sqrt(t) =
        (1/2pi) * 1/(tau*exp(-tau/T2*)) * (1/C)
        * sqrt(n_b * G * q_e / (V0 * t_R)) * sqrt(t_meas),

    with T2* = t2, the DQ coherence time (SequenceConfig.t2_dq), q_e the
    SI elementary charge, and n_b = 2 for balanced detection (1
    otherwise).  The leading 1/2 converts the frequency uncertainty on the
    DQ splitting into a rotation uncertainty (each |+-1> level shifts by
    +-nu).  Degrees-per-root-second is the same number times 360.
    """
    if tau <= 0 or t2 <= 0:
        raise ValueError("tau and t2 must be > 0")
    noise_factor = 2.0 if d.balanced else 1.0
    hz = (
        (1.0 / (2.0 * math.pi))
        * (1.0 / (tau * math.exp(-tau / t2)))
        * (1.0 / d.contrast)
        * math.sqrt(noise_factor * d.G * ELEMENTARY_CHARGE / (d.V0 * d.t_R))
        * math.sqrt(d.t_meas)
    )
    return RotationSensitivity(hz_per_rt_hz=hz)

