"""Fluorescence readout model and photon shot noise.

Populations map to voltage between the low and high readout levels
V_L = V0*(1 - C/2) and V_H = V0*(1 + C/2).  The readout distinguishes the
|m_I = 0| population from the |+-1> manifold: projection = 1 - p_zero, so
a freshly pumped |+1> ensemble reads bright (V_H, DetectorConfig.v_pump)
and an ideal Ramsey fringe spans the full V_L..V_H range at tau = 0.

Shot noise is Gaussian (the detected photoelectron number is ~1e10 per
readout); balanced detection doubles the photon shot-noise variance
(sqrt(2) in amplitude) without adding signal.  Slow technical noise can
be injected through NoiseHooks (white + random walk on the normalized
signal) -- by default the floor is photoelectron shot noise only.  A
fringe sweep draws the shot noise of every readout; the gyro stream,
which keeps only the combined sample R = (R1 - R2 + R3 - R4)/4, draws
R's shot noise, signal_sigma/2, once per cycle, then the white noise,
then the random walk.  The rotation sensitivity follows from the
per-readout noise here and the working point's slope alpha0: the
`budget` command divides the combined sample's noise by |alpha0| and
scales it by sqrt(cycle_period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spin import ELEMENTARY_CHARGE

#: Measured DQ coherence time T2* (s), the default of SequenceConfig.t2_dq.
DEFAULT_T2_DQ = 1.95e-3


@dataclass(frozen=True)
class DetectorConfig:
    """Photodetector and timing parameters of a single optical readout.

    V0: mean fluorescence voltage (V); G: transimpedance gain (V/A);
    contrast: full fringe contrast C; t_R: signal-bearing readout window
    (s) inside the pump pulse; balanced: balanced photodiode flag.  The
    measurement time is not a detector setting: one 4-Ramsey cycle of
    SequenceConfig.cycle_period holds four readouts.
    """

    V0: float = 15.0
    G: float = 1.75e5
    contrast: float = 0.015
    t_R: float = 17e-6
    balanced: bool = True

    def __post_init__(self):
        for name in ("V0", "G", "t_R"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 < self.contrast < 1.0:
            raise ValueError("contrast must be in (0, 1)")
        if not 0.0 < (count := photoelectron_count(self)) < math.inf:
            raise ValueError(f"V0, G and t_R give {count:g} photoelectrons per "
                             f"readout; the shot noise needs a finite count > 0")

    @property
    def v_pump(self) -> float:
        """Bright level V_H = V0*(1 + C/2), read after optical pumping."""
        return self.V0 * (1.0 + self.contrast / 2.0)

    @property
    def v_low(self) -> float:
        return self.V0 * (1.0 - self.contrast / 2.0)

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
                   rng: np.random.Generator | None = None, out=None):
    """Normalized signal S = V/V_pump of bright projections in [0, 1].

    The voltage interpolates linearly V_L..V_H; with an rng, one Gaussian
    photon-shot-noise draw is added per entry of the result, in C order.
    out, a float array that projection broadcasts to (projection itself
    included), receives the result in place of a new array.
    """
    volts = d.v_low + projection * d.V0 * d.contrast
    if rng is not None:
        if out is None:
            out = np.empty(np.shape(projection))
        # sigma * N(0, 1) is rng.normal(0, sigma) bit for bit.
        noise = rng.standard_normal(out=out)
        noise *= d.V0 * psn_fractional_uncertainty(d)
        volts = np.add(noise, volts, out=out)
    return np.divide(volts, d.v_pump, out=out)
