"""DQ Ramsey / 4-Ramsey experiments, fringe sweeps, and gyro streaming.

One Ramsey shot: optical pump reset into |+1>, SQ pi pulse on f1 moving
the population to |0>, two-tone DQ pulse creating the |+-1> coherence,
free precession for tau, a second DQ pulse with configurable tone phases
projecting the accumulated phase back into populations, and an optical
readout through the detector model.

The 4-Ramsey protocol repeats the shot with the second pulse's phases
cycled through a 4-entry table and combines R = (R1 - R2 + R3 - R4)/4.
With the default table (0,0), (pi,0), (pi,pi), (0,pi) the per-tone phase
factors e^{i*phi1} and e^{i*phi2} sum to zero over the signed
combination, cancelling residual single-quantum signals from imperfect
pulse areas exactly, while the DQ term alternates sign and survives.

Imperfect RF (gradient across the sensing volume) is a weighted mixture
of sub-ensembles with different common area scales; the detector reads
the ensemble-averaged projection once per shot.

Every experiment here is evaluated by one kernel, ramsey_projections:
the noise-free bright projections of the four phase-table Ramseys,
Tr(W_j rho(tau)) with W_j = U2_j^dag |0><0| U2_j, broadcast over arrays
of delays and rotation rates.  Shot noise is added afterwards, one
normal draw per (delay or cycle, phase entry) in C order, by
ramsey_signals; a single Ramsey record is one of its four columns, and
combine_4ramsey forms R from them.  The test reference model,
tests/oracle.py, computes the same projections one shot at a time from
matrix exponentials of the pulse generators and of the free Hamiltonian,
sharing no code with the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .detector import (
    DEFAULT_T2_DQ,
    DetectorConfig,
    NoiseHooks,
    readout_signal,
    signal_sigma,
)
from .spin import (
    ABSOLUTE_FRAME,
    FieldEnvironment,
    PhysicalConstants,
    PulseKind,
    PulseSpec,
    RotatingFrame,
    check_finite,
    evolution_factor,
    frame_detunings,
    pulse_unitary,
)

#: Second-pulse (phase_f1, phase_f2) table; signs in the combination are +,-,+,-.
DEFAULT_PHASE_TABLE = (
    (0.0, 0.0),
    (math.pi, 0.0),
    (math.pi, math.pi),
    (0.0, math.pi),
)


@dataclass(frozen=True)
class SequenceConfig:
    """Timing, phase cycling, imperfections and readout of the experiment.

    rf_gradient is a tuple of (weight, area_scale) sub-ensembles with
    weights summing to one.  The default ABSOLUTE_FRAME is the
    phase-reset convention (fringes at absolute transition frequencies);
    pass another RotatingFrame for synchronized synthesizers.  The
    readout window is detector.t_R; t2_dq (default for both decay
    channels) is also the T2* of the sensitivity budget.
    """

    tau_wp: float = 1.428e-3
    pump_duration: float = 300e-6
    cycle_period: float = 7e-3
    pump_fidelity: float = 1.0
    rf_gradient: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    phase_table: tuple[tuple[float, float], ...] = DEFAULT_PHASE_TABLE
    t2_dq: float = DEFAULT_T2_DQ
    t2_sq: float | None = None
    frame: RotatingFrame = ABSOLUTE_FRAME
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    noise: NoiseHooks = field(default_factory=NoiseHooks)

    def __post_init__(self):
        if len(self.phase_table) != 4:
            raise ValueError("phase_table must have exactly 4 entries")
        if not np.all(np.isfinite(self.phase_table)):
            raise ValueError("phase_table phases must be finite")
        weights = [w for w, _ in self.rf_gradient]
        if any(not 0.0 < w < math.inf for w in weights):
            raise ValueError("rf_gradient weights must be finite and > 0")
        if not abs(sum(weights) - 1.0) <= 1e-9:
            raise ValueError("rf_gradient weights must sum to 1")
        if any(not 0.0 < s < math.inf for _, s in self.rf_gradient):
            raise ValueError("rf_gradient area scales must be finite and > 0")
        if not 0.0 <= self.pump_fidelity <= 1.0:
            raise ValueError("pump_fidelity must be in [0, 1]")
        if not 0.0 < self.t2_dq < math.inf:
            raise ValueError("t2_dq must be finite and > 0")
        if self.t2_sq is not None and not self.t2_sq > 0:
            raise ValueError("t2_sq must be > 0 (inf: no SQ decay)")
        check_finite(self, "cycle_period")
        self.check_delay(self.tau_wp, "tau_wp")
        if self.detector.t_R > self.pump_duration:
            raise ValueError("detector t_R must fit inside the pump pulse")

    def check_delay(self, delay: float, name: str) -> None:
        """The timing rule of every Ramsey delay: 0 <= delay and
        pump_duration + delay < cycle_period."""
        if not (0.0 <= delay and self.pump_duration + delay < self.cycle_period):
            raise ValueError(
                f"{name} = {delay:g} s must be >= 0 and, after the "
                f"{self.pump_duration:g} s pump, fit in cycle_period = "
                f"{self.cycle_period:g} s")

    @property
    def effective_t2_sq(self) -> float:
        return self.t2_dq if self.t2_sq is None else self.t2_sq

    def replace(self, **kwargs) -> "SequenceConfig":
        return replace(self, **kwargs)


@dataclass
class FringeSeries:
    """(tau, signal) fringe scan with an optional per-point noise sigma."""

    taus: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.taus.ndim != 1 or self.taus.shape != self.values.shape:
            raise ValueError("taus and values must be equal-length 1-D arrays")
        if len(self.taus) > 1 and np.any(np.diff(self.taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if self.sigma.shape != self.taus.shape:
                raise ValueError("sigma must match taus in length")

    def __len__(self) -> int:
        return len(self.taus)


@dataclass
class GyroTimeSeries:
    """Working-point stream: cycle-start timestamps and combined signal."""

    t: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        if self.t.shape != self.S.shape:
            raise ValueError("t and S must have equal lengths")
        if len(self.t) > 1 and np.any(np.diff(self.t) <= 0):
            raise ValueError("t must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


def _prepared_state(cfg: SequenceConfig, scale: float) -> np.ndarray:
    """Density matrix after the optical pump (pump_fidelity in |+1>, the rest
    maximally mixed), SQ pi and the first DQ pulse (phases 0,0)."""
    f = cfg.pump_fidelity
    rho = np.diag([f, 0.0, 0.0]) + (1.0 - f) * np.eye(3) / 3.0
    u_pi = pulse_unitary(PulseSpec(PulseKind.SQ_PI_F1, area_scale=scale))
    u_dq = pulse_unitary(PulseSpec(PulseKind.DQ_TWO_TONE, area_scale=scale))
    rho = u_pi @ rho @ u_pi.conj().T
    return u_dq @ rho @ u_dq.conj().T


def _projection_operators(cfg: SequenceConfig, scale: float) -> np.ndarray:
    """W[j] = U2_j^dag |0><0| U2_j for the 4 second-pulse phase entries."""
    p0 = np.zeros((3, 3), dtype=complex)
    p0[1, 1] = 1.0
    out = np.empty((4, 3, 3), dtype=complex)
    for j, (ph1, ph2) in enumerate(cfg.phase_table):
        u2 = pulse_unitary(
            PulseSpec(PulseKind.DQ_TWO_TONE, phase_f1=ph1, phase_f2=ph2,
                      area_scale=scale)
        )
        out[j] = u2.conj().T @ p0 @ u2
    return out


def ramsey_projections(cfg: SequenceConfig, env: FieldEnvironment,
                       c: PhysicalConstants, tau, nu=None) -> np.ndarray:
    """Noise-free bright projections of the four phase-table Ramseys.

    tau (s) and nu (rotation rate in Hz, replacing env.nu when given)
    broadcast against each other; the result has shape (..., 4) with
    their broadcast shape leading.  Projections are averaged over the
    rf_gradient sub-ensembles with their weights.
    """
    d1, d2 = frame_detunings(env, c, cfg.frame, nu)
    factor = evolution_factor(tau, d1, d2, cfg.t2_dq, cfg.effective_t2_sq)
    pbar = 0.0
    for weight, scale in cfg.rf_gradient:
        p_zero = np.real(np.einsum("jab,ba,...ba->...j",
                                   _projection_operators(cfg, scale),
                                   _prepared_state(cfg, scale), factor))
        pbar = pbar + weight * (1.0 - p_zero)
    return pbar


def ramsey_signals(cfg: SequenceConfig, env: FieldEnvironment,
                   c: PhysicalConstants, tau,
                   rng: np.random.Generator | None = None,
                   nu=None) -> np.ndarray:
    """Signals S of the four phase-table Ramseys, shape (..., 4).

    Broadcasts like ramsey_projections; with an rng each (delay, phase
    entry) gets its own shot-noise draw.
    """
    return readout_signal(cfg.detector, ramsey_projections(cfg, env, c, tau, nu), rng)


def combine_4ramsey(signals) -> np.ndarray:
    """R = (R1 - R2 + R3 - R4)/4 over the last axis of a (..., 4) array."""
    s = np.asarray(signals)
    return (s[..., 0] - s[..., 1] + s[..., 2] - s[..., 3]) / 4.0


def combined_sigma(cfg: SequenceConfig) -> float:
    """Photon-shot-noise std of one combined 4-Ramsey sample (S units)."""
    return signal_sigma(cfg.detector) / 2.0


def sweep_fringes(cfg: SequenceConfig, env: FieldEnvironment,
                  c: PhysicalConstants, tau_grid: Sequence[float],
                  rng: np.random.Generator | None = None) -> FringeSeries:
    """One 4-Ramsey point per tau on a strictly increasing grid."""
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ValueError("tau grid must be nonempty")
    cfg.check_delay(taus[-1], "max tau")
    values = combine_4ramsey(ramsey_signals(cfg, env, c, taus, rng))
    sigma = None
    if rng is not None:
        sigma = np.full(taus.shape, combined_sigma(cfg))
    return FringeSeries(taus=taus, values=values, sigma=sigma)


def run_gyro_stream(cfg: SequenceConfig, env: FieldEnvironment,
                    c: PhysicalConstants, duration: float,
                    rng: np.random.Generator | None = None,
                    nu_at: Callable[[np.ndarray], np.ndarray] | None = None
                    ) -> GyroTimeSeries:
    """Working-point stream: one combined 4-Ramsey sample per cycle.

    Each cycle is the 4-Ramsey sequence at tau_wp in env, evaluated for
    all cycles at once by ramsey_projections.  nu_at, when given, maps
    the array of cycle-start times to rotation rates in Hz (replacing
    env.nu), held constant over each cycle; without it the environment
    is static and the projections broadcast from a single evaluation.
    With an rng, draw order is: photon shot noise (n_cycles x 4), extra
    white noise (n_cycles), random-walk increments (n_cycles).
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    n = int(math.floor(duration / cfg.cycle_period))
    if n < 1:
        raise ValueError("duration shorter than one cycle")
    ts = np.arange(n) * cfg.cycle_period

    nu = None if nu_at is None else nu_at(ts)
    proj = ramsey_projections(cfg, env, c, cfg.tau_wp, nu)
    combined = combine_4ramsey(
        readout_signal(cfg.detector, np.broadcast_to(proj, (n, 4)), rng))

    if rng is not None:
        if cfg.noise.white_sigma > 0:
            combined = combined + rng.normal(0.0, cfg.noise.white_sigma, size=n)
        if cfg.noise.random_walk_sigma > 0:
            walk = cfg.noise.random_walk_sigma * math.sqrt(cfg.cycle_period)
            combined = combined + np.cumsum(rng.normal(0.0, walk, size=n))

    return GyroTimeSeries(t=ts, S=combined)
