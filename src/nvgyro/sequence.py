"""DQ Ramsey / 4-Ramsey experiments, fringe sweeps, and gyro streaming.

One Ramsey shot: optical pump reset into |+1>, SQ pi pulse on f1
(sq_pi_pulse) moving the population to |0>, two-tone DQ pulse (dq_pulse)
creating the |+-1> coherence, free precession for tau, a second DQ pulse
with configurable tone phases projecting the accumulated phase back into
populations, and an optical readout through the detector model.

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
the noise-free bright projections of the four phase-table Ramseys.  Free
precession scales only the three coherences of rho, so each projection
is a fixed affine function of the three coherence factors z of
spin.coherence_factors, const_j - Re(coef_j . z), with const and coef
built once per call from the pulses (_readout_terms); z broadcasts over
arrays of delays and over the array fields of the FieldEnvironment
(rotation rate, quadrupole shift, field drift).  Every path reads them
out in place through ramsey_signals, which with an rng adds shot noise,
one normal draw per (delay, phase entry) in C order; a single Ramsey
record is one of its four columns, and combine_4ramsey forms R from
them; sweep_fringes, which `nvgyro fringes` runs, keeps the four
records next to R.  The working-point
stream of SequenceConfig.n_cycles(duration) cycles keeps only R, so it
combines noise-free readouts and draws the shot noise of R itself, one
N(0, combined_sigma) value per cycle; a varying environment runs in
fixed blocks of cycles, making each per-cycle field (an array or an
io.Producer) block by block, so the stream's memory holds one 8-byte
word per cycle (the combined signal) plus one block; its output does
not depend on the block size.
The test reference model, tests/oracle.py, computes the same projections
one shot at a time from matrix exponentials of the pulse generators and
of the free Hamiltonian, sharing no code with the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .detector import (
    DEFAULT_T2_DQ,
    DetectorConfig,
    NoiseHooks,
    readout_signal,
    signal_sigma,
)
from .io import Producer, _producer
from .spin import (
    ABSOLUTE_FRAME,
    FieldEnvironment,
    PhysicalConstants,
    RotatingFrame,
    check_finite,
    coherence_factors,
    dq_pulse,
    dq_rate,
    sq_pi_pulse,
)

#: Cycles per block of run_gyro_stream: bounds its working memory (a
#: rotating block's coherence factors and projections, about 150 bytes
#: per cycle at their peak, so about 0.6 MB) and leaves its output bytes
#: unchanged.
_STREAM_BLOCK = 4096

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
        if not 0.0 <= self.tau_wp <= self.tau_wp_max:
            raise ValueError(
                f"tau_wp = {self.tau_wp:g} s must be in [0, {self.tau_wp_max:g}] s: 4 * "
                f"(pump_duration + tau_wp) <= cycle_period, with pump_duration = "
                f"{self.pump_duration:g} s and cycle_period = {self.cycle_period:g} s")
        if not math.exp(-self.tau_wp / self.t2_dq) > 0.0:
            raise ValueError(
                f"tau_wp = {self.tau_wp:g} s is {self.tau_wp / self.t2_dq:g} times "
                f"t2_dq = {self.t2_dq:g} s: the signal exp(-tau_wp/t2_dq) "
                f"decays to 0")
        if self.detector.t_R > self.pump_duration:
            raise ValueError("detector t_R must fit inside the pump pulse")

    def n_cycles(self, duration: float) -> int:
        """Whole cycles in duration (s), the length of a working-point
        stream; ValueError unless duration is finite and >= one cycle."""
        period = self.cycle_period
        if not (math.isfinite(duration) and duration >= period):
            raise ValueError(f"duration must be a finite time of at least one "
                             f"cycle ({period} s), got {duration}")
        return int(math.floor(duration / period))

    @property
    def tau_wp_max(self) -> float:
        """Longest working-point delay: a cycle holds four (pump, delay) Ramseys."""
        return self.cycle_period / 4.0 - self.pump_duration

    def check_delay(self, delay: float, name: str) -> None:
        """The timing rule of a fringe-sweep delay (each point is its own
        experiment): 0 <= delay and pump_duration + delay < cycle_period."""
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
    """(tau, signal) fringe scan with an optional per-point noise sigma;
    a simulated sweep also keeps the (points x 4) records R1..R4."""

    taus: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None
    records: np.ndarray | None = None

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
        if self.records is not None:
            self.records = np.asarray(self.records, dtype=float)
            if self.records.shape != (len(self.taus), 4):
                raise ValueError("records must hold 4 signals per tau")

    def __len__(self) -> int:
        return len(self.taus)


def _prepared_state(cfg: SequenceConfig, scale: float) -> np.ndarray:
    """Density matrix after the optical pump (pump_fidelity in |+1>, the rest
    maximally mixed), SQ pi and the first DQ pulse (phases 0,0)."""
    f = cfg.pump_fidelity
    rho = np.diag([f, 0.0, 0.0]) + (1.0 - f) * np.eye(3) / 3.0
    u_pi = sq_pi_pulse(area_scale=scale)
    u_dq = dq_pulse(area_scale=scale)
    rho = u_pi @ rho @ u_pi.conj().T
    return u_dq @ rho @ u_dq.conj().T


def _readout_terms(cfg: SequenceConfig) -> tuple[np.ndarray, np.ndarray]:
    """(const, coef), shapes (4,) and (4, 3), averaged over rf_gradient:
    with u the |0> row of phase entry j's second pulse, the |0> population
    read out is sum_ab conj(u_a) u_b rho_ba, so the prepared populations
    give const[j] and each coherence, with its Hermitian partner, twice
    the real part of coef[j] times its factor."""
    const = np.zeros(4)
    coef = np.zeros((4, 3), dtype=complex)
    for weight, scale in cfg.rf_gradient:
        rho = _prepared_state(cfg, scale)
        for j, (ph1, ph2) in enumerate(cfg.phase_table):
            u = dq_pulse(ph1, ph2, area_scale=scale)[1]
            const[j] += weight * (1.0 - np.dot(np.abs(u) ** 2, np.diag(rho).real))
            coef[j] += (2.0 * weight * u.conj()[[1, 1, 2]] * u[[0, 2, 0]]
                        * rho[[0, 2, 0], [1, 1, 2]])
    return const, coef


def ramsey_projections(cfg: SequenceConfig, env: FieldEnvironment,
                       c: PhysicalConstants, tau) -> np.ndarray:
    """Noise-free bright projections of the four phase-table Ramseys,
    averaged over rf_gradient: shape (..., 4), led by the broadcast shape
    of tau (s) and the environment's array fields."""
    z = coherence_factors(tau, env, c, cfg.frame, cfg.t2_dq, cfg.effective_t2_sq)
    const, coef = _readout_terms(cfg)
    return const - np.einsum("...k,jk->...j", z, coef).real


def ramsey_signals(cfg: SequenceConfig, env: FieldEnvironment,
                   c: PhysicalConstants, tau,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Signals S of the four phase-table Ramseys, shape (..., 4).

    Broadcasts like ramsey_projections, and reads out in place into the
    projections' buffer; with an rng each (delay, phase entry) gets its
    own shot-noise draw.
    """
    proj = ramsey_projections(cfg, env, c, tau)
    return readout_signal(cfg.detector, proj, rng, out=proj)


def combine_4ramsey(signals, out=None) -> np.ndarray:
    """R = (R1 - R2 + R3 - R4)/4 over the last axis of a (..., 4) array,
    written into out when given."""
    s = np.asarray(signals)
    r = np.subtract(s[..., 0], s[..., 1], out=out)
    r += s[..., 2]
    r -= s[..., 3]
    r /= 4.0
    return r


def combined_sigma(cfg: SequenceConfig) -> float:
    """Photon-shot-noise std of one combined 4-Ramsey sample (S units)."""
    return signal_sigma(cfg.detector) / 2.0


def sweep_fringes(cfg: SequenceConfig, env: FieldEnvironment,
                  c: PhysicalConstants, tau_grid: Sequence[float],
                  rng: np.random.Generator | None = None) -> FringeSeries:
    """One 4-Ramsey point per tau on a strictly increasing grid whose last
    delay, tau_max, obeys check_delay and whose largest step samples the
    DQ fringe (spin.dq_rate) above its Nyquist rate; the series keeps the
    records it combined and, with an rng, combined_sigma per point."""
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ValueError("tau grid must be nonempty")
    cfg.check_delay(taus[-1], "tau_max")
    step = np.max(np.diff(taus), initial=0.0)
    fringe = np.max(np.abs(dq_rate(env, c, cfg.frame)))
    if not 2.0 * fringe * step < 1.0:
        raise ValueError(f"the largest tau step, {step:g} s, aliases the DQ fringe at "
                         f"{fringe:.6g} Hz: 2*|f|*step = {2.0 * fringe * step:.3g} must "
                         f"be < 1 (use more points or a shorter tau_max)")
    records = ramsey_signals(cfg, env, c, taus, rng)
    sigma = None if rng is None else np.full(taus.shape, combined_sigma(cfg))
    return FringeSeries(taus=taus, values=combine_4ramsey(records),
                        sigma=sigma, records=records)


def _normal_blocks(rng: np.random.Generator, sigma: float, combined: np.ndarray):
    """(block of combined, its N(0, sigma) draws) for each _STREAM_BLOCK
    of combined; the draws are rng.normal(0, sigma, len(combined)) bit
    for bit, made in one reused buffer."""
    buf = np.empty(min(len(combined), _STREAM_BLOCK))
    for start in range(0, len(combined), _STREAM_BLOCK):
        block = combined[start:start + _STREAM_BLOCK]
        draws = rng.standard_normal(out=buf[:len(block)])
        draws *= sigma
        yield block, draws


def run_gyro_stream(cfg: SequenceConfig, env: FieldEnvironment,
                    c: PhysicalConstants, duration: float,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Working-point stream: the combined 4-Ramsey sample of each of the
    cfg.n_cycles(duration) cycles; cycle k starts at k * cycle_period.

    Each cycle is the 4-Ramsey sequence at tau_wp in env.  A field of
    env that holds an array or an io.Producer has one entry per cycle,
    held constant over that cycle; an environment of scalars is static,
    and its one noise-free sample fills the output.  A varying
    environment runs in blocks of _STREAM_BLOCK cycles: each block makes
    its fields' entries (io._producer), reads out its noise-free signals
    (ramsey_signals) and combines them straight into the output, so its
    (cycles x 4) signals exist one block at a time.  The shot noise of
    the four readouts of a cycle combines to sigma_S * (n1 - n2 + n3 -
    n4)/4 with independent standard normals n, which is N(0,
    combined_sigma(cfg)): one draw per combined sample.
    With an rng, draw order is: photon shot noise (n_cycles), extra white
    noise (n_cycles), random-walk increments (n_cycles), each drawn a
    block at a time; every step is elementwise and the draws are
    sequential, so the output is the same bit for bit whatever the block
    size.
    """
    n = cfg.n_cycles(duration)
    varying = {name: values for name in ("nu", "delta_Q", "delta_B")
               if isinstance(values := getattr(env, name), Producer) or np.ndim(values)}
    if any(len(values) != n or np.ndim(values) > 1 for values in varying.values()):
        raise ValueError(f"varying environment fields must hold one entry per cycle ({n})")
    try:
        combined = np.empty(n)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest size
        raise MemoryError(f"a stream of {n} cycles needs {8 * n} bytes for its "
                          f"signal (8 per cycle), more than can be allocated") from None
    if not varying:
        combined.fill(combine_4ramsey(ramsey_signals(cfg, env, c, cfg.tau_wp)))
    else:
        for start in range(0, n, _STREAM_BLOCK):
            stop = min(start + _STREAM_BLOCK, n)
            block = env.replace(**{name: _producer(values).make(start, stop)
                                   for name, values in varying.items()})
            combine_4ramsey(ramsey_signals(cfg, block, c, cfg.tau_wp),
                            out=combined[start:stop])
    if rng is None:
        return combined

    # Each noise is drawn a block at a time into a buffer of its own,
    # freed (with the loop's names) before the next one is made; the
    # random walk carries its level from block to block, so its running
    # sum is the whole-run np.cumsum's.
    for sigma in (combined_sigma(cfg), cfg.noise.white_sigma):
        if sigma > 0:
            for block, draws in _normal_blocks(rng, sigma, combined):
                block += draws
            del block, draws
    if cfg.noise.random_walk_sigma > 0:
        walk = cfg.noise.random_walk_sigma * math.sqrt(cfg.cycle_period)
        level = 0.0
        for block, steps in _normal_blocks(rng, walk, combined):
            steps[0] += level
            block += np.cumsum(steps, out=steps)
            level = steps[-1]
    return combined
