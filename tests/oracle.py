"""Reference models the nvgyro kernel and fringe fit are checked against.

bright_projections recomputes the 4-Ramsey bright projections one shot
at a time and shares no code with the nvgyro kernel.  Pulses are matrix
exponentials expm(-i*G) of their rotating-wave generators, free precession is
expm(-2*pi*i*H*tau) of the free Hamiltonian built from dq_splitting and
the quadrupole centre, and each coherence rho[a, b] decays by its
coherence order |m_a - m_b|: order 2 with t2_dq, order 1 with t2_sq.

psn_rotation_sensitivity is the paper's closed-form shot-noise
sensitivity of the working point, with the measurement time t_m an
argument; nvgyro derives its own from the kernel's slope alpha0 and the
cycle instead, and at t_m = cycle_period/4 the two must agree.

calibration_from_amplitude, calibration_from_slope and linearity are
the fringe calibration of a bare amplitude, the slope method of the
calibration and the exact phase-wrapped response, which nothing in
nvgyro computes: the CLI measures alpha by the fringe fit, the sweep
regression and the kernel's alpha0, and dynamic_range keeps only the
leading term of linearity's sine.

calibration_from_sweep, rate_spread and rotation_rms_error are the
whole-array formulas of the rate-table regression, the np.std gate on
the rates and the table-vs-gyro RMS, each holding run-length
temporaries; nvgyro forms the same sums leaf by leaf and must match them
bit for bit.

fringe_fit solves the same weighted decaying-sine problem as
fit_decaying_sine, but with all five parameters free in scipy's
trust-region least_squares instead of by variable projection.
"""

import enum
import math

import numpy as np
from scipy.constants import e as ELEMENTARY_CHARGE
from scipy.linalg import expm
from scipy.optimize import least_squares

from nvgyro import dq_splitting
from nvgyro.analysis import _decaying_sine, _initial_guess

#: Nuclear spin projection m_I of each basis index.
M_I = np.array([+1, 0, -1])


class PulseKind(enum.Enum):
    """The sequence's two hard pulses, by the tones they drive: the SQ pi
    pulse drives f1 (|0> <-> |+1>) with area pi, the DQ pulse drives f1
    and f2 (|0> <-> |-1>) at once with area pi/sqrt(2) each."""

    SQ_PI_F1 = (math.pi, False)
    DQ_TWO_TONE = (math.pi / math.sqrt(2), True)


def two_tone_generator(kind: PulseKind, phase_f1: float = 0.0,
                       phase_f2: float = 0.0, area_scale: float = 1.0) -> np.ndarray:
    """Rotating-wave generator G of the hard pulse, U = expm(-i * G).

    Each driven tone couples |0> to its |+-1> level with half its area,
    scaled by area_scale, at its tone phase (rad).
    """
    area, drives_f2 = kind.value
    half = area * area_scale / 2
    g = np.zeros((3, 3), dtype=complex)
    g[0, 1] = half * np.exp(-1j * phase_f1)
    if drives_f2:
        g[2, 1] = half * np.exp(-1j * phase_f2)
    return g + g.conj().T


def pulse(rho: np.ndarray, kind: PulseKind, phase_f1: float = 0.0,
          phase_f2: float = 0.0, area_scale: float = 1.0) -> np.ndarray:
    u = expm(-1j * two_tone_generator(kind, phase_f1, phase_f2, area_scale))
    return u @ rho @ u.conj().T


def free_precession(rho, tau, env, c, frame, t2_dq, t2_sq) -> np.ndarray:
    """Precession under H = diag(f1 + nu - frame.f1, 0, f2 - nu - frame.f2)
    for tau seconds, then dephasing by coherence order.

    f1, f2 = centre +- f_DQ/2 are not formed: each detuning takes the
    frame off the centre first, so in a rotating frame it does not carry
    the rounding of a MHz carrier (up to ~5e-10 Hz, which over 4 ms moves
    the DQ phase by ~1e-11 rad, more than the kernel check allows).
    """
    f_dq = dq_splitting(env.B + env.delta_B, c)
    center = c.Q + env.delta_Q
    h = np.diag([(center - frame.f1) + f_dq / 2.0 + env.nu, 0.0,
                 (center - frame.f2) - f_dq / 2.0 - env.nu])
    u = expm(-2j * np.pi * h * tau)
    decay = np.array([1.0, math.exp(-tau / t2_sq), math.exp(-tau / t2_dq)])
    order = np.abs(M_I[:, None] - M_I[None, :])
    return (u @ rho @ u.conj().T) * decay[order]


def bright_projections(cfg, env, c, tau: float) -> np.ndarray:
    """Population outside |0> after each of the four phase-table Ramseys,
    averaged over the rf_gradient sub-ensembles."""
    t2_sq = cfg.t2_dq if cfg.t2_sq is None else cfg.t2_sq
    f = cfg.pump_fidelity
    pumped = f * np.diag([1.0, 0.0, 0.0]) + (1.0 - f) * np.eye(3) / 3.0
    out = np.zeros(4)
    for weight, scale in cfg.rf_gradient:
        rho = pulse(pumped, PulseKind.SQ_PI_F1, area_scale=scale)
        rho = pulse(rho, PulseKind.DQ_TWO_TONE, area_scale=scale)
        rho = free_precession(rho, tau, env, c, cfg.frame, cfg.t2_dq, t2_sq)
        for j, (ph1, ph2) in enumerate(cfg.phase_table):
            read = pulse(rho, PulseKind.DQ_TWO_TONE, ph1, ph2, scale)
            out[j] += weight * (1.0 - read[1, 1].real)
    return out


def psn_rotation_sensitivity(d, tau: float, t2: float, t_m: float) -> float:
    """Shot-noise-limited rotation sensitivity (Hz/sqrt(Hz)) of a detector
    d at delay tau with DQ coherence time t2 and measurement time t_m:

        (1/2pi) * 1/(tau*exp(-tau/t2)) * (1/C) * sqrt(n_b*G*q_e/(V0*t_R)) * sqrt(t_m),

    with n_b = 2 for balanced detection (1 otherwise) and q_e the SI
    elementary charge, taken from scipy rather than from nvgyro.
    """
    if tau <= 0 or t2 <= 0:
        raise ValueError("tau and t2 must be > 0")
    n_b = 2.0 if d.balanced else 1.0
    return (math.sqrt(n_b * d.G * ELEMENTARY_CHARGE / (d.V0 * d.t_R) * t_m)
            / (2 * math.pi * tau * math.exp(-tau / t2) * d.contrast))


def calibration_from_amplitude(a_wp: float, tau_wp: float) -> float:
    """alpha = 4*pi*tau_wp*A_wp per Hz, with A_wp the local fringe
    amplitude at the working point and a positive slope."""
    if tau_wp <= 0:
        raise ValueError("tau_wp must be > 0")
    return 4.0 * math.pi * tau_wp * a_wp


def calibration_from_slope(ds_dtau: float, tau_wp: float,
                           f_dq: float) -> float:
    """alpha = 2 * (tau_wp / f_DQ) * dS/dtau per Hz, with dS/dtau measured
    at the working point."""
    if tau_wp <= 0 or f_dq <= 0:
        raise ValueError("tau_wp and f_dq must be > 0")
    return 2.0 * (tau_wp / f_dq) * ds_dtau


def linearity(nu, nu0: float):
    """Phase-wrapped response: nu_meas = nu0*sin(nu/nu0) and the
    fractional deviation epsilon = (nu - nu_meas)/nu (0 at nu = 0)."""
    if nu0 <= 0:
        raise ValueError("nu0 must be > 0")
    nu_arr = np.asarray(nu, dtype=float)
    nu_meas = nu0 * np.sin(nu_arr / nu0)
    with np.errstate(invalid="ignore", divide="ignore"):
        eps = np.where(nu_arr == 0.0, 0.0, (nu_arr - nu_meas) / nu_arr)
    if nu_arr.ndim == 0:
        return float(nu_meas), float(eps)
    return nu_meas, eps


def calibration_from_sweep(nu, signal) -> tuple[float, float, float]:
    """(slope, its standard error, intercept) of the least-squares line
    of signal against nu, as whole-array expressions."""
    dev = nu - np.mean(nu)
    slope = float(np.sum(dev * (signal - np.mean(signal))) / np.sum(dev**2))
    intercept = float(np.mean(signal) - slope * np.mean(nu))
    resid = signal - (slope * nu + intercept)
    stderr = float(np.sqrt(np.sum(resid**2) / max(len(signal) - 2, 1)
                           / np.sum(dev**2)))
    return slope, stderr, intercept


def rate_spread(nu) -> float:
    return float(np.std(nu))


def rotation_rms_error(signal, alpha_per_hz: float, baseline: float, nu) -> float:
    """RMS of the calibrated estimate (signal - baseline)/alpha against nu."""
    return float(np.sqrt(np.mean(((signal - baseline) / alpha_per_hz - nu) ** 2)))


def fringe_fit(series) -> tuple[np.ndarray, np.ndarray]:
    """(A, f, phi, T2*, offset) and their 1-sigma errors from least_squares.

    Same seed for (f, T2*), bounds, tolerances, weights and chi-square
    scaled covariance as nvgyro's fit; A, phi and offset start from a
    linear solve at the seed.
    """
    taus, y = series.taus, series.values
    w = 1.0 / series.sigma
    f0, t0 = _initial_guess(taus, y)
    env, arg = np.exp(-taus / t0), 2 * np.pi * f0 * taus
    basis = np.column_stack([env * np.sin(arg), env * np.cos(arg), np.ones_like(taus)])
    a1, a2, c = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)[0]
    x0 = [math.hypot(a1, a2), f0, math.atan2(a2, a1), t0, c]
    span = taus[-1] - taus[0]
    res = least_squares(lambda x: (_decaying_sine(taus, *x) - y) * w, x0,
                        bounds=([-np.inf, 0.0, -np.inf, span / 1e4, -np.inf], np.inf),
                        xtol=1e-10, ftol=1e-12, gtol=1e-14, max_nfev=2000)
    assert res.status > 0, res.message
    cov = np.linalg.inv(res.jac.T @ res.jac) * (2 * res.cost / (len(taus) - 5))
    x = res.x.copy()
    if x[0] < 0:
        x[0], x[2] = -x[0], x[2] + math.pi
    x[2] %= 2 * math.pi
    return x, np.sqrt(np.diag(cov))
