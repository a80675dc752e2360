"""Reference models the nvgyro kernel and fringe fit are checked against.

bright_projections recomputes the 4-Ramsey bright projections one shot
at a time and shares no code with the nvgyro kernel.  Pulses are matrix
exponentials expm(-i*G) of their rotating-wave generators, free precession is
expm(-2*pi*i*H*tau) of the free Hamiltonian built from
transition_frequencies, and each coherence rho[a, b] decays by its
coherence order |m_a - m_b|: order 2 with t2_dq, order 1 with t2_sq.

fringe_fit solves the same weighted decaying-sine problem as
fit_decaying_sine, but with all five parameters free in scipy's
trust-region least_squares instead of by variable projection.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from nvgyro import PulseKind, PulseSpec, transition_frequencies
from nvgyro.analysis import _decaying_sine, _initial_guess

#: Nuclear spin projection m_I of each basis index.
M_I = np.array([+1, 0, -1])


def two_tone_generator(p: PulseSpec) -> np.ndarray:
    """Rotating-wave generator G of the hard pulse, U = expm(-i * G).

    Each driven tone couples |0> to its |+-1> level with half its area:
    pi for the SQ pulse, pi/sqrt(2) per tone for the two-tone DQ pulse.
    """
    sq = p.kind is PulseKind.SQ_PI_F1
    half = (math.pi if sq else math.pi / math.sqrt(2)) * p.area_scale / 2
    g = np.zeros((3, 3), dtype=complex)
    g[0, 1] = half * np.exp(-1j * p.phase_f1)
    if not sq:
        g[2, 1] = half * np.exp(-1j * p.phase_f2)
    return g + g.conj().T


def pulse(rho: np.ndarray, p: PulseSpec) -> np.ndarray:
    u = expm(-1j * two_tone_generator(p))
    return u @ rho @ u.conj().T


def free_precession(rho, tau, env, c, frame, t2_dq, t2_sq) -> np.ndarray:
    """Precession under H = diag(f1 + nu - frame.f1, 0, f2 - nu - frame.f2)
    for tau seconds, then dephasing by coherence order."""
    f1, f2 = transition_frequencies(env, c)
    h = np.diag([f1 + env.nu - frame.f1, 0.0, f2 - env.nu - frame.f2])
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
        rho = pulse(pumped, PulseSpec(PulseKind.SQ_PI_F1, area_scale=scale))
        rho = pulse(rho, PulseSpec(PulseKind.DQ_TWO_TONE, area_scale=scale))
        rho = free_precession(rho, tau, env, c, cfg.frame, cfg.t2_dq, t2_sq)
        for j, (ph1, ph2) in enumerate(cfg.phase_table):
            read = pulse(rho, PulseSpec(PulseKind.DQ_TWO_TONE, phase_f1=ph1,
                                        phase_f2=ph2, area_scale=scale))
            out[j] += weight * (1.0 - read[1, 1].real)
    return out


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
