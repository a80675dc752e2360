"""Fringe fitting, spectra, calibration, Allan deviation, working point,
linearity and dynamic range.

Fringes are modeled as A * exp(-tau/T2*) * sin(2*pi*f*tau + phi) + offset.
The fit is variable-projection least squares in numpy: the model is linear
in (A cos phi, A sin phi, offset), so only (f, T2*) are iterated, seeded
from a zero-padded FFT peak (frequency) and a windowed RMS decay (T2*).
The sensitivity-optimal working point has a closed form.

The calibration coefficient alpha converts the working-point signal to a
rotation rate.  With A_wp the fringe amplitude *in the vicinity of the
working point* (envelope included), alpha = 4*pi*tau_wp*A_wp per Hz of
rotation; dividing by 360 gives the per-(deg/s) value.  The slope method
alpha = 2*(tau_wp/f_DQ)*dS/dtau is algebraically identical at a fringe
zero crossing; a rotation sweep measures the same number directly.

The overlapping Allan deviation is computed from the phase series,
built in place in one float64 array (one 8-byte word per sample), and
its second differences are summed in cache-sized leaves along numpy's
pairwise-summation tree, so the result is the whole-array formula's to
the bit.

All frequencies are Hz internally; degrees appear only through the exact
x360 conversion at I/O boundaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitConvergenceError,
    InsufficientSpanError,
    NonUniformGridError,
)
from .sequence import FringeSeries


class WorkingPointWarning(UserWarning):
    """Working point is not at a fringe zero crossing."""


# ---------------------------------------------------------------------------
# Decaying-sine fringe fit
# ---------------------------------------------------------------------------

@dataclass
class FringeFit:
    """Parameters of A*exp(-tau/T2*)*sin(2 pi f tau + phi) + offset."""

    A: float
    f: float
    phi: float
    T2star: float
    offset: float
    covariance: np.ndarray
    residual_rms: float

    @property
    def sigmas(self) -> np.ndarray:
        """1-sigma uncertainties in parameter order (A, f, phi, T2star, offset)."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def amplitude_at(self, tau: float) -> float:
        """Local fringe amplitude |A| * exp(-tau/T2star)."""
        return abs(self.A) * math.exp(-tau / self.T2star)

    def model(self, taus) -> np.ndarray:
        return _decaying_sine(np.asarray(taus, dtype=float), self.A, self.f,
                              self.phi, self.T2star, self.offset)


def _decaying_sine(tau, a, f, phi, t2, offset):
    return a * np.exp(-tau / t2) * np.sin(2.0 * np.pi * f * tau + phi) + offset


def _check_uniform(taus: np.ndarray) -> float:
    dt = np.diff(taus)
    if dt.size == 0:
        raise NonUniformGridError("need at least two samples")
    if np.max(np.abs(dt - dt[0])) > 1e-6 * abs(dt[0]):
        raise NonUniformGridError("tau grid is not uniform")
    return float(dt[0])


def power_spectrum(taus, values,
                   zero_pad: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, |FT|^2) of values on the uniform grid taus, mean removed.

    zero_pad multiplies the FFT length for peak localization.  Raises
    NonUniformGridError on irregular grids.
    """
    dt = _check_uniform(np.asarray(taus, dtype=float))
    values = np.asarray(values, dtype=float)
    y = values - np.mean(values)
    n_fft = zero_pad * len(y)
    power = np.abs(np.fft.rfft(y, n=n_fft)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    return freqs, power


def spectrum_peak_frequency(freqs: np.ndarray, power: np.ndarray) -> float:
    """Frequency of the largest non-DC spectral bin."""
    if len(freqs) < 2:
        raise InsufficientSpanError("spectrum too short for a peak search")
    i = 1 + int(np.argmax(power[1:]))
    return float(freqs[i])


def _initial_guess(taus, values) -> tuple[float, float]:
    """Seed (f, T2*) from the FFT peak and the RMS decay between halves."""
    y = values - np.mean(values)
    if np.max(np.abs(y)) == 0.0:
        raise InsufficientSpanError("constant series has no fringe to fit")
    freqs, power = power_spectrum(taus, values)
    f0 = spectrum_peak_frequency(freqs, power)
    span = taus[-1] - taus[0]
    if f0 <= 0 or span * f0 < 1.0:
        raise InsufficientSpanError(
            f"data span {span:.3g} s covers {span * max(f0, 0.0):.2f} "
            "oscillation periods; need >= 1"
        )
    # Envelope from the RMS decay between the two halves of the record.
    half = len(taus) // 2
    rms1 = float(np.sqrt(np.mean(y[:half] ** 2)))
    rms2 = float(np.sqrt(np.mean(y[half:] ** 2)))
    t1 = float(np.mean(taus[:half]))
    t2c = float(np.mean(taus[half:]))
    if rms1 > 0 and rms2 > 0 and rms1 > rms2:
        t2_0 = (t2c - t1) / math.log(rms1 / rms2)
    else:
        t2_0 = 10.0 * span
    return f0, min(max(t2_0, span / 50.0), 100.0 * span)


#: Gauss-Newton iterations before the fringe fit gives up.
MAX_FIT_ITERATIONS = 500


class _Projection:
    """Variable-projection view of the fringe model at fixed (f, T2*).

    The model is linear in (A cos phi, A sin phi, offset) over the basis
    exp(-tau/T2*) * (sin 2 pi f tau, cos 2 pi f tau, 1); np.linalg.lstsq
    gives those three, and the residual left over is a function of
    theta = (f, T2*) alone.  Basis, residuals and derivatives are weighted.
    """

    def __init__(self, taus, values, weights, theta):
        self.taus, self.theta = taus, theta
        f, t2 = theta
        arg = 2.0 * np.pi * f * taus
        env = np.exp(-taus / t2) * weights
        self.basis = np.column_stack([env * np.sin(arg), env * np.cos(arg), weights])
        self.coef = np.linalg.lstsq(self.basis, values * weights, rcond=None)[0]
        self.residuals = self.basis @ self.coef - values * weights
        self.cost = float(self.residuals @ self.residuals)

    def derivatives(self) -> np.ndarray:
        """Derivatives of the model in (f, T2*) at the solved coefficients."""
        a1, a2, _ = self.coef
        env_sin, env_cos = self.basis[:, 0], self.basis[:, 1]
        t2 = self.theta[1]
        return np.column_stack([
            2.0 * np.pi * self.taus * (a1 * env_cos - a2 * env_sin),
            self.taus / t2 / t2 * (a1 * env_sin + a2 * env_cos),
        ])

    def jacobian(self) -> np.ndarray:
        """Kaufman's Jacobian of the residuals in (f, T2*): the derivatives
        with their part in the span of the basis projected out."""
        d = self.derivatives()
        return d - self.basis @ np.linalg.lstsq(self.basis, d, rcond=None)[0]


def fit_decaying_sine(series: FringeSeries) -> FringeFit:
    """Least-squares fit of a decaying sine to a fringe series.

    Variable projection (Golub & Pereyra, Inverse Problems 19 (2003) R1):
    at each (f, T2*) the amplitude, phase and offset follow from a linear
    least-squares solve, and a damped Gauss-Newton loop moves (f, T2*)
    alone, within f >= 0 and T2* >= span/1e4, from the FFT-peak and
    windowed-RMS-decay seed.  It halves each step until the cost falls,
    and stops when the relative step is below 1e-10 or the cost falls by
    less than 1e-12 of itself.  The covariance comes from the full
    five-parameter Jacobian at the solution, scaled by the reduced
    chi-square (per-point sigmas are used as weights when present).

    Raises InsufficientSpanError for short/degenerate data and
    FitConvergenceError if the loop has not stopped after
    MAX_FIT_ITERATIONS steps.
    """
    taus = series.taus
    values = series.values
    if len(taus) < 8:
        raise InsufficientSpanError("need at least 8 points")
    theta0 = np.array(_initial_guess(taus, values))
    if series.sigma is not None and np.all(series.sigma > 0):
        weights = 1.0 / series.sigma
    else:
        weights = np.ones_like(taus)
    lower = np.array([0.0, (taus[-1] - taus[0]) / 1e4])
    xtol, ftol = 1e-10, 1e-12

    proj = _Projection(taus, values, weights, theta0)
    for _ in range(MAX_FIT_ITERATIONS):
        step = -np.linalg.lstsq(proj.jacobian(), proj.residuals, rcond=None)[0]
        while True:
            trial = _Projection(taus, values, weights,
                                np.maximum(proj.theta + step, lower))
            small = np.all(np.abs(trial.theta - proj.theta)
                           <= xtol * (np.abs(proj.theta) + xtol))
            if trial.cost < proj.cost or small:
                break
            step = step / 2.0
        gain = proj.cost - trial.cost
        if gain > 0:
            proj = trial
        if small or gain <= ftol * proj.cost:
            break
    else:
        raise FitConvergenceError(
            f"fringe fit did not converge in {MAX_FIT_ITERATIONS} iterations")

    (a1, a2, offset), (f, t2) = proj.coef, proj.theta
    a = math.hypot(a1, a2)
    phi = math.atan2(a2, a1) % (2.0 * math.pi)
    env_sin, env_cos, weight = proj.basis.T
    d_f, d_t2 = proj.derivatives().T
    jac = np.column_stack([math.cos(phi) * env_sin + math.sin(phi) * env_cos,
                           d_f, a1 * env_cos - a2 * env_sin, d_t2, weight])
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jac.T @ jac)
    dof = max(len(taus) - 5, 1)
    cov = cov * (proj.cost / dof)
    res_unweighted = _decaying_sine(taus, a, f, phi, t2, offset) - values
    return FringeFit(A=float(a), f=float(f), phi=float(phi), T2star=float(t2),
                     offset=float(offset), covariance=cov,
                     residual_rms=float(np.sqrt(np.mean(res_unweighted ** 2))))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibration_from_fringes(fit, tau_wp: float) -> float:
    """alpha = 4*pi*tau_wp*A_wp per Hz, from the fringe amplitude near tau_wp.

    Accepts a FringeFit (the fitted envelope supplies A_wp and the fringe
    phase supplies the slope sign; warns if tau_wp is off a zero crossing
    by |sin| > 0.1) or a bare local amplitude (used as-is, positive slope).
    """
    if tau_wp <= 0:
        raise ValueError("tau_wp must be > 0")
    if isinstance(fit, FringeFit):
        a_wp = fit.amplitude_at(tau_wp)
        arg = 2.0 * math.pi * fit.f * tau_wp + fit.phi
        if abs(math.sin(arg)) > 0.1:
            warnings.warn(
                f"tau_wp={tau_wp:.6g} s is off the fringe zero crossing "
                f"(|sin| = {abs(math.sin(arg)):.3f}); alpha is biased low. "
                f"default_config() and load_config() snap tau_wp to a null; a "
                f"hand-built SequenceConfig keeps its tau_wp: use "
                f"snap_to_cos_null(tau_wp, {abs(fit.f):.6g})",
                WorkingPointWarning,
                stacklevel=2,
            )
        sign = 1.0 if math.cos(arg) >= 0 else -1.0
    else:
        a_wp = float(fit)
        sign = 1.0
    return sign * 4.0 * math.pi * tau_wp * a_wp


def calibration_from_slope(ds_dtau: float, tau_wp: float,
                           f_dq: float) -> float:
    """alpha = 2 * (tau_wp / f_DQ) * dS/dtau per Hz, with dS/dtau measured
    at the working point."""
    if tau_wp <= 0 or f_dq <= 0:
        raise ValueError("tau_wp and f_dq must be > 0")
    return 2.0 * (tau_wp / f_dq) * ds_dtau


def calibration_from_sweep(nu, signal) -> tuple[float, float, float]:
    """(alpha per Hz, its standard error, intercept): the least-squares
    line of the working-point signal against known rotation rates nu
    (Hz), as a rate-table sweep measures it; ValueError if nu has no spread."""
    nu, signal = np.asarray(nu, dtype=float), np.asarray(signal, dtype=float)
    dev = nu - np.mean(nu)
    if not np.sum(dev**2) > 0:
        raise ValueError("the rates nu have no spread: the slope is undefined")
    slope = float(np.sum(dev * (signal - np.mean(signal))) / np.sum(dev**2))
    intercept = float(np.mean(signal) - slope * np.mean(nu))
    resid = signal - (slope * nu + intercept)
    stderr = float(np.sqrt(np.sum(resid**2) / max(len(signal) - 2, 1)
                           / np.sum(dev**2)))
    return slope, stderr, intercept


def rotation_from_signal(signal, alpha_per_hz: float, baseline: float,
                         out=None):
    """Calibrated rotation rate nu_hat = (S - baseline) / alpha, in Hz.

    out, a float array shaped like signal (which may be signal itself),
    receives the result in place of a new array.
    """
    if alpha_per_hz == 0:
        raise ValueError("alpha must be nonzero")
    out = np.subtract(signal, baseline, out=out, dtype=float)
    out /= alpha_per_hz
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Allan deviation
# ---------------------------------------------------------------------------

@dataclass
class AllanSeries:
    """Overlapping Allan deviation vs averaging time, with estimate counts."""

    tau_avg: np.ndarray
    adev: np.ndarray
    n_samples: np.ndarray

    def __post_init__(self):
        self.tau_avg = np.asarray(self.tau_avg, dtype=float)
        self.adev = np.asarray(self.adev, dtype=float)
        self.n_samples = np.asarray(self.n_samples, dtype=int)
        if not (len(self.tau_avg) == len(self.adev) == len(self.n_samples)):
            raise ValueError("allan series arrays must have equal lengths")
        if len(self.tau_avg) > 1 and np.any(np.diff(self.tau_avg) <= 0):
            raise ValueError("tau_avg must be strictly increasing")


def octave_m_values(n: int) -> list[int]:
    """Octave-spaced averaging factors 1, 2, 4, ... up to n / 4."""
    out = []
    m = 1
    while m <= max(n // 4, 1):
        out.append(m)
        m *= 2
    return out


def allan_deviation(values, tau0: float,
                    m_values: list[int] | None = None) -> AllanSeries:
    """Overlapping Allan deviation of a uniformly sampled series.

    values are rate-like samples spaced tau0 seconds; the averaging
    factors, integers m with 1 <= m and 2m <= N, default to octaves up
    to N/4.  Each point reports the number of overlapping second
    differences that entered the estimate.  values is left unchanged:
    the phase series is built in one copy of it.
    """
    return _allan_in_place(np.array(values, dtype=float), tau0, m_values)


#: Fewest samples _allan_in_place accepts (allan --duration is held to it).
ALLAN_MIN_SAMPLES = 32

#: Second differences per leaf of the blocked sum in _allan_in_place: a
#: 128 KiB buffer that stays in cache.
_ALLAN_LEAF = 16_384


def _pairwise_sum(fill, n: int, buf: np.ndarray) -> float:
    """np.sum of the length-n array whose elements [i, j) fill(i, j, out)
    writes into out, without forming it.

    numpy sums a contiguous float64 array along a pairwise tree that
    splits n at n//2 rounded down to a multiple of 8; the subtrees of at
    most len(buf) elements are formed in buf and summed by np.add.reduce,
    so the result is np.sum's, bit for bit.
    """
    def node(start: int, size: int) -> float:
        if size <= len(buf):
            return np.add.reduce(fill(start, start + size, buf[:size]))
        half = size // 2
        half -= half % 8
        return node(start, half) + node(start + half, size - half)

    return float(node(0, n))


def _allan_in_place(y: np.ndarray, tau0: float,
                    m_values: list[int] | None = None) -> AllanSeries:
    """allan_deviation of the float64 rate samples y, overwriting y with
    their phase series.

    The phase series (NIST SP 1065, Sec. 5.2) is x_k = tau0 * sum_{i<k}
    (y_i - mean y) for k = 0..n; the mean is removed first, since Allan
    variance is offset-invariant and the smaller running sum avoids
    cancellation error on long records.  y becomes x_1..x_n in place and
    x_0 = 0 stays implicit.  Each second difference x_{k+2m} - 2 x_{k+m}
    + x_k is formed with the same roundings as the whole-array
    expression, squared and summed leaf by leaf (_pairwise_sum), so no
    run-length difference array exists and the sum is np.sum's.
    """
    if y.ndim != 1:
        raise ValueError("values must be 1-D")
    n = len(y)
    if n < ALLAN_MIN_SAMPLES:
        raise InsufficientSpanError(
            f"need at least {ALLAN_MIN_SAMPLES} samples for Allan analysis")
    if tau0 <= 0:
        raise ValueError("tau0 must be > 0")
    if m_values is None:
        m_values = octave_m_values(n)
    y -= np.mean(y)
    x1 = np.cumsum(y, out=y)  # x_1..x_n: x_k is x1[k - 1]
    x1 *= tau0
    buf = np.empty(min(n, _ALLAN_LEAF))
    taus, adevs, counts = [], [], []
    for m in m_values:
        if not float(m).is_integer():
            raise ValueError(f"averaging factor m={m} must be an integer")
        m = int(m)
        if m < 1 or 2 * m > n:
            raise ValueError(f"averaging factor m={m} needs more than 2m samples")

        def second_differences(i, j, out, m=m):
            # Squared (-2 x_{k+m} + x_{k+2m}) + x_k for k in [i, j);
            # x_0 = 0 enters as + 0.0.
            d = np.multiply(x1[m - 1 + i:m - 1 + j], -2.0, out=out)
            d += x1[2 * m - 1 + i:2 * m - 1 + j]
            if i == 0:
                d[0] += 0.0
                d[1:] += x1[:j - 1]
            else:
                d += x1[i - 1:j - 1]
            d *= d
            return d

        count = n + 1 - 2 * m
        tau = m * tau0
        avar = _pairwise_sum(second_differences, count, buf) / (2.0 * tau * tau * count)
        taus.append(tau)
        adevs.append(math.sqrt(avar))
        counts.append(count)
    return AllanSeries(np.array(taus), np.array(adevs), np.array(counts))


# ---------------------------------------------------------------------------
# Working point, linearity, dynamic range
# ---------------------------------------------------------------------------

def snap_to_cos_null(tau: float, f: float) -> float:
    """Nearest tau' > 0 with cos(2 pi f tau') = 0, i.e. (2n+1)/(4f)."""
    if tau <= 0 or f <= 0:
        raise ValueError("tau and f must be > 0")
    n = max(round((4.0 * f * tau - 1.0) / 2.0), 0)
    return (2.0 * n + 1.0) / (4.0 * f)


@dataclass(frozen=True)
class WorkingPoint:
    tau_optimal: float
    tau_wp: float


def select_working_point(t2star: float, f_dq: float,
                         overhead: float = 0.0) -> WorkingPoint:
    """Sensitivity-optimal delay, then snapped to the nearest cosine null.

    Maximizes tau * exp(-tau/T2*) / sqrt(tau + overhead): the numerator is
    the fringe slope, the root the per-measurement duty cycle.  Setting
    d ln(merit)/d tau = 1/tau - 1/T2* - 1/(2 (tau + overhead)) to zero
    gives the positive root of 2 tau^2 - (T2* - 2 overhead) tau
    - 2 T2* overhead = 0.  With zero overhead the optimum is T2*/2; the
    per-shot slope alone would peak at T2*.  Both the raw optimum and the
    snapped tau_wp are returned.
    """
    if t2star <= 0 or f_dq <= 0 or overhead < 0:
        raise ValueError("t2star, f_dq must be > 0 and overhead >= 0")
    b = t2star - 2.0 * overhead
    tau_opt = (b + math.sqrt(b * b + 16.0 * t2star * overhead)) / 4.0
    return WorkingPoint(tau_optimal=tau_opt,
                        tau_wp=snap_to_cos_null(tau_opt, f_dq))


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


def one_rad_rotation_rate(tau: float) -> float:
    """nu0 = (1/2) * 1/(2 pi tau): rotation rate giving a 1 rad fringe
    phase shift at delay tau (the 1/2 is the DQ factor of two)."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return 1.0 / (4.0 * math.pi * tau)


def dynamic_range(epsilon_tol: float, nu0: float) -> float:
    """Rotation range +-nu_DR (Hz) staying within a linearity tolerance:
    nu_DR = nu0 * sqrt(6*epsilon) (leading sine-expansion term)."""
    if not 0.0 < epsilon_tol < 0.1:
        raise ValueError("epsilon_tol must be in (0, 0.1)")
    if nu0 <= 0:
        raise ValueError("nu0 must be > 0")
    return nu0 * math.sqrt(6.0 * epsilon_tol)
