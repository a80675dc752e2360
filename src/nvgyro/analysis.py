"""Fringe fitting, spectra, calibration, Allan deviation, working point,
linearity and dynamic range.

Fringes are modeled as A * exp(-tau/T2*) * sin(2*pi*f*tau + phi) + offset;
the fit is nonlinear least squares seeded from a zero-padded FFT peak
(frequency), windowed RMS decay (amplitude, T2*) and quadrature
projections (phase).

The calibration coefficient alpha converts the working-point signal to a
rotation rate.  With A_wp the fringe amplitude *in the vicinity of the
working point* (envelope included), alpha = 4*pi*tau_wp*A_wp per Hz of
rotation; dividing by 360 gives the per-(deg/s) value.  The slope method
alpha = 2*(tau_wp/f_DQ)*dS/dtau is algebraically identical at a fringe
zero crossing; a rotation sweep measures the same number directly.

All frequencies are Hz internally; degrees appear only through the exact
x360 conversion at I/O boundaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from .errors import (
    FitConvergenceError,
    InsufficientSpanError,
    NonUniformGridError,
)
from .sequence import FringeSeries
from .spin import DEG_PER_REV


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

def _spectrum(taus: np.ndarray, values: np.ndarray,
              zero_pad: int = 4) -> tuple[np.ndarray, np.ndarray]:
    dt = _check_uniform(taus)
    y = values - np.mean(values)
    n_fft = zero_pad * len(y)
    power = np.abs(np.fft.rfft(y, n=n_fft)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    return freqs, power


def power_spectrum(series: FringeSeries,
                   zero_pad: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """|FT|^2 of a uniformly sampled fringe series, mean removed.

    zero_pad multiplies the FFT length for peak localization.  Raises
    NonUniformGridError on irregular grids.
    """
    return _spectrum(series.taus, series.values, zero_pad)


def spectrum_peak_frequency(freqs: np.ndarray, power: np.ndarray) -> float:
    """Frequency of the largest non-DC spectral bin."""
    if len(freqs) < 2:
        raise InsufficientSpanError("spectrum too short for a peak search")
    i = 1 + int(np.argmax(power[1:]))
    return float(freqs[i])


def _initial_guess(taus, values):
    y = values - np.mean(values)
    if np.max(np.abs(y)) == 0.0:
        raise InsufficientSpanError("constant series has no fringe to fit")
    freqs, power = _spectrum(taus, values)
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
    t2_0 = min(max(t2_0, span / 50.0), 100.0 * span)
    a0 = math.sqrt(2.0) * rms1 * math.exp(t1 / t2_0)
    # Quadrature projection for the phase.
    arg = 2.0 * np.pi * f0 * taus
    phi0 = math.atan2(float(np.sum(y * np.cos(arg))), float(np.sum(y * np.sin(arg))))
    return np.array([a0, f0, phi0, t2_0, float(np.mean(values))])


def fit_decaying_sine(series: FringeSeries) -> FringeFit:
    """Least-squares fit of a decaying sine to a fringe series.

    Initialization: FFT peak (f), windowed-RMS decay (A, T2*), quadrature
    projection (phi).  Converges at relative step < 1e-10; the covariance
    comes from the Jacobian at the solution, scaled by the reduced
    chi-square (per-point sigmas are used as weights when present).

    Raises InsufficientSpanError for short/degenerate data and
    FitConvergenceError if the optimizer stalls.
    """
    taus = series.taus
    values = series.values
    if len(taus) < 8:
        raise InsufficientSpanError("need at least 8 points")
    x0 = _initial_guess(taus, values)
    weights = None
    if series.sigma is not None and np.all(series.sigma > 0):
        weights = 1.0 / series.sigma

    def residuals(x):
        r = _decaying_sine(taus, *x) - values
        return r * weights if weights is not None else r

    span = taus[-1] - taus[0]
    lower = [-np.inf, 0.0, -np.inf, span / 1e4, -np.inf]
    upper = [np.inf, np.inf, np.inf, np.inf, np.inf]
    result = least_squares(residuals, x0, bounds=(lower, upper),
                           xtol=1e-10, ftol=1e-12, gtol=1e-14, max_nfev=2000)
    if result.status <= 0:
        raise FitConvergenceError(f"fringe fit did not converge: {result.message}")
    a, f, phi, t2, offset = result.x
    flip = a < 0
    if flip:
        a, phi = -a, phi + math.pi
    phi %= 2.0 * math.pi
    if a == 0.0:
        raise FitConvergenceError("fit collapsed to zero amplitude")

    n, n_par = len(taus), 5
    jac = result.jac
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jac.T @ jac)
    dof = max(n - n_par, 1)
    cov = cov * (2.0 * result.cost / dof)
    if flip:
        sign = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
        cov = sign @ cov @ sign
    res_unweighted = _decaying_sine(taus, a, f, phi, t2, offset) - values
    return FringeFit(A=float(a), f=float(f), phi=float(phi), T2star=float(t2),
                     offset=float(offset), covariance=cov,
                     residual_rms=float(np.sqrt(np.mean(res_unweighted ** 2))))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """Signal-per-rotation-rate coefficient (signed).

    Units follow the fringe amplitude: an amplitude in fractional
    fluorescence gives per_hz in 1/Hz; an amplitude in percent gives
    %/Hz.  per_dps is per_hz / 360 exactly.
    """

    per_hz: float

    @property
    def per_dps(self) -> float:
        return self.per_hz / DEG_PER_REV


def calibration_from_fringes(fit, tau_wp: float) -> Calibration:
    """alpha = 4*pi*tau_wp*A_wp from the fringe amplitude near tau_wp.

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
                f"(|sin| = {abs(math.sin(arg)):.3f}); alpha is biased low",
                WorkingPointWarning,
                stacklevel=2,
            )
        sign = 1.0 if math.cos(arg) >= 0 else -1.0
    else:
        a_wp = float(fit)
        sign = 1.0
    return Calibration(per_hz=sign * 4.0 * math.pi * tau_wp * a_wp)


def calibration_from_slope(ds_dtau: float, tau_wp: float,
                           f_dq: float) -> Calibration:
    """alpha = 2 * (tau_wp / f_DQ) * dS/dtau measured at the working point."""
    if tau_wp <= 0 or f_dq <= 0:
        raise ValueError("tau_wp and f_dq must be > 0")
    return Calibration(per_hz=2.0 * (tau_wp / f_dq) * ds_dtau)


def rotation_from_signal(signal, alpha_per_hz: float, baseline: float):
    """Calibrated rotation rate nu_hat = (S - baseline) / alpha, in Hz."""
    if alpha_per_hz == 0:
        raise ValueError("alpha must be nonzero")
    out = (np.asarray(signal, dtype=float) - baseline) / alpha_per_hz
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

    values are rate-like samples spaced tau0 seconds; averaging factors
    default to octaves up to N/4.  Each point reports the number of
    overlapping second differences that entered the estimate.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError("values must be 1-D")
    n = len(y)
    if n < 32:
        raise InsufficientSpanError("need at least 32 samples for Allan analysis")
    if tau0 <= 0:
        raise ValueError("tau0 must be > 0")
    if m_values is None:
        m_values = octave_m_values(n)
    # Integrated (phase-like) series.  The mean is removed first: Allan
    # variance is offset-invariant, and the smaller running sum avoids
    # cancellation error on long records.
    x = np.concatenate([[0.0], np.cumsum(y - np.mean(y))]) * tau0
    taus, adevs, counts = [], [], []
    for m in m_values:
        m = int(m)
        if m < 1 or 2 * m >= len(x):
            raise ValueError(f"averaging factor m={m} needs more than 2m samples")
        d = x[2 * m:] - 2.0 * x[m:-m] + x[: -2 * m]
        tau = m * tau0
        avar = np.sum(d * d) / (2.0 * tau * tau * d.size)
        taus.append(tau)
        adevs.append(math.sqrt(avar))
        counts.append(d.size)
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
    the fringe slope, the root the per-measurement duty cycle.  With zero
    overhead the optimum is T2*/2; the per-shot slope alone would peak at
    T2*.  Both the raw optimum and the snapped tau_wp are returned.
    """
    if t2star <= 0 or f_dq <= 0 or overhead < 0:
        raise ValueError("t2star, f_dq must be > 0 and overhead >= 0")

    def neg_merit(tau):
        return -tau * math.exp(-tau / t2star) / math.sqrt(tau + overhead)

    res = minimize_scalar(neg_merit, bounds=(1e-9, 20.0 * t2star),
                          method="bounded",
                          options={"xatol": 1e-12 * t2star})
    tau_opt = float(res.x)
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


@dataclass(frozen=True)
class DynamicRange:
    hz: float
    dps: float


def dynamic_range(epsilon_tol: float, nu0: float) -> DynamicRange:
    """Rotation range +-nu_DR staying within a linearity tolerance:
    nu_DR = nu0 * sqrt(6*epsilon) (leading sine-expansion term)."""
    if not 0.0 < epsilon_tol < 0.1:
        raise ValueError("epsilon_tol must be in (0, 0.1)")
    if nu0 <= 0:
        raise ValueError("nu0 must be > 0")
    hz = nu0 * math.sqrt(6.0 * epsilon_tol)
    return DynamicRange(hz=hz, dps=hz * DEG_PER_REV)
