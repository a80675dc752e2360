"""Fringe fitting, spectra, calibration, Allan deviation, working point,
linearity and dynamic range.

Fringes are modeled as A * exp(-tau/T2*) * sin(2*pi*f*tau + phi) + offset.
The fit is variable-projection least squares in numpy: the model is linear
in (A cos phi, A sin phi, offset), so only (f, T2*) are iterated, seeded
from a zero-padded FFT peak (frequency) and a windowed RMS decay (T2*).
Its linear solves are one thin QR (modified Gram-Schmidt, _thin_qr) per
projection, per Gauss-Newton step and for the covariance, with no LAPACK
call: numpy.linalg is reached only by an exactly singular covariance.
In a fixed cycle the sensitivity-optimal delay is T2*, capped by the cycle.

The calibration coefficient alpha converts the working-point signal to a
rotation rate.  With A_wp the fringe amplitude *in the vicinity of the
working point* (envelope included), alpha = 4*pi*tau_wp*A_wp per Hz of
rotation, read off a fitted fringe; dividing by 360 gives the
per-(deg/s) value.  The tests' oracle holds two references:
calibration_from_amplitude, the same formula for a bare amplitude, and
the slope method alpha = 2*(tau_wp/f_DQ)*dS/dtau, calibration_from_slope,
which is algebraically identical at a fringe zero crossing; a rotation
sweep measures the same number directly.

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

from .errors import FitConvergenceError
from .io import Producer, _producer
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


def _decaying_sine(tau, a, f, phi, t2, offset):
    return a * np.exp(-tau / t2) * np.sin(2.0 * np.pi * f * tau + phi) + offset


def _check_uniform(taus: np.ndarray) -> float:
    dt = np.diff(taus)
    if dt.size == 0:
        raise ValueError("need at least two samples")
    if np.max(np.abs(dt - dt[0])) > 1e-6 * abs(dt[0]):
        raise ValueError("tau grid is not uniform")
    return float(dt[0])


#: power_spectrum's FFT length in record lengths: bins a quarter of a raw bin.
_ZERO_PAD = 4


def power_spectrum(taus, values) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, |FT|^2) of values on the uniform grid taus, mean removed,
    zero-padded _ZERO_PAD times.  Raises ValueError on irregular grids.
    """
    dt = _check_uniform(np.asarray(taus, dtype=float))
    values = np.asarray(values, dtype=float)
    y = values - np.mean(values)
    n_fft = _ZERO_PAD * len(y)
    power = np.abs(np.fft.rfft(y, n=n_fft)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    return freqs, power


def spectrum_peak_frequency(freqs: np.ndarray, power: np.ndarray) -> float:
    """Frequency of the largest non-DC spectral bin."""
    if len(freqs) < 2:
        raise ValueError("spectrum too short for a peak search")
    i = 1 + int(np.argmax(power[1:]))
    return float(freqs[i])


def _initial_guess(taus, values) -> tuple[float, float]:
    """Seed (f, T2*) from the FFT peak and the RMS decay between halves."""
    y = values - np.mean(values)
    if np.max(np.abs(y)) == 0.0:
        raise ValueError("constant series has no fringe to fit")
    freqs, power = power_spectrum(taus, values)
    f0 = spectrum_peak_frequency(freqs, power)
    span = taus[-1] - taus[0]
    if f0 <= 0 or span * f0 < 1.0:
        raise ValueError(
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


def _thin_qr(columns: np.ndarray, rcond: float | None = None):
    """Thin QR of the n x k matrix whose k columns are the rows of columns.

    Modified Gram-Schmidt, each column orthogonalised twice, in numpy
    alone: (q, r) with the matrix = q.T @ r, q's rows orthonormal and r,
    a k x k list of rows, upper triangular.  A column whose pivot r_jj is
    at most rcond times the largest pivot (rcond=None: eps*max(n, k),
    np.linalg.lstsq's rule) is dependent: its column is zeroed and the QR
    made again, so its q row and pivot are 0 and the rest is the QR of
    the other columns.  For k <= 5, r in Python floats takes fewer numpy
    calls than an array would.
    """
    q = np.array(columns, dtype=float)
    k, n = q.shape
    rows = list(q)
    r = [[0.0] * k for _ in range(k)]
    for j, qj in enumerate(rows):
        for _ in range(2):
            for i in range(j):
                c = float(rows[i] @ qj)
                r[i][j] += c
                qj -= c * rows[i]
        r[j][j] = pivot = math.sqrt(qj @ qj)
        if pivot > 0:
            qj /= pivot
    if rcond is None:
        rcond = np.finfo(float).eps * max(n, k)
    pivots = [r[j][j] for j in range(k)]
    tol = rcond * max(pivots)
    if any(0 < p <= tol for p in pivots):
        dependent = np.array(pivots)[:, None] <= tol
        return _thin_qr(np.where(dependent, 0.0, columns), rcond)
    return q, r


def _back_substitute(r, y) -> np.ndarray:
    """x with r @ x = y for upper-triangular r (rows of Python floats, as
    _thin_qr gives it), where x_j = 0 wherever the pivot r_jj is 0.
    With _thin_qr's (q, r) of a matrix M, _back_substitute(r, q @ b) is
    the least-squares solution of M x = b, 0 at each dependent column."""
    y = list(map(float, y))
    x = [0.0] * len(r)
    for j in reversed(range(len(r))):
        if r[j][j] > 0:
            s = y[j]
            for i in range(j + 1, len(r)):
                s -= r[j][i] * x[i]
            x[j] = s / r[j][j]
    return np.array(x)


class _Projection:
    """Variable-projection view of the fringe model at fixed (f, T2*).

    The model is linear in (A cos phi, A sin phi, offset) over the basis
    exp(-tau/T2*) * (sin 2 pi f tau, cos 2 pi f tau, 1), held as rows;
    one thin QR of the basis (_thin_qr) gives those three, and the
    residual left over is a function of theta = (f, T2*) alone.  Basis,
    residuals and derivatives are weighted.
    """

    def __init__(self, taus, values, weights, theta):
        self.taus, self.theta = taus, theta
        f, t2 = theta
        arg = 2.0 * np.pi * f * taus
        env = np.exp(-taus / t2) * weights
        self.basis = np.stack([env * np.sin(arg), env * np.cos(arg), weights])
        self.q, r = _thin_qr(self.basis)
        self.coef = _back_substitute(r, self.q @ (values * weights))
        self.residuals = self.coef @ self.basis - values * weights
        self.cost = float(self.residuals @ self.residuals)

    def derivatives(self) -> np.ndarray:
        """Derivatives of the model in (f, T2*) at the solved coefficients,
        one row each."""
        a1, a2, _ = self.coef
        env_sin, env_cos = self.basis[0], self.basis[1]
        t2 = self.theta[1]
        return np.stack([
            2.0 * np.pi * self.taus * (a1 * env_cos - a2 * env_sin),
            self.taus / t2 / t2 * (a1 * env_sin + a2 * env_cos),
        ])

    def jacobian(self) -> np.ndarray:
        """Kaufman's Jacobian of the residuals in (f, T2*), one row each:
        the derivatives less their part in the span of the basis, d - Q(Q^T d)."""
        return np.stack([d - (self.q @ d) @ self.q for d in self.derivatives()])


def fit_decaying_sine(series: FringeSeries) -> FringeFit:
    """Least-squares fit of a decaying sine to a fringe series.

    Variable projection (Golub & Pereyra, Inverse Problems 19 (2003) R1):
    at each (f, T2*) the amplitude, phase and offset follow from a linear
    least-squares solve, and a damped Gauss-Newton loop moves (f, T2*)
    alone, within f >= 0 and T2* >= span/1e4, from the FFT-peak and
    windowed-RMS-decay seed.  It halves each step until the cost falls,
    and stops when the relative step is below 1e-10 or the cost falls by
    less than 1e-12 of itself.  Every linear solve is a thin QR in numpy
    (_thin_qr), with no LAPACK call.  The covariance comes from the R
    factor of the full five-parameter Jacobian at the solution,
    R^-1 R^-T, scaled by the reduced chi-square (per-point sigmas are
    used as weights when present); only a Jacobian with an exactly zero
    pivot falls back to np.linalg.pinv of J^T J.

    Raises ValueError for short/degenerate data and
    FitConvergenceError if the loop has not stopped after
    MAX_FIT_ITERATIONS steps.
    """
    taus = series.taus
    values = series.values
    if len(taus) < 8:
        raise ValueError("need at least 8 points")
    theta0 = np.array(_initial_guess(taus, values))
    if series.sigma is not None and np.all(series.sigma > 0):
        weights = 1.0 / series.sigma
    else:
        weights = np.ones_like(taus)
    lower = np.array([0.0, (taus[-1] - taus[0]) / 1e4])
    xtol, ftol = 1e-10, 1e-12

    proj = _Projection(taus, values, weights, theta0)
    for _ in range(MAX_FIT_ITERATIONS):
        q, r = _thin_qr(proj.jacobian())
        step = -_back_substitute(r, q @ proj.residuals)
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
    env_sin, env_cos, weight = proj.basis
    d_f, d_t2 = proj.derivatives()
    jac = np.stack([math.cos(phi) * env_sin + math.sin(phi) * env_cos,
                    d_f, a1 * env_cos - a2 * env_sin, d_t2, weight])
    _, r = _thin_qr(jac, rcond=0.0)
    if all(r[j][j] > 0 for j in range(len(r))):
        # row i is R^-1 e_i, column i of R^-1
        r_inv_t = np.array([_back_substitute(r, e) for e in np.eye(len(r))])
        cov = np.einsum("ki,kj->ij", r_inv_t, r_inv_t)
    else:
        cov = np.linalg.pinv(jac @ jac.T)
    dof = max(len(taus) - 5, 1)
    cov = cov * (proj.cost / dof)
    res_unweighted = _decaying_sine(taus, a, f, phi, t2, offset) - values
    return FringeFit(A=float(a), f=float(f), phi=float(phi), T2star=float(t2),
                     offset=float(offset), covariance=cov,
                     residual_rms=float(np.sqrt(np.mean(res_unweighted ** 2))))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibration_from_fringes(fit: FringeFit, tau_wp: float) -> float:
    """alpha = 4*pi*tau_wp*A_wp per Hz, from the fringe amplitude near tau_wp.

    The fitted envelope supplies A_wp and the fringe phase the slope
    sign; warns if tau_wp is off a zero crossing by |sin| > 0.1.
    """
    if tau_wp <= 0:
        raise ValueError("tau_wp must be > 0")
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
    return sign * 4.0 * math.pi * tau_wp * fit.amplitude_at(tau_wp)


def calibration_from_sweep(nu, signal) -> tuple[float, float, float]:
    """(alpha per Hz, its standard error, intercept): the least-squares
    line of the working-point signal against known rotation rates nu
    (Hz), as a rate-table sweep measures it; ValueError if nu has no spread.

    Every sum is the whole-array formula's np.sum, bit for bit, formed
    leaf by leaf (_sum_of), so no run-length temporary exists; nu, like
    the rates of rate_spread and rotation_rms_error, is an array or an
    io.Producer, read one leaf at a time.
    """
    nu, signal = _rates_and_signal(nu, signal)
    n = len(nu)
    (mean_nu, sxx), mean_s = _mean_and_squared_deviation_sum(nu), np.mean(signal)
    if not sxx > 0:
        raise ValueError("the rates nu have no spread: the slope is undefined")

    def cross(i, j, out):  # (nu - mean nu) * (signal - mean signal)
        np.subtract(nu.make(i, j), mean_nu, out=out)
        out *= signal[i:j] - mean_s
        return out

    slope = float(_sum_of(cross, n) / sxx)
    intercept = float(mean_s - slope * mean_nu)

    def residual_squared(i, j, out):  # (signal - (slope * nu + intercept))**2
        np.multiply(nu.make(i, j), slope, out=out)
        out += intercept
        np.subtract(signal[i:j], out, out=out)
        out *= out
        return out

    stderr = math.sqrt(_sum_of(residual_squared, n) / max(n - 2, 1) / sxx)
    return slope, stderr, intercept


def _rates_and_signal(nu, signal) -> tuple[Producer, np.ndarray]:
    """(nu as an io Producer, signal as a float array) for one rate of nu
    per sample of signal; ValueError otherwise."""
    nu, signal = _producer(nu), np.asarray(signal, dtype=float)
    if signal.shape != (len(nu),):
        raise ValueError("nu and signal must have equal lengths")
    return nu, signal


def rate_spread(nu) -> float:
    """np.std(nu) of rates nu, bit for bit, summed leaf by leaf."""
    return math.sqrt(_mean_and_squared_deviation_sum(_producer(nu))[1] / len(nu))


def rotation_rms_error(signal, alpha_per_hz: float, baseline: float, nu) -> float:
    """RMS in Hz of the calibrated rotation estimate of signal against
    the true rates nu: np.sqrt(np.mean((rotation_from_signal(signal,
    alpha_per_hz, baseline) - nu)**2)) bit for bit, summed leaf by leaf;
    ValueError unless nu holds one rate per sample."""
    nu, signal = _rates_and_signal(nu, signal)

    def fill(i, j, out):
        rotation_from_signal(signal[i:j], alpha_per_hz, baseline, out=out)
        out -= nu.make(i, j)
        out *= out
        return out

    return math.sqrt(_sum_of(fill, len(signal)) / len(signal))


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


#: Fewest samples allan_deviation accepts (allan --duration is held to it).
ALLAN_MIN_SAMPLES = 32

#: Second differences per leaf of the blocked sum in allan_deviation: a
#: 512 KiB buffer that stays in a 4 MiB L2 cache.  Fewer, longer leaves
#: take fewer numpy calls; the sum is np.sum's at any leaf size.
_ALLAN_LEAF = 65_536

#: Elements per leaf of the calibration's and the gyro report's sums
#: (_sum_of): a 64 KiB buffer, below malloc's mmap threshold.
_SUM_LEAF = 8192


def _pairwise_sum(fill, n: int, buf: np.ndarray, start: int = 0) -> float:
    """np.sum of the length-n array whose elements [i, j) fill(i, j, out)
    writes into out, without forming it; its elements start at index
    start of fill's.

    numpy sums a contiguous float64 array along a pairwise tree that
    splits n at n//2 rounded down to a multiple of 8; the subtrees of at
    most len(buf) elements are formed in buf and summed by np.add.reduce,
    so the result is np.sum's, bit for bit.  The recursion is this
    function's own, not a nested closure's, which would refer to itself
    and so keep fill, buf and every array fill reads alive until the
    cyclic garbage collector runs.
    """
    if n <= len(buf):
        return float(np.add.reduce(fill(start, start + n, buf[:n])))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(fill, half, buf, start) + _pairwise_sum(fill, n - half, buf, start + half)


def _sum_of(fill, n: int) -> float:
    """_pairwise_sum of fill over n elements, in leaves of _SUM_LEAF."""
    return _pairwise_sum(fill, n, np.empty(min(n, _SUM_LEAF)))


def _mean_and_squared_deviation_sum(x: Producer) -> tuple[float, float]:
    """(np.mean(x), np.sum((x - np.mean(x))**2)) of the column x, as
    float64, bit for bit."""
    mean = _sum_of(lambda i, j, out: np.positive(x.make(i, j), out=out), len(x)) / len(x)

    def fill(i, j, out):
        np.subtract(x.make(i, j), mean, out=out)
        out *= out
        return out

    return mean, _sum_of(fill, len(x))


def allan_deviation(values, tau0: float, m_values: list[int] | None = None, *,
                    overwrite: bool = False) -> AllanSeries:
    """Overlapping Allan deviation of a uniformly sampled series.

    values are rate-like samples spaced tau0 seconds; the averaging
    factors, integers m with 1 <= m and 2m <= N, default to octaves up
    to N/4.  Each point reports the number of overlapping second
    differences that entered the estimate.

    The phase series (NIST SP 1065, Sec. 5.2) is x_k = tau0 * sum_{i<k}
    (y_i - mean y) for k = 0..n; the mean is removed first, since Allan
    variance is offset-invariant and the smaller running sum avoids
    cancellation error on long records.  x_1..x_n are built in one copy
    of values, which is left unchanged, or with overwrite=True in values
    itself when it is a float64 array, so the call holds no copy; x_0 = 0
    stays implicit.  Each second difference x_{k+2m} - 2 x_{k+m}
    + x_k is formed with the same roundings as the whole-array
    expression, squared and summed leaf by leaf (_pairwise_sum), so no
    run-length difference array exists and the sum is np.sum's.
    """
    y = np.asarray(values, dtype=float) if overwrite else np.array(values, dtype=float)
    if y.ndim != 1:
        raise ValueError("values must be 1-D")
    n = len(y)
    if n < ALLAN_MIN_SAMPLES:
        raise ValueError(
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

def _cos_null(n: int, f: float) -> float:
    """The n-th cosine null (2n+1)/(4f) of a fringe at f > 0, with the
    factor 4 applied last: equal bit for bit, and finite where 4 f is not."""
    return (2.0 * n + 1.0) / f / 4.0


def snap_to_cos_null(tau: float, f: float) -> float:
    """Nearest tau' > 0 with cos(2 pi f tau') = 0, i.e. (2n+1)/(4f).

    4 (f tau) equals 4 f tau bit for bit and does not overflow where
    4 f does.
    """
    quarters = 4.0 * (f * tau)
    if not (tau > 0 and f > 0 and quarters < math.inf):
        raise ValueError("tau and f must be > 0, with 4 f tau finite")
    return _cos_null(max(round((quarters - 1.0) / 2.0), 0), f)


@dataclass(frozen=True)
class WorkingPoint:
    tau_optimal: float
    tau_wp: float


def select_working_point(t2star: float, f_dq: float, tau_max: float) -> WorkingPoint:
    """The optimum delay min(T2*, tau_max) in a fixed cycle and the better of the
    two cosine nulls around it: a cycle holds four Ramseys of any delay up to
    tau_max (SequenceConfig.tau_wp_max) at a fixed noise per sample, so the merit
    is the slope tau * exp(-tau/T2*), which rises up to T2* and falls after it.
    The null above the optimum is a candidate only if it is <= tau_max and
    the signal exp(-tau/T2*) there is not 0 (SequenceConfig's rule for
    tau_wp).  ValueError if no null fits."""
    tau_opt = min(t2star, tau_max)
    if not (t2star > 0 and f_dq > 0 and tau_max > 0 and 4.0 * (f_dq * tau_opt) < math.inf):
        raise ValueError("t2star, f_dq must be > 0 and tau_max > 0, with 4 f_dq tau finite")
    # Nulls (2n+1)/(4 f_dq); 4 f_dq tau may round across one, so try n + 1, n, n - 1.
    n = math.floor((4.0 * (f_dq * tau_opt) - 1.0) / 2.0)
    k = next(k for k in (n + 1, n, n - 1) if _cos_null(k, f_dq) <= tau_opt)
    nulls = [t for t in (_cos_null(k, f_dq), _cos_null(k + 1, f_dq))
             if 0 < t <= tau_max and math.exp(-t / t2star) > 0]
    if not nulls:
        raise ValueError(f"no cosine null lies at or below tau_max = {tau_max:g} s with "
                         f"a signal exp(-tau/T2*) > 0: the first, 1/(4 f_dq), is "
                         f"{_cos_null(0, f_dq):g} s")
    tau_wp = max(nulls, key=lambda t: t * math.exp(-t / t2star))
    return WorkingPoint(tau_optimal=tau_opt, tau_wp=tau_wp)


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
