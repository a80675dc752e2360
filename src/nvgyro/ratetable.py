"""Rotation platform simulator: a perfect-servo rate table and its telemetry.

The table is a perfect servo: it follows its velocity setpoint with a
linear ramp at the configured angular acceleration.  All kinematics are
piecewise linear in rate, so angles integrate exactly (trapezoid rule).
Clockwise rotation is positive.

A program is an ordered list of (duration_s, rate_dps, accel_dps2)
instructions; each applies its setpoint and acceleration at its start
and holds for its duration.  RateTrajectory is the executed program:
built from those rows or from a profile CSV, it evaluates rate, angle
and acceleration at any time (the pulse-sequence stream samples
rate_at) and polls telemetry every DEFAULT_POLL seconds.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, input_error
from .io import _read_text

DEFAULT_RATE_LIMIT = 400.0  # deg/s
DEFAULT_POLL = 30e-3  # s


def _check_row(duration: float, rate: float, accel: float) -> None:
    if not 0.0 < duration < math.inf:
        raise ValueError("instruction duration must be finite and > 0")
    if not 0.0 < accel < math.inf:
        raise ValueError("instruction accel must be finite and > 0")
    if not abs(rate) <= DEFAULT_RATE_LIMIT:
        raise ValueError(f"rate_dps {rate} is outside the "
                         f"+-{DEFAULT_RATE_LIMIT} deg/s table limit")


class RateTrajectory:
    """Closed-form piecewise-linear rate trajectory of an executed program.

    rows are (duration_s, rate_dps, accel_dps2) instructions; a row
    outside the table's limits, or an empty program, is a ValueError.
    The table starts at rest at t = 0 and angle 0.  Exposes vectorized
    rate_at / accel_at / angle_at evaluators; angles are exact integrals
    of the piecewise-linear rate.
    """

    def __init__(self, rows):
        t_edges = [0.0]
        r_edges = [0.0]
        slopes: list[float] = []
        for duration, rate, accel in rows:
            duration, rate, accel = float(duration), float(rate), float(accel)
            _check_row(duration, rate, accel)
            t0, r0 = t_edges[-1], r_edges[-1]
            gap = rate - r0
            t_ramp = abs(gap) / accel
            if 0.0 < t_ramp < duration:
                slopes.append(math.copysign(accel, gap))
                t_edges.append(t0 + t_ramp)
                r_edges.append(rate)
                slopes.append(0.0)
                t_edges.append(t0 + duration)
                r_edges.append(rate)
            elif t_ramp == 0.0:
                slopes.append(0.0)
                t_edges.append(t0 + duration)
                r_edges.append(r0)
            else:
                # Still ramping when the instruction expires.
                slope = math.copysign(accel, gap)
                slopes.append(slope)
                t_edges.append(t0 + duration)
                r_edges.append(r0 + slope * duration)
        if not slopes:
            raise ValueError("profile must contain at least one instruction")
        self._t = np.array(t_edges)
        self._r = np.array(r_edges)
        self._slope = np.array(slopes + [0.0])
        # Cumulative exact angle at segment edges (trapezoid per segment).
        seg_angle = 0.5 * (self._r[:-1] + self._r[1:]) * np.diff(self._t)
        self._angle = np.concatenate([[0.0], np.cumsum(seg_angle)])

    @classmethod
    def from_csv(cls, path) -> "RateTrajectory":
        """Program of a profile CSV with header duration_s,rate_dps,accel_dps2;
        a bad row is a ConfigError naming file:line."""
        path = Path(path)
        reader = csv.reader(_read_text(path, "profile").splitlines())
        header = [h.strip() for h in next(reader, [])]
        if header != ["duration_s", "rate_dps", "accel_dps2"]:
            raise ConfigError(f"{path}: expected header 'duration_s,rate_dps,accel_dps2'")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 columns")
            with input_error(f"{path}:{lineno}: "):
                duration, rate, accel = map(float, row)
                _check_row(duration, rate, accel)
            rows.append((duration, rate, accel))
        if not rows:
            raise ConfigError(f"{path}: profile has no instructions")
        return cls(rows)

    @property
    def t_end(self) -> float:
        return float(self._t[-1])

    def _segment(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self._t[0] - 1e-12) or np.any(t > self._t[-1] + 1e-12):
            raise ValueError("time outside the profile span")
        return np.clip(np.searchsorted(self._t, t, side="right") - 1, 0,
                       len(self._t) - 2), t

    def rate_at(self, t):
        i, t = self._segment(t)
        out = self._r[i] + self._slope[i] * (t - self._t[i])
        return float(out) if out.ndim == 0 else out

    def accel_at(self, t):
        i, t = self._segment(t)
        out = self._slope[i]
        return float(out) if np.ndim(out) == 0 else out

    def angle_at(self, t):
        i, t = self._segment(t)
        dt = t - self._t[i]
        out = self._angle[i] + self._r[i] * dt + 0.5 * self._slope[i] * dt * dt
        return float(out) if out.ndim == 0 else out

    def telemetry(self) -> tuple[np.ndarray, ...]:
        """(t, angle, rate, accel) polled every DEFAULT_POLL seconds from
        t = 0 to the end of the program, the logger's telemetry fields."""
        ts = np.arange(int(math.floor(self.t_end / DEFAULT_POLL)) + 1) * DEFAULT_POLL
        return ts, self.angle_at(ts), self.rate_at(ts), self.accel_at(ts)
