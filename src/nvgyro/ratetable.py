"""Rotation platform simulator: JOG-style setpoint ramps and telemetry.

The table is a perfect servo: it follows its velocity setpoint with a
linear ramp at the configured angular acceleration.  All kinematics are
piecewise linear in rate, so angles integrate exactly (trapezoid rule).
Clockwise rotation is positive.

A profile is an ordered list of (duration, rate_setpoint, accel)
instructions; each instruction applies its setpoint and acceleration at
its start and holds for its duration.  run_profile returns telemetry
polled every 30 ms plus a continuous-time evaluator that the
pulse-sequence stream samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError

DEFAULT_RATE_LIMIT = 400.0  # deg/s
DEFAULT_POLL = 30e-3  # s


@dataclass(frozen=True)
class TableState:
    """Kinematic state: time (s), angle (deg), rate and setpoint (deg/s),
    ramp acceleration magnitude (deg/s^2)."""

    t: float = 0.0
    angle: float = 0.0
    rate: float = 0.0
    rate_setpoint: float = 0.0
    accel: float = 1.8
    rate_limit: float = DEFAULT_RATE_LIMIT

    def __post_init__(self):
        if self.accel <= 0:
            raise ValueError("accel must be > 0")
        if abs(self.rate) > self.rate_limit or abs(self.rate_setpoint) > self.rate_limit:
            raise ValueError("rate exceeds the table limit")

    def replace(self, **kwargs) -> "TableState":
        return replace(self, **kwargs)


def jog(state: TableState, new_setpoint: float,
        accel: float | None = None) -> TableState:
    """JOG command: update the velocity setpoint (and optionally the ramp
    acceleration); subsequent steps ramp the rate linearly toward it."""
    kwargs = {"rate_setpoint": float(new_setpoint)}
    if accel is not None:
        kwargs["accel"] = float(accel)
    return state.replace(**kwargs)


def step(state: TableState, dt: float) -> TableState:
    """Advance by dt: ramp toward the setpoint at +-accel, clamp exactly
    at the setpoint, integrate the angle exactly (trapezoid)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    gap = state.rate_setpoint - state.rate
    if gap == 0.0:
        return state.replace(t=state.t + dt, angle=state.angle + state.rate * dt)
    t_ramp = abs(gap) / state.accel
    if t_ramp >= dt:
        new_rate = state.rate + math.copysign(state.accel * dt, gap)
        angle = state.angle + 0.5 * (state.rate + new_rate) * dt
        return state.replace(t=state.t + dt, angle=angle, rate=new_rate)
    # Ramp completes inside this step: trapezoid up to the clamp, then hold.
    angle = state.angle + 0.5 * (state.rate + state.rate_setpoint) * t_ramp
    angle += state.rate_setpoint * (dt - t_ramp)
    return state.replace(t=state.t + dt, angle=angle, rate=state.rate_setpoint)


@dataclass(frozen=True)
class Instruction:
    duration: float
    rate_setpoint: float
    accel: float

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("instruction duration must be finite and > 0")
        if not 0.0 < self.accel < math.inf:
            raise ValueError("instruction accel must be finite and > 0")


@dataclass(frozen=True)
class RotationProfile:
    """Ordered instruction program for the table."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if not self.instructions:
            raise ValueError("profile must contain at least one instruction")

    @property
    def total_duration(self) -> float:
        return sum(i.duration for i in self.instructions)

    @classmethod
    def from_rows(cls, rows) -> "RotationProfile":
        return cls(tuple(Instruction(*map(float, r)) for r in rows))

    @classmethod
    def from_csv(cls, path) -> "RotationProfile":
        path = Path(path)
        instructions = []
        try:
            fh = path.open(newline="")
        except OSError as exc:
            raise ConfigError(f"cannot read profile {path}: {exc}") from None
        with fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != [
                "duration_s", "rate_dps", "accel_dps2",
            ]:
                raise ConfigError(
                    f"{path}: expected header 'duration_s,rate_dps,accel_dps2'"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != 3:
                    raise ConfigError(f"{path}:{lineno}: expected 3 columns")
                try:
                    ins = Instruction(*(float(cell) for cell in row))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                if not abs(ins.rate_setpoint) <= DEFAULT_RATE_LIMIT:
                    raise ConfigError(
                        f"{path}:{lineno}: rate_dps {ins.rate_setpoint} is "
                        f"outside the +-{DEFAULT_RATE_LIMIT} deg/s table limit"
                    )
                instructions.append(ins)
        if not instructions:
            raise ConfigError(f"{path}: profile has no instructions")
        return cls(tuple(instructions))

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["duration_s", "rate_dps", "accel_dps2"])
            for ins in self.instructions:
                writer.writerow([repr(ins.duration), repr(ins.rate_setpoint),
                                 repr(ins.accel)])


def triangle_profile(amplitude: float = 180.0, accel: float = 1.8,
                     cycles: int = 1) -> RotationProfile:
    """Repeated linear sweep between -amplitude and +amplitude deg/s,
    starting from rest (first leg ramps 0 -> +amplitude)."""
    if amplitude <= 0 or accel <= 0 or cycles < 1:
        raise ValueError("amplitude, accel must be > 0 and cycles >= 1")
    leg = 2.0 * amplitude / accel
    rows = [(amplitude / accel, amplitude, accel)]
    for _ in range(cycles):
        rows.append((leg, -amplitude, accel))
        rows.append((leg, amplitude, accel))
    return RotationProfile.from_rows(rows)


class RateTrajectory:
    """Closed-form piecewise-linear rate trajectory of an executed profile.

    The table starts at rest at t = 0 and angle 0.  Exposes vectorized
    rate_at / accel_at / angle_at evaluators; angles are exact integrals
    of the piecewise-linear rate.
    """

    def __init__(self, profile: RotationProfile):
        t_edges = [0.0]
        r_edges = [0.0]
        slopes: list[float] = []
        for ins in profile.instructions:
            if abs(ins.rate_setpoint) > DEFAULT_RATE_LIMIT:
                raise ValueError("instruction setpoint exceeds the table limit")
            t0, r0 = t_edges[-1], r_edges[-1]
            gap = ins.rate_setpoint - r0
            t_ramp = abs(gap) / ins.accel
            if 0.0 < t_ramp < ins.duration:
                slopes.append(math.copysign(ins.accel, gap))
                t_edges.append(t0 + t_ramp)
                r_edges.append(ins.rate_setpoint)
                slopes.append(0.0)
                t_edges.append(t0 + ins.duration)
                r_edges.append(ins.rate_setpoint)
            elif t_ramp == 0.0:
                slopes.append(0.0)
                t_edges.append(t0 + ins.duration)
                r_edges.append(r0)
            else:
                # Still ramping when the instruction expires.
                slope = math.copysign(ins.accel, gap)
                slopes.append(slope)
                t_edges.append(t0 + ins.duration)
                r_edges.append(r0 + slope * ins.duration)
        self._t = np.array(t_edges)
        self._r = np.array(r_edges)
        self._slope = np.array(slopes + [0.0])
        # Cumulative exact angle at segment edges (trapezoid per segment).
        seg_angle = 0.5 * (self._r[:-1] + self._r[1:]) * np.diff(self._t)
        self._angle = np.concatenate([[0.0], np.cumsum(seg_angle)])

    @property
    def t_end(self) -> float:
        return float(self._t[-1])

    @property
    def total_duration(self) -> float:
        return self.t_end

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


@dataclass
class TableTelemetry:
    """Polled telemetry mirroring the logger fields."""

    t: np.ndarray
    angle: np.ndarray
    rate: np.ndarray
    accel: np.ndarray


def run_profile(profile: RotationProfile) -> tuple[TableTelemetry, RateTrajectory]:
    """Execute the instruction list; emit telemetry every DEFAULT_POLL
    seconds and return the continuous-time trajectory evaluator."""
    traj = RateTrajectory(profile)
    n = int(math.floor(traj.t_end / DEFAULT_POLL)) + 1
    ts = np.arange(n) * DEFAULT_POLL
    telemetry = TableTelemetry(
        t=ts,
        angle=traj.angle_at(ts),
        rate=traj.rate_at(ts),
        accel=traj.accel_at(ts),
    )
    return telemetry, traj
