"""Physics invariants over random inputs.

tests/oracle.py, a one-shot-at-a-time model built from matrix
exponentials that shares no code with the kernel, is the reference for
ramsey_projections.  Seeded runs must repeat bit for bit, and the rate
table must ramp toward each setpoint without overshoot and report an
angle that is the integral of its rate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgyro import (
    ABSOLUTE_FRAME,
    LITERATURE_CONSTANTS,
    FieldEnvironment,
    Instruction,
    NoiseHooks,
    RotatingFrame,
    RotationProfile,
    RateTrajectory,
    SequenceConfig,
    combine_4ramsey,
    ramsey_projections,
    ramsey_signals,
    run_gyro_stream,
)
from nvgyro.spin import frame_detunings
from oracle import bright_projections

C = LITERATURE_CONSTANTS
TOL = 1e-12

taus = st.floats(0.0, 5e-3)
nus = st.floats(-50.0, 50.0)
phases = st.floats(0.0, 2 * math.pi)
phase_tables = st.tuples(*[st.tuples(phases, phases)] * 4)


@st.composite
def environments(draw):
    return FieldEnvironment(
        B=draw(st.floats(50.0, 900.0)),
        nu=draw(nus),
        delta_Q=draw(st.floats(-20e3, 20e3)),
        delta_B=draw(st.floats(-1.0, 1.0)),
    )


@st.composite
def rf_gradients(draw):
    k = draw(st.integers(1, 3))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    scales = draw(st.lists(st.floats(0.7, 1.3), min_size=k, max_size=k))
    total = sum(weights)
    return tuple((w / total, s) for w, s in zip(weights, scales))


frames = st.one_of(
    st.just(ABSOLUTE_FRAME),
    st.builds(RotatingFrame, st.floats(0.0, 6e6), st.floats(0.0, 6e6)),
)


@st.composite
def sequence_configs(draw, phase_table=phase_tables):
    return SequenceConfig(
        pump_fidelity=draw(st.floats(0.0, 1.0)),
        rf_gradient=draw(rf_gradients()),
        phase_table=draw(phase_table),
        t2_dq=draw(st.floats(0.5e-3, 5e-3)),
        t2_sq=draw(st.one_of(st.none(), st.floats(0.2e-3, 5e-3))),
        frame=draw(frames),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=sequence_configs(), env=environments(),
       tau_list=st.lists(taus, min_size=1, max_size=3),
       nu_list=st.lists(nus, min_size=1, max_size=2))
def test_kernel_matches_density_matrix_oracle(cfg, env, tau_list, nu_list):
    # tau along the last axis, nu along the first: result (n_nu, n_tau, 4)
    got = ramsey_projections(cfg, env, C, np.array(tau_list),
                             np.array(nu_list)[:, None])
    assert got.shape == (len(nu_list), len(tau_list), 4)
    for i, nu in enumerate(nu_list):
        for k, tau in enumerate(tau_list):
            expected = bright_projections(cfg, env.replace(nu=nu), C, tau)
            np.testing.assert_allclose(got[i, k], expected, rtol=0, atol=TOL)


@settings(max_examples=150, deadline=None)
@given(cfg=sequence_configs(), env=environments(),
       tau_list=st.lists(taus, min_size=1, max_size=8))
def test_projections_lie_in_unit_interval(cfg, env, tau_list):
    proj = ramsey_projections(cfg, env, C, np.array(tau_list))
    assert np.all(proj >= -TOL) and np.all(proj <= 1.0 + TOL)


@settings(max_examples=300, deadline=None)
@given(cfg=sequence_configs(phase_table=st.just(SequenceConfig().phase_table)),
       env=environments(), tau_list=st.lists(taus, min_size=1, max_size=8),
       delta_q=st.floats(-20e3, 20e3))
def test_combined_signal_immune_to_quadrupole_shift(cfg, env, tau_list, delta_q):
    # The 4-Ramsey combination cancels every SQ coherence exactly, so a
    # common-mode shift of both carriers leaves R unchanged.  Each tone's
    # phase 2*pi*d*tau is rounded on its own (up to ~1.5e5 rad in the
    # absolute frame), and delta_Q changes that rounding, so the DQ phase
    # they form moves by a few eps times the tone phase.
    shifted = env.replace(delta_Q=delta_q)
    tau = np.array(tau_list)
    r0 = combine_4ramsey(ramsey_projections(cfg, env, C, tau))
    r1 = combine_4ramsey(ramsey_projections(cfg, shifted, C, tau))
    tone_phase = 2 * math.pi * tau * max(
        np.max(np.abs(frame_detunings(e, C, cfg.frame)))
        for e in (env, shifted))
    atol = TOL + 4 * np.finfo(float).eps * tone_phase
    assert np.all(np.abs(r1 - r0) <= atol)


noise_hooks = st.builds(NoiseHooks, st.floats(0.0, 1e-4), st.floats(0.0, 1e-4))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(cfg=sequence_configs(), env=environments(), seed=seeds,
       tau_list=st.lists(taus, min_size=1, max_size=8))
def test_seeded_signals_repeat_bit_for_bit(cfg, env, seed, tau_list):
    tau = np.array(tau_list)
    a = ramsey_signals(cfg, env, C, tau, np.random.default_rng(seed))
    b = ramsey_signals(cfg, env, C, tau, np.random.default_rng(seed))
    c = ramsey_signals(cfg, env, C, tau, np.random.default_rng(seed + 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=50, deadline=None)
@given(cfg=sequence_configs(), env=environments(), seed=seeds,
       noise=noise_hooks, duration=st.floats(7e-3, 0.5),
       amplitude=st.floats(0.0, 1.0), omega=st.floats(0.0, 50.0),
       rotating=st.booleans())
def test_seeded_stream_repeats_bit_for_bit(cfg, env, seed, noise, duration,
                                           amplitude, omega, rotating):
    cfg = cfg.replace(noise=noise)

    def nu_at(t):
        return amplitude * np.sin(omega * t)

    def run(s):
        return run_gyro_stream(cfg, env, C, duration, np.random.default_rng(s),
                               nu_at=nu_at if rotating else None)

    a, b, c = run(seed), run(seed), run(seed + 1)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.S, b.S)
    assert not np.array_equal(a.S, c.S)


instructions = st.builds(
    Instruction,
    duration=st.floats(0.01, 20.0),
    rate_setpoint=st.floats(-400.0, 400.0),
    accel=st.floats(0.5, 100.0),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(instructions, min_size=1, max_size=6))
def test_angle_is_integral_of_rate(rows):
    traj = RateTrajectory(RotationProfile(tuple(rows)))
    t = np.linspace(0.0, traj.t_end, 200_001)
    rate = traj.rate_at(t)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t))])
    angle = traj.angle_at(t) - traj.angle_at(0.0)
    # The trapezoid rule is exact on every grid step except the two or
    # fewer per instruction that hold a change of slope; each of those is
    # off by at most step**2 * |change of slope| / 8.
    h = t[1] - t[0]
    kinks = 2 * len(rows) * h**2 * 2 * max(r.accel for r in rows) / 8
    atol = kinks + 1e-9 * (1.0 + np.max(np.abs(angle)))
    assert np.all(np.abs(angle - integral) <= atol)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(instructions, min_size=1, max_size=6))
def test_rate_ramps_to_each_setpoint_without_overshoot(rows):
    # Within each instruction the rate moves by at most accel*dt, stays
    # between its starting rate and the setpoint, and reaches the
    # setpoint |gap|/accel after the instruction starts.
    traj = RateTrajectory(RotationProfile(tuple(rows)))
    t0 = r0 = 0.0
    for ins in rows:
        t = np.linspace(t0, t0 + ins.duration, 101)
        rate = traj.rate_at(t)
        assert np.all(np.abs(np.diff(rate)) <= ins.accel * np.diff(t) + 1e-9)
        lo, hi = sorted((r0, ins.rate_setpoint))
        assert np.all((rate >= lo - 1e-9) & (rate <= hi + 1e-9))
        gap = ins.rate_setpoint - r0
        t_reach = min(abs(gap) / ins.accel, ins.duration)
        assert traj.rate_at(t0 + t_reach) == pytest.approx(
            r0 + math.copysign(ins.accel * t_reach, gap), abs=1e-9)
        t0 += ins.duration
        r0 = traj.rate_at(t0)
