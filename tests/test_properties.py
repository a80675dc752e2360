"""Physics invariants over random inputs.

tests/oracle.py, a one-shot-at-a-time model built from matrix
exponentials that shares no code with the kernel, is the reference for
ramsey_projections, and an environment of arrays must give the stack of
its entries' scalar environments.  Seeded runs must repeat bit for bit,
and the rate table must ramp toward each setpoint without overshoot and
report an angle that is the integral of its rate.  The closed-form working point
must zero the derivative of the merit it maximizes.  The block sizes of
the working-point stream and of the CSV writer must not change a bit of
their output, and the in-place Allan deviation must equal the textbook
expression exactly.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgyro import (
    ABSOLUTE_FRAME,
    LITERATURE_CONSTANTS,
    FieldEnvironment,
    NoiseHooks,
    RateTrajectory,
    RotatingFrame,
    SequenceConfig,
    allan_deviation,
    combine_4ramsey,
    ramsey_projections,
    ramsey_signals,
    run_gyro_stream,
    select_working_point,
)
from nvgyro import io, sequence
from nvgyro.analysis import octave_m_values
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
    got = ramsey_projections(cfg, env.replace(nu=np.array(nu_list)[:, None]), C,
                             np.array(tau_list))
    assert got.shape == (len(nu_list), len(tau_list), 4)
    for i, nu in enumerate(nu_list):
        for k, tau in enumerate(tau_list):
            expected = bright_projections(cfg, env.replace(nu=nu), C, tau)
            np.testing.assert_allclose(got[i, k], expected, rtol=0, atol=TOL)


@settings(max_examples=100, deadline=None)
@given(cfg=sequence_configs(), env=environments(), tau=taus,
       rows=st.lists(st.tuples(nus, st.floats(-20e3, 20e3), st.floats(-1.0, 1.0)),
                     min_size=1, max_size=6))
def test_array_environment_matches_scalar_environments(cfg, env, tau, rows):
    # An environment whose perturbations are equal-length arrays is the
    # stack of the scalar environments of its entries.
    nu, delta_q, delta_b = (np.array(col) for col in zip(*rows))
    got = ramsey_projections(cfg, env.replace(nu=nu, delta_Q=delta_q, delta_B=delta_b),
                             C, tau)
    assert got.shape == (len(rows), 4)
    for i, (v, q, b) in enumerate(rows):
        expected = ramsey_projections(cfg, env.replace(nu=v, delta_Q=q, delta_B=b), C, tau)
        np.testing.assert_allclose(got[i], expected, rtol=0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(["nu", "delta_Q", "delta_B"]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_non_finite_array_entry_is_rejected(name, bad, data):
    values = np.array(data.draw(st.lists(nus, min_size=1, max_size=6), label="values"))
    values[data.draw(st.integers(0, len(values) - 1), label="index")] = bad
    with pytest.raises(ValueError, match=name):
        FieldEnvironment(**{name: values})


@settings(max_examples=50, deadline=None)
@given(cfg=sequence_configs(), env=environments(), tau=taus,
       rows=st.lists(st.tuples(nus, st.floats(-20e3, 20e3), st.floats(-1.0, 1.0)),
                     min_size=1, max_size=6))
def test_list_environment_matches_array_environment(cfg, env, tau, rows):
    nu, delta_q, delta_b = (list(col) for col in zip(*rows))
    listed = env.replace(nu=nu, delta_Q=delta_q, delta_B=delta_b)
    assert all(isinstance(getattr(listed, name), np.ndarray)
               for name in ("nu", "delta_Q", "delta_B"))
    arrays = env.replace(nu=np.array(nu), delta_Q=np.array(delta_q),
                         delta_B=np.array(delta_b))
    assert np.array_equal(ramsey_projections(cfg, listed, C, tau),
                          ramsey_projections(cfg, arrays, C, tau))


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
    if rotating:
        t = np.arange(cfg.n_cycles(duration)) * cfg.cycle_period
        env = env.replace(nu=amplitude * np.sin(omega * t))

    def run(s):
        return run_gyro_stream(cfg, env, C, duration, np.random.default_rng(s))

    a, b, c = run(seed), run(seed), run(seed + 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# (duration_s, rate_dps, accel_dps2) program rows.
instructions = st.tuples(
    st.floats(0.01, 20.0),
    st.floats(-400.0, 400.0),
    st.floats(0.5, 100.0),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(instructions, min_size=1, max_size=6))
def test_angle_is_integral_of_rate(rows):
    traj = RateTrajectory(rows)
    t = np.linspace(0.0, traj.t_end, 200_001)
    rate = traj.rate_at(t)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t))])
    angle = traj.angle_at(t) - traj.angle_at(0.0)
    # The trapezoid rule is exact on every grid step except the two or
    # fewer per instruction that hold a change of slope; each of those is
    # off by at most step**2 * |change of slope| / 8.
    h = t[1] - t[0]
    kinks = 2 * len(rows) * h**2 * 2 * max(accel for _, _, accel in rows) / 8
    atol = kinks + 1e-9 * (1.0 + np.max(np.abs(angle)))
    assert np.all(np.abs(angle - integral) <= atol)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(instructions, min_size=1, max_size=6))
def test_rate_ramps_to_each_setpoint_without_overshoot(rows):
    # Within each instruction the rate moves by at most accel*dt, stays
    # between its starting rate and the setpoint, and reaches the
    # setpoint |gap|/accel after the instruction starts.
    traj = RateTrajectory(rows)
    t0 = r0 = 0.0
    for duration, setpoint, accel in rows:
        t = np.linspace(t0, t0 + duration, 101)
        rate = traj.rate_at(t)
        assert np.all(np.abs(np.diff(rate)) <= accel * np.diff(t) + 1e-9)
        lo, hi = sorted((r0, setpoint))
        assert np.all((rate >= lo - 1e-9) & (rate <= hi + 1e-9))
        gap = setpoint - r0
        t_reach = min(abs(gap) / accel, duration)
        assert traj.rate_at(t0 + t_reach) == pytest.approx(
            r0 + math.copysign(accel * t_reach, gap), abs=1e-9)
        t0 += duration
        r0 = traj.rate_at(t0)


@settings(max_examples=200, deadline=None)
@given(t2=st.floats(1e-4, 0.1), ratio=st.floats(0.0, 10.0))
def test_working_point_maximizes_merit(t2, ratio):
    overhead = ratio * t2
    tau = select_working_point(t2, 293.332e3, overhead).tau_optimal

    def merit(x):
        return x * math.exp(-x / t2) / math.sqrt(x + overhead)

    d_log_merit = 1.0 / tau - 1.0 / t2 - 1.0 / (2.0 * (tau + overhead))
    assert abs(d_log_merit) <= 1e-9 / tau
    assert merit(tau) >= merit(tau * (1 + 1e-6))
    assert merit(tau) >= merit(tau * (1 - 1e-6))


@settings(max_examples=60, deadline=None)
@given(cfg=sequence_configs(), env=environments(), seed=seeds,
       noise=st.builds(NoiseHooks, st.floats(1e-7, 1e-4), st.floats(1e-7, 1e-4)),
       data=st.data(), noisy=st.booleans(), rotating=st.booleans())
def test_stream_bytes_do_not_depend_on_block_size(cfg, env, seed, noise, data,
                                                  noisy, rotating):
    cfg = cfg.replace(noise=noise)
    n = data.draw(st.integers(1, 40), label="cycles")
    block = data.draw(st.integers(1, n + 1), label="block")
    duration = (n + 0.5) * cfg.cycle_period
    if rotating:
        t = np.arange(n) * cfg.cycle_period
        env = env.replace(nu=3.0 * np.sin(40.0 * t) + 0.25)

    def run(block_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequence, "_STREAM_BLOCK", block_size)
            return run_gyro_stream(cfg, env, C, duration,
                                   np.random.default_rng(seed) if noisy else None)

    whole, blocked = run(n), run(block)
    assert len(whole) == n
    assert np.array_equal(blocked, whole)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)


def _reference_csv(names, columns) -> str:
    # One row at a time, str for integer columns and repr for floats.
    rows = [",".join(names)]
    for i in range(len(columns[0])):
        rows.append(",".join(str(int(c[i])) if c.dtype.kind == "i"
                             else repr(float(c[i])) for c in columns))
    return "".join(row + "\n" for row in rows)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**62, 2**62), cells, cells),
                     min_size=0, max_size=30),
       block=st.integers(1, 31))
def test_table_bytes_do_not_depend_on_row_block(rows, block):
    names = ["n", "a", "b"]
    columns = [np.array([r[0] for r in rows], dtype=np.int64),
               np.array([r[1] for r in rows], dtype=float),
               np.array([r[2] for r in rows], dtype=float)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_ROW_BLOCK", block)
            io.write_table(path, names, columns)
        blocked = path.read_bytes()
        io.write_table(path, names, columns)
        default = path.read_bytes()
    assert blocked == default
    assert blocked.decode() == _reference_csv(names, columns)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=32, max_size=300),
       tau0=st.floats(1e-4, 10.0))
def test_allan_deviation_matches_textbook_expression(values, tau0):
    y = np.array(values)
    series = allan_deviation(y, tau0)
    x = np.concatenate([[0.0], np.cumsum(y - np.mean(y))]) * tau0
    m_values = octave_m_values(len(y))
    assert len(series.adev) == len(m_values)
    for m, tau, adev, count in zip(m_values, series.tau_avg, series.adev,
                                   series.n_samples):
        d = x[2 * m:] - 2.0 * x[m:-m] + x[: -2 * m]
        assert count == d.size
        assert adev == math.sqrt(np.sum(d * d) / (2.0 * tau * tau * d.size))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(32, 200_000), seed=seeds, data=st.data())
def test_long_allan_deviation_is_the_whole_array_formula_bit_for_bit(n, seed, data):
    # The blocked, in-place estimator against the textbook one, which
    # forms the whole (n + 1) phase series and each whole second
    # difference and sums it with np.sum.
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n) + rng.normal(0.0, 10.0 ** rng.uniform(-3, 3))
    tau0 = 10.0 ** rng.uniform(-4, 1)
    m_values = sorted(data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4),
                                label="m_values"))
    series = allan_deviation(y, tau0, m_values)
    x = np.concatenate([[0.0], np.cumsum(y - np.mean(y))]) * tau0
    for m, adev, count in zip(m_values, series.adev, series.n_samples):
        d = x[2 * m:] - 2.0 * x[m:-m] + x[: -2 * m]
        tau = m * tau0
        assert count == d.size
        assert adev == math.sqrt(np.sum(d * d) / (2.0 * tau * tau * d.size))
