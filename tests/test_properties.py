"""Physics invariants over random inputs.

tests/oracle.py, a one-shot-at-a-time model built from matrix
exponentials that shares no code with the kernel, is the reference for
ramsey_projections, and an environment of arrays must give the stack of
its entries' scalar environments.  Seeded runs must repeat bit for bit,
and the rate table must ramp toward each setpoint without overshoot and
report an angle that is the integral of its rate, and its telemetry
made block by block must be its evaluators on the whole poll grid.  The closed-form working point
must zero the derivative of the merit it maximizes, and `budget`'s
shot-noise sensitivity, taken from the kernel's slope, must be the
paper's closed form (oracle) at a measurement time of cycle_period/4.  The block sizes of
the working-point stream and of the CSV writer must not change a bit of
their output, nor may writing tables together or giving a column or a
per-cycle environment field as a Producer of its blocks; gyro's
blockwise calibration, spread and RMS, of rates given as an array or as
a Producer, must equal the whole-array formulas bit for bit; the
stream's shot noise must be one combined-sample draw per cycle, and the
in-place Allan deviation must equal the textbook expression exactly.  The fringe fit's
thin-QR least squares must agree with np.linalg.lstsq on the
column-equilibrated matrix, and give an exactly zero column coefficient 0.
"""

import math
import tempfile
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgyro import (
    ABSOLUTE_FRAME,
    DetectorConfig,
    FieldEnvironment,
    NoiseHooks,
    PhysicalConstants,
    RateTrajectory,
    RotatingFrame,
    SequenceConfig,
    transition_frequencies,
    allan_deviation,
    combine_4ramsey,
    default_config,
    ramsey_projections,
    ramsey_signals,
    run_gyro_stream,
    snap_to_cos_null,
)
from nvgyro import analysis, io, sequence
from nvgyro.analysis import octave_m_values
from nvgyro.cli import cmd_budget
from nvgyro.ratetable import DEFAULT_POLL
from nvgyro.sequence import combined_sigma
import oracle
from oracle import bright_projections, psn_rotation_sensitivity

C = PhysicalConstants()
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
    # tau along the last axis, nu along the first: result (n_nu, n_tau, 4).
    # The oracle forms the DQ phase from two tone phases 2*pi*d*tau, each
    # rounded on its own (up to ~1.5e5 rad in the absolute frame); the
    # kernel turns the DQ coherence at its own rate, so the two differ by
    # a few eps times the tone phase.
    got = ramsey_projections(cfg, env.replace(nu=np.array(nu_list)[:, None]), C,
                             np.array(tau_list))
    assert got.shape == (len(nu_list), len(tau_list), 4)
    for i, nu in enumerate(nu_list):
        f1, f2 = transition_frequencies(env.replace(nu=nu), C)
        detuning = max(abs(f1 + nu - cfg.frame.f1), abs(f2 - nu - cfg.frame.f2))
        for k, tau in enumerate(tau_list):
            expected = bright_projections(cfg, env.replace(nu=nu), C, tau)
            atol = TOL + 4 * np.finfo(float).eps * 2 * math.pi * tau * detuning
            np.testing.assert_allclose(got[i, k], expected, rtol=0, atol=atol)


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
    # The 4-Ramsey combination cancels every SQ coherence, and delta_Q
    # does not enter the DQ rate, so a common-mode shift of both carriers
    # leaves R unchanged up to the rounding of the SQ terms it cancels.
    shifted = env.replace(delta_Q=delta_q)
    tau = np.array(tau_list)
    r0 = combine_4ramsey(ramsey_projections(cfg, env, C, tau))
    r1 = combine_4ramsey(ramsey_projections(cfg, shifted, C, tau))
    assert np.all(np.abs(r1 - r0) <= 1e-15)


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


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(instructions, min_size=1, max_size=6), data=st.data())
def test_telemetry_blocks_are_the_whole_grid_bit_for_bit(rows, data):
    # The writer makes each telemetry column one block at a time; the
    # blocks joined must be the evaluators on the whole poll grid, also
    # when a block ends at a poll inside a ramp.
    traj = RateTrajectory(rows)
    columns = traj.telemetry()
    n = len(columns[0])
    t = np.arange(n) * DEFAULT_POLL
    cuts = set(data.draw(st.lists(st.integers(0, n), max_size=8)))
    ramp = np.flatnonzero(traj.accel_at(t) != 0.0)
    if len(ramp):
        cuts.add(int(data.draw(st.sampled_from(ramp))))
    edges = sorted(cuts | {0, n})
    whole = [t, traj.angle_at(t), traj.rate_at(t), traj.accel_at(t)]
    for column, expected in zip(columns, whole, strict=True):
        assert len(column) == n
        got = np.concatenate([column.make(a, b) for a, b in zip(edges, edges[1:])])
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(t2=st.floats(1e-4, 0.1), tau_max=st.floats(1e-4, 0.1), f=st.floats(1.0, 1e6))
def test_working_point_maximizes_merit(t2, tau_max, f):
    # A fixed cycle holds four Ramseys of any delay up to its tau_wp_max,
    # so the merit is the slope x*exp(-x/T2*): its maximum over the delays
    # the cycle holds is min(T2*, tau_wp_max).  The working point is the
    # cosine null nearest that optimum among those the cycle holds, which
    # the cycle accepts to the last ulp.  Where T2* >= tau_wp_max it is
    # the null of highest merit; where T2* < tau_wp_max it may be the
    # lesser of the two nulls around T2*, by at most the merit that a
    # null at T2* -/+ s/2 loses, s = 1/(2 f T2*) the spacing in units of T2*.
    seq = SequenceConfig(tau_wp=0.0, cycle_period=4 * (300e-6 + tau_max), t2_dq=t2)
    opt = min(t2, seq.tau_wp_max)
    if 1.0 / f / 4 > seq.tau_wp_max:  # the first null lies past the cycle
        with pytest.raises(ValueError, match="no cosine null"):
            snap_to_cos_null(opt, f, seq.tau_wp_max)
        return
    tau = snap_to_cos_null(opt, f, seq.tau_wp_max)

    def merit(x):
        return x * math.exp(-x / t2)

    assert merit(opt) >= merit(opt * (1 - 1e-6))
    assert opt < t2 or merit(opt) >= merit(opt * (1 + 1e-6))
    odd = round(4 * f * tau)
    assert odd % 2 == 1 and abs(4 * f * tau - odd) <= 1e-9 * odd
    assert 0 < tau <= seq.tau_wp_max
    assert (odd - 2) / f / 4 <= opt < (odd + 2) / f / 4  # a null around the optimum
    spacing = 1.0 / f / 2
    # its neighbours that fit: no nearer, and (merit is unimodal) the one
    # of them around the optimum is the only null that can beat it
    others = [x for x in ((odd - 2) / f / 4, (odd + 2) / f / 4) if 0 < x <= seq.tau_wp_max]
    for other in others:
        assert abs(tau - opt) <= abs(other - opt) + 1e-9 * spacing
    best = max([merit(tau)] + [merit(x) for x in others])
    if t2 >= seq.tau_wp_max:
        assert merit(tau) == best
    else:
        s = spacing / t2
        bound = s**3 / 12 / (1 - s * s / 4) if s < 2 else 1.0
        assert 1 - merit(tau) / best <= bound + 1e-12
    if math.exp(-tau / t2) > 0:
        assert seq.replace(tau_wp=tau).tau_wp == tau
    else:  # a null so far past T2* that no signal is left
        with pytest.raises(ValueError, match="decays to 0"):
            seq.replace(tau_wp=tau)


#: The shortest cycle that holds four Ramseys at the default snapped working
#: point, 4 * (pump_duration + tau_wp).
_DEFAULT_SEQUENCE = default_config().sequence
_SHORTEST_CYCLE = 4 * (_DEFAULT_SEQUENCE.pump_duration + _DEFAULT_SEQUENCE.tau_wp)


@settings(max_examples=100, deadline=None)
@given(detector=st.builds(DetectorConfig, V0=st.floats(1.0, 100.0),
                          G=st.floats(1e4, 1e7), contrast=st.floats(1e-3, 0.5),
                          t_R=st.floats(1e-6, 3e-4), balanced=st.booleans()),
       cycle_period=st.floats(_SHORTEST_CYCLE, 20e-3), fidelity=st.floats(0.05, 1.0),
       short_cycle=st.floats(2e-3, _SHORTEST_CYCLE, exclude_max=True))
def test_budget_sensitivity_is_the_closed_form(detector, cycle_period, fidelity,
                                               short_cycle):
    # Ideal pulses at the default snapped working point: the slope-derived
    # sensitivity is the closed form at t_m = cycle_period/4, and a pump
    # fidelity f scales the slope by f, so the sensitivity by 1/f.  A
    # cycle too short for four Ramseys at that point is rejected.
    cfg = default_config()
    with pytest.raises(ValueError, match="^tau_wp = .*cycle_period"):
        cfg.sequence.replace(cycle_period=short_cycle)
    seq = cfg.sequence.replace(detector=detector, cycle_period=cycle_period)

    def sensitivity(seq):
        outputs, _ = cmd_budget(Namespace(config="<property>", epsilon=1e-4),
                                cfg.replace(sequence=seq))
        return outputs["budget.json"]["sensitivity_hz_per_rt_hz"]

    sens = sensitivity(seq)
    expected = psn_rotation_sensitivity(detector, seq.tau_wp, seq.t2_dq, cycle_period / 4)
    assert sens == pytest.approx(expected, rel=1e-6)
    assert sensitivity(seq.replace(pump_fidelity=fidelity)) == pytest.approx(
        sens / fidelity, rel=1e-6)


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


@settings(max_examples=60, deadline=None)
@given(cfg=sequence_configs(), env=environments(), seed=seeds,
       noise=st.builds(NoiseHooks, st.floats(1e-7, 1e-4), st.floats(1e-7, 1e-4)),
       data=st.data(), noisy=st.booleans(),
       fields=st.sets(st.sampled_from(["nu", "delta_Q", "delta_B"]), min_size=1))
def test_producer_environment_streams_the_bytes_of_arrays(cfg, env, seed, noise, data,
                                                          noisy, fields):
    # A varying field given as an io.Producer of its entries gives the
    # array environment's stream bit for bit, at any stream block, and
    # each Producer is made once per block.
    cfg = cfg.replace(noise=noise)
    n = data.draw(st.integers(1, 40), label="cycles")
    block = data.draw(st.integers(1, n + 1), label="block")
    duration = (n + 0.5) * cfg.cycle_period
    t = np.arange(n) * cfg.cycle_period
    arrays = {"nu": 3.0 * np.sin(40.0 * t) + 0.25, "delta_Q": 5e3 * np.cos(30.0 * t),
              "delta_B": 1e-3 * np.sin(20.0 * t)}
    arrays = {name: arrays[name] for name in fields}
    made = dict.fromkeys(fields, 0)

    def producer(name):
        def make(start, stop):
            made[name] += 1
            return arrays[name][start:stop].copy()
        return io.Producer(n, make)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_STREAM_BLOCK", block)
        streams = [run_gyro_stream(cfg, env.replace(**varying), C, duration,
                                   np.random.default_rng(seed) if noisy else None)
                   for varying in (arrays, {name: producer(name) for name in arrays})]
    assert np.array_equal(*streams)
    assert all(count == -(-n // block) for count in made.values())


@settings(max_examples=60, deadline=None)
@given(cfg=sequence_configs(), env=environments(), seed=seeds,
       duration=st.floats(7e-3, 0.3), data=st.data(), rotating=st.booleans())
def test_stream_shot_noise_is_one_draw_per_cycle(cfg, env, seed, duration, data,
                                                 rotating):
    # The four readouts' shot noise enters R as sigma_S*(n1 - n2 + n3 - n4)/4,
    # which is N(0, combined_sigma): the stream adds rng.normal(0,
    # combined_sigma, n) to its noise-free samples, whatever the block size.
    n = cfg.n_cycles(duration)
    block = data.draw(st.integers(1, n + 1), label="block")
    if rotating:
        t = np.arange(n) * cfg.cycle_period
        env = env.replace(nu=3.0 * np.sin(40.0 * t) + 0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_STREAM_BLOCK", block)
        got = run_gyro_stream(cfg, env, C, duration, np.random.default_rng(seed))
        quiet = run_gyro_stream(cfg, env, C, duration)
    expected = quiet + np.random.default_rng(seed).normal(0.0, combined_sigma(cfg), n)
    assert np.array_equal(got, expected)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
float_cells = st.one_of(cells, st.sampled_from([5e-324, -1e-310, 2.225073858507201e-308]))


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
            mp.setattr(io, "_BLOCK_CELLS", block)
            io.write_tables({path: (names, columns)})
        blocked = path.read_bytes()
        io.write_tables({path: (names, columns)})
        default = path.read_bytes()
    assert blocked == default
    assert blocked.decode() == _reference_csv(names, columns)


@st.composite
def table_groups(draw):
    """{name: (names, columns)}: 1-4 tables over one or two row counts
    (0-40 rows).  Columns are drawn, with repeats, from a pool per row
    count: a float column (signed zeros, nan, inf and subnormals among
    its cells), a copy of it, the same with every zero's sign flipped,
    the int64 column with its bits, and an int64 column."""
    pools = []
    for n in draw(st.lists(st.integers(0, 40), min_size=1, max_size=2, unique=True)):
        x = np.array(draw(st.lists(float_cells, min_size=n, max_size=n)), dtype=float)
        i = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
        pools.append([x, x.copy(), np.where(x == 0.0, -x, x), x.view(np.int64), i])
    tables = {}
    for t in range(draw(st.integers(1, 4))):
        pool = draw(st.sampled_from(pools))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
        tables[f"t{t}.csv"] = ([f"c{j}" for j in range(len(picks))], [pool[j] for j in picks])
    return tables


@settings(max_examples=150, deadline=None)
@given(tables=table_groups(), block=st.integers(1, 64))
def test_grouped_tables_match_each_table_alone(tables, block):
    # write_tables gives each table the bytes it gives that table alone
    # and the row-at-a-time reference's, whatever the tables share and
    # whatever the block size; the kernel sees each column object once
    # per row count, however many tables hold it, and an equal copy as a
    # column of its own.
    seen = []
    cell_words = io._cell_words

    def counted(columns, integer, table):
        seen.append(len(columns) * len(columns[0]))
        return cell_words(columns, integer, table)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_BLOCK_CELLS", block)
            mp.setattr(io, "_cell_words", counted)
            io.write_tables({tmp / name: table for name, table in tables.items()})
        for name, (names, columns) in tables.items():
            together = (tmp / name).read_bytes()
            io.write_tables({tmp / "alone.csv": (names, columns)})
            assert together == (tmp / "alone.csv").read_bytes()
            assert together.decode() == _reference_csv(names, columns)
    distinct: dict[int, set] = {}
    for _, columns in tables.values():
        for c in columns:
            distinct.setdefault(len(c), set()).add(id(c))
    assert sum(seen) == sum(n * len(ids) for n, ids in distinct.items())


@settings(max_examples=100, deadline=None)
@given(tables=table_groups(), blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
       data=st.data())
def test_producer_columns_write_the_bytes_of_arrays(tables, blocks, data):
    # Any column may be a Producer of its slices instead of the array:
    # every table keeps its bytes at each block size (and at the default,
    # larger than any drawn table), and a Producer that several tables
    # hold is made once per block, so once per row in all.
    producers: dict[int, io.Producer] = {}
    made: dict[int, int] = {}

    def producer(a):
        key = id(a)
        if key not in producers:
            def make(start, stop):
                made[key] += stop - start
                return a[start:stop]
            producers[key] = io.Producer(len(a), make)
        return producers[key]

    chosen = {id(c): data.draw(st.booleans(), label="producer")
              for _, columns in tables.values() for c in columns}
    mixed = {name: (names, [producer(c) if chosen[id(c)] else c for c in columns])
             for name, (names, columns) in tables.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        io.write_tables({tmp / f"array-{name}": table for name, table in tables.items()})
        for block in [*blocks, io._BLOCK_CELLS]:
            made.update(dict.fromkeys(producers, 0))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(io, "_BLOCK_CELLS", block)
                io.write_tables({tmp / name: table for name, table in mixed.items()})
            for name in tables:
                assert (tmp / name).read_bytes() == (tmp / f"array-{name}").read_bytes()
            assert all(made[key] == len(p) for key, p in producers.items())


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 2500), seed=seeds, leaf=st.sampled_from([128, 136, 1000, 8192]),
       scale=st.floats(1e-6, 1e3), offset=st.floats(-1e3, 1e3),
       alpha=st.floats(1e-6, 1.0), noise=st.floats(0.0, 1e-2), produced=st.booleans())
def test_blockwise_sums_are_the_whole_array_formulas(n, seed, leaf, scale, offset,
                                                     alpha, noise, produced):
    # gyro's calibration, its np.std gate and its RMS are summed leaf by
    # leaf along np.sum's pairwise tree, so they equal the whole-array
    # formulas (oracle) bit for bit at any leaf size, with the rates as
    # an array or as an io.Producer of copies of its slices, as gyro
    # gives them; numpy sums up to 128 elements without splitting them,
    # the smallest leaf drawn.
    rng = np.random.default_rng(seed)
    nu = offset + scale * np.sin(rng.uniform(0.0, 50.0) * np.linspace(0.0, 1.0, n))
    signal = 0.4 + alpha * nu + rng.normal(0.0, noise, n)
    rates = io.Producer(n, lambda start, stop: nu[start:stop].copy()) if produced else nu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_SUM_LEAF", leaf)
        spread = analysis.rate_spread(rates)
        assert spread == oracle.rate_spread(nu)
        if spread > 0:  # the regression needs a spread of rates
            fit = analysis.calibration_from_sweep(rates, signal)
            assert fit == oracle.calibration_from_sweep(nu, signal)
            slope, _, intercept = fit
            if slope != 0:
                assert (analysis.rotation_rms_error(signal, slope, intercept, rates)
                        == oracle.rotation_rms_error(signal, slope, intercept, nu))
        assert (analysis.rotation_rms_error(signal, alpha, 0.4, rates)
                == oracle.rotation_rms_error(signal, alpha, 0.4, nu))


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


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 5), extra=st.integers(0, 60), seed=seeds, data=st.data())
def test_thin_qr_least_squares_matches_lstsq(k, extra, seed, data):
    # The fringe fit's solves (analysis._thin_qr, then _back_substitute)
    # against np.linalg.lstsq on columns scaled over twelve decades.
    # lstsq's SVD is not column-scale invariant, so the oracle solves the
    # equilibrated matrix, and the two are compared normwise in its units.
    # An exactly zero column is dependent: its coefficient is 0 and the
    # others solve the remaining columns.
    n = 3 * k + 5 + extra
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-6.0, 6.0, k)
    b = rng.normal(size=n)
    zero = data.draw(st.none() | st.integers(0, k - 1), label="zero column")
    if zero is not None:
        a[:, zero] = 0.0
    keep = [j for j in range(k) if j != zero]
    q, r = analysis._thin_qr(a.T)
    x = analysis._back_substitute(r, q @ b)
    if zero is not None:
        assert x[zero] == 0.0
    if keep:
        norms = np.sqrt(np.sum(a[:, keep] ** 2, axis=0))
        y = np.linalg.lstsq(a[:, keep] / norms, b, rcond=None)[0]
        assert np.linalg.norm(x[keep] * norms - y) <= 1e-10 * np.linalg.norm(y)
