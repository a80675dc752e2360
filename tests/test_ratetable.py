import numpy as np
import pytest

from nvgyro import (
    ConfigError,
    Instruction,
    RateTrajectory,
    RotationProfile,
    TableState,
    jog,
    run_profile,
    step,
    triangle_profile,
)


class TestJog:
    def test_setpoint_equal_to_rate_is_a_noop_ramp(self):
        st = jog(TableState(rate=50.0, accel=1.8), 50.0)
        out = step(st, 1.0)
        assert out.rate == 50.0
        assert out.angle == pytest.approx(50.0, rel=1e-15)

    def test_ramp_zero_to_180_takes_100_seconds(self):
        st = jog(TableState(accel=1.8), 180.0)
        while st.rate < 180.0:
            st = step(st, 0.5)
        # completion is mid-step; analytic ramp time is 180/1.8 = 100 s
        assert st.t - 0.5 < 180.0 / 1.8 <= st.t

    def test_clockwise_positive_sign_convention(self):
        st = jog(TableState(accel=1.8), 10.0)
        st = step(st, 1.0)
        assert st.rate > 0 and st.angle > 0
        st_ccw = step(jog(TableState(accel=1.8), -10.0), 1.0)
        assert st_ccw.rate < 0 and st_ccw.angle < 0

    def test_rate_limit_enforced(self):
        with pytest.raises(ValueError):
            jog(TableState(), 500.0)

    def test_accel_update(self):
        st = jog(TableState(), 10.0, accel=3.6)
        assert st.accel == 3.6


class TestStep:
    def test_constant_rate_integrates_exactly(self):
        st = TableState(rate=25.0, rate_setpoint=25.0, accel=1.8)
        out = step(st, 4.0)
        assert out.angle == pytest.approx(100.0, abs=1e-12)

    def test_ramp_then_hold_kinematics(self):
        # 0 -> v ramp then hold: angle = v^2/(2a) + v*t_hold
        v, a = 90.0, 1.8
        st = jog(TableState(accel=a), v)
        t_ramp = v / a
        st = step(st, t_ramp)
        assert st.rate == pytest.approx(v, abs=1e-12)
        assert st.angle == pytest.approx(v * v / (2 * a), rel=1e-12)
        st = step(st, 10.0)
        assert st.angle == pytest.approx(v * v / (2 * a) + v * 10.0, rel=1e-12)

    def test_large_step_clamps_at_setpoint(self):
        st = jog(TableState(accel=1.8), 9.0)
        out = step(st, 100.0)  # ramp needs only 5 s
        assert out.rate == 9.0
        assert out.angle == pytest.approx(9.0**2 / (2 * 1.8) + 9.0 * 95.0, rel=1e-12)

    def test_never_overshoots_setpoint(self):
        st = jog(TableState(accel=1.8), 37.0)
        prev = st.rate
        for _ in range(3000):
            st = step(st, 0.03)
            assert st.rate <= 37.0 + 1e-12
            assert abs(st.rate - prev) <= 1.8 * 0.03 + 1e-12
            prev = st.rate
        assert st.rate == 37.0

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            step(TableState(), 0.0)


class TestTrajectory:
    def test_angle_is_exact_integral(self):
        prof = RotationProfile.from_rows([(150.0, 180.0, 1.8), (50.0, -90.0, 3.6)])
        traj = RateTrajectory(prof)
        # closed-form checkpoints: end of first ramp (100 s)
        assert traj.rate_at(100.0) == pytest.approx(180.0, abs=1e-12)
        assert traj.angle_at(100.0) == pytest.approx(180.0**2 / (2 * 1.8), abs=1e-9)
        # hold until 150 s
        assert traj.angle_at(150.0) == pytest.approx(9000.0 + 180.0 * 50.0, abs=1e-9)

    def test_matches_step_integrator(self):
        prof = RotationProfile.from_rows([(40.0, 60.0, 1.8), (30.0, -30.0, 2.4)])
        traj = RateTrajectory(prof)
        st = TableState(accel=1.8)
        t = 0.0
        for ins in prof.instructions:
            st = jog(st, ins.rate_setpoint, accel=ins.accel)
            remaining = ins.duration
            while remaining > 0:
                dt = min(0.01, remaining)
                st = step(st, dt)
                remaining -= dt
        assert st.angle == pytest.approx(traj.angle_at(traj.t_end), abs=1e-8)
        assert st.rate == pytest.approx(traj.rate_at(traj.t_end), abs=1e-10)

    def test_unfinished_ramp_carries_into_next_instruction(self):
        prof = RotationProfile.from_rows([(10.0, 180.0, 1.8), (10.0, 0.0, 1.8)])
        traj = RateTrajectory(prof)
        assert traj.rate_at(10.0) == pytest.approx(18.0, abs=1e-12)
        assert traj.rate_at(20.0) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_span_rejected(self):
        traj = RateTrajectory(RotationProfile.from_rows([(10.0, 5.0, 1.8)]))
        with pytest.raises(ValueError):
            traj.rate_at(11.0)


class TestRunProfile:
    def test_empty_hold_profile_zero_rate(self):
        telem, traj = run_profile(RotationProfile.from_rows([(5.0, 0.0, 1.8)]))
        assert np.all(telem.rate == 0.0)
        assert np.all(telem.angle == 0.0)

    def test_poll_spacing_and_monotonicity(self):
        telem, _ = run_profile(RotationProfile.from_rows([(2.0, 10.0, 1.8)]))
        d = np.diff(telem.t)
        assert np.all(d > 0)
        assert np.max(np.abs(d - 30e-3)) < 1e-12

    def test_triangle_sweep_covers_plus_minus_180(self):
        telem, traj = run_profile(triangle_profile(180.0, 1.8, cycles=1))
        # the apex is instantaneous; polled samples are within accel*poll of it
        assert telem.rate.max() == pytest.approx(180.0, abs=1.8 * 30e-3)
        assert telem.rate.min() == pytest.approx(-180.0, abs=1.8 * 30e-3)
        assert traj.rate_at(100.0) == pytest.approx(180.0, abs=1e-9)
        assert traj.rate_at(300.0) == pytest.approx(-180.0, abs=1e-9)

    def test_piecewise_program_reaches_setpoints(self):
        rows = [(30.0, 20.0, 1.8), (40.0, -45.0, 3.0), (25.0, 5.0, 2.5)]
        telem, traj = run_profile(RotationProfile.from_rows(rows))
        t = 0.0
        for dur, sp, acc in rows:
            t += dur
            assert traj.rate_at(t - 1e-9) == pytest.approx(sp, abs=1e-9)

    def test_telemetry_reports_accel(self):
        telem, _ = run_profile(RotationProfile.from_rows([(20.0, 9.0, 1.8)]))
        ramp = telem.t < 5.0 - 1e-9
        assert np.all(telem.accel[ramp] == 1.8)
        assert np.all(telem.accel[~ramp] == 0.0)


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        prof = triangle_profile(180.0, 1.8, cycles=2)
        path = tmp_path / "profile.csv"
        prof.to_csv(path)
        back = RotationProfile.from_csv(path)
        assert back == prof

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ConfigError):
            RotationProfile.from_csv(path)

    def test_bad_cell_diagnostic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("duration_s,rate_dps,accel_dps2\n1.0,x,3.0\n")
        with pytest.raises(ConfigError, match="bad.csv:2"):
            RotationProfile.from_csv(path)

    def test_instruction_validation(self):
        with pytest.raises(ValueError):
            Instruction(0.0, 10.0, 1.8)
        with pytest.raises(ValueError):
            Instruction(1.0, 10.0, 0.0)
