import math
import re
from pathlib import Path

import numpy as np
import pytest

from nvgyro import ConfigError, RateTrajectory

TRIANGLE_CSV = Path(__file__).resolve().parents[1] / "configs" / "triangle_profile.csv"


class TestJog:
    def test_setpoint_equal_to_rate_is_a_noop_ramp(self):
        # reach 50 deg/s, then a 1 s instruction with the same setpoint
        traj = RateTrajectory([(30.0, 50.0, 1.8), (1.0, 50.0, 1.8)])
        assert traj.rate_at(30.0) == 50.0
        assert traj.accel_at(30.5) == 0.0
        assert traj.rate_at(31.0) == 50.0
        assert traj.angle_at(31.0) - traj.angle_at(30.0) == pytest.approx(50.0, rel=1e-15)

    def test_ramp_zero_to_180_takes_100_seconds(self):
        traj = RateTrajectory([(150.0, 180.0, 1.8)])
        t = np.arange(0.0, 150.0, 0.5)
        t_done = t[np.argmax(traj.rate_at(t) >= 180.0)]
        # completion is mid-step; analytic ramp time is 180/1.8 = 100 s
        assert t_done - 0.5 < 180.0 / 1.8 <= t_done

    def test_clockwise_positive_sign_convention(self):
        traj = RateTrajectory([(1.0, 10.0, 1.8)])
        assert traj.rate_at(1.0) > 0 and traj.angle_at(1.0) > 0
        ccw = RateTrajectory([(1.0, -10.0, 1.8)])
        assert ccw.rate_at(1.0) < 0 and ccw.angle_at(1.0) < 0


class TestStep:
    def test_constant_rate_integrates_exactly(self):
        # hold 25 deg/s for 4 s after reaching it
        traj = RateTrajectory([(20.0, 25.0, 1.8), (4.0, 25.0, 1.8)])
        assert traj.angle_at(24.0) - traj.angle_at(20.0) == pytest.approx(100.0, abs=1e-12)

    def test_ramp_then_hold_kinematics(self):
        # 0 -> v ramp then hold: angle = v^2/(2a) + v*t_hold
        v, a = 90.0, 1.8
        t_ramp = v / a
        traj = RateTrajectory([(t_ramp + 10.0, v, a)])
        assert traj.rate_at(t_ramp) == pytest.approx(v, abs=1e-12)
        assert traj.angle_at(t_ramp) == pytest.approx(v * v / (2 * a), rel=1e-12)
        assert traj.angle_at(t_ramp + 10.0) == pytest.approx(
            v * v / (2 * a) + v * 10.0, rel=1e-12)

    def test_large_step_clamps_at_setpoint(self):
        traj = RateTrajectory([(100.0, 9.0, 1.8)])  # ramp needs only 5 s
        assert traj.rate_at(100.0) == 9.0
        assert traj.angle_at(100.0) == pytest.approx(9.0**2 / (2 * 1.8) + 9.0 * 95.0,
                                                     rel=1e-12)

    def test_never_overshoots_setpoint(self):
        _, _, rate, _ = RateTrajectory([(90.0, 37.0, 1.8)]).telemetry()
        assert np.all(rate <= 37.0 + 1e-12)
        assert np.all(np.abs(np.diff(rate)) <= 1.8 * 0.03 + 1e-12)
        assert rate[-1] == 37.0


class TestTrajectory:
    def test_angle_is_exact_integral(self):
        traj = RateTrajectory([(150.0, 180.0, 1.8), (50.0, -90.0, 3.6)])
        # closed-form checkpoints: end of first ramp (100 s)
        assert traj.rate_at(100.0) == pytest.approx(180.0, abs=1e-12)
        assert traj.angle_at(100.0) == pytest.approx(180.0**2 / (2 * 1.8), abs=1e-9)
        # hold until 150 s
        assert traj.angle_at(150.0) == pytest.approx(9000.0 + 180.0 * 50.0, abs=1e-9)

    def test_unfinished_ramp_carries_into_next_instruction(self):
        traj = RateTrajectory([(10.0, 180.0, 1.8), (10.0, 0.0, 1.8)])
        assert traj.rate_at(10.0) == pytest.approx(18.0, abs=1e-12)
        assert traj.rate_at(20.0) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_span_rejected(self):
        traj = RateTrajectory([(10.0, 5.0, 1.8)])
        with pytest.raises(ValueError):
            traj.rate_at(11.0)


class TestRunProfile:
    def test_empty_hold_profile_zero_rate(self):
        _, angle, rate, _ = RateTrajectory([(5.0, 0.0, 1.8)]).telemetry()
        assert np.all(rate == 0.0)
        assert np.all(angle == 0.0)

    def test_poll_spacing_and_monotonicity(self):
        t, _, _, _ = RateTrajectory([(2.0, 10.0, 1.8)]).telemetry()
        d = np.diff(t)
        assert np.all(d > 0)
        assert np.max(np.abs(d - 30e-3)) < 1e-12

    def test_triangle_sweep_covers_plus_minus_180(self):
        traj = RateTrajectory.from_csv(TRIANGLE_CSV)
        _, _, rate, _ = traj.telemetry()
        # the apex is instantaneous; polled samples are within accel*poll of it
        assert rate.max() == pytest.approx(180.0, abs=1.8 * 30e-3)
        assert rate.min() == pytest.approx(-180.0, abs=1.8 * 30e-3)
        assert traj.rate_at(100.0) == pytest.approx(180.0, abs=1e-9)
        assert traj.rate_at(300.0) == pytest.approx(-180.0, abs=1e-9)

    def test_piecewise_program_reaches_setpoints(self):
        rows = [(30.0, 20.0, 1.8), (40.0, -45.0, 3.0), (25.0, 5.0, 2.5)]
        traj = RateTrajectory(rows)
        t = 0.0
        for dur, sp, acc in rows:
            t += dur
            assert traj.rate_at(t - 1e-9) == pytest.approx(sp, abs=1e-9)

    def test_telemetry_reports_accel(self):
        t, _, _, accel = RateTrajectory([(20.0, 9.0, 1.8)]).telemetry()
        ramp = t < 5.0 - 1e-9
        assert np.all(accel[ramp] == 1.8)
        assert np.all(accel[~ramp] == 0.0)

    def test_telemetry_samples_the_trajectory(self):
        # polls from 0 to the end of the program, each field its evaluator's
        traj = RateTrajectory([(10.0, 5.0, 1.8), (4.51, -3.0, 2.0)])
        t, angle, rate, accel = traj.telemetry()
        assert len(t) == int(14.51 / 30e-3) + 1 and t[-1] <= traj.t_end
        assert np.array_equal(angle, traj.angle_at(t))
        assert np.array_equal(rate, traj.rate_at(t))
        assert np.array_equal(accel, traj.accel_at(t))


# Each bad row and the message it is rejected with.
BAD_ROWS = [
    ((0.0, 10.0, 1.8), "instruction duration must be finite and > 0"),
    ((math.nan, 10.0, 1.8), "instruction duration must be finite and > 0"),
    ((1.0, 10.0, 0.0), "instruction accel must be finite and > 0"),
    ((1.0, 10.0, math.inf), "instruction accel must be finite and > 0"),
    ((1.0, 500.0, 1.8), "rate_dps 500.0 is outside the +-400.0 deg/s table limit"),
]


class TestProfileCsv:
    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ConfigError, match="expected header"):
            RateTrajectory.from_csv(path)

    def test_bad_cell_diagnostic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("duration_s,rate_dps,accel_dps2\n1.0,x,3.0\n")
        with pytest.raises(ConfigError, match="bad.csv:2"):
            RateTrajectory.from_csv(path)

    def test_column_count_diagnostic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("duration_s,rate_dps,accel_dps2\n1.0,2.0,3.0\n\n1.0,2.0\n")
        with pytest.raises(ConfigError, match=r"bad\.csv:4: expected 3 columns$"):
            RateTrajectory.from_csv(path)

    def test_instruction_validation(self):
        for row, message in BAD_ROWS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RateTrajectory([(5.0, 10.0, 1.8), row])

    def test_csv_row_validation_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row, message in BAD_ROWS:
            path.write_text("duration_s,rate_dps,accel_dps2\n5.0,10.0,1.8\n"
                            + ",".join(map(str, row)) + "\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
                RateTrajectory.from_csv(path)

    def test_empty_program_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^profile must contain at least one instruction$"):
            RateTrajectory([])
        path = tmp_path / "empty.csv"
        path.write_text("duration_s,rate_dps,accel_dps2\n\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: profile has no instructions$"):
            RateTrajectory.from_csv(path)

    @pytest.mark.parametrize("rate", [500.0, -400.5, float("nan")])
    def test_setpoint_outside_table_limit_rejected(self, rate):
        # the +-400 deg/s limit holds for every program, not only a CSV one
        with pytest.raises(ValueError, match="table limit"):
            RateTrajectory([(10.0, rate, 1.8)])
