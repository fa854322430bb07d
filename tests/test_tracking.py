import math

import numpy as np
import pytest

from conftest import camera_pose, make_detection, synthetic_detections
from tanklab.frames import rot_x, rot_z
from tanklab.tracking import (
    EmptyInput,
    DetectionSegment,
    NonMonotoneTimestamps,
    PipelineConfig,
    SegmentTooShort,
    TrackingError,
    WindowTooLarge,
    finite_difference,
    moving_average,
    read_detections_csv,
    read_states_csv,
    resample_uniform,
    run_pipeline,
    run_pipeline_detailed,
    segment_stream,
    unwrap_angles,
    write_detections_csv,
    write_states_csv,
)


class TestUnwrap:
    def test_passthrough(self):
        np.testing.assert_allclose(unwrap_angles([0.0, 0.1, 0.2]), [0.0, 0.1, 0.2])

    def test_removes_jump(self):
        series = [3.1, -3.1]
        out = unwrap_angles(series)
        assert out[1] == pytest.approx(2 * math.pi - 3.1, abs=1e-12)
        assert abs(out[1] - out[0]) < math.pi

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            unwrap_angles([])


class TestFiniteDifference:
    def test_linear_exact(self):
        t = np.arange(10) * 0.1
        d = finite_difference(3.0 * t + 1.0, 0.1)
        np.testing.assert_allclose(d, 3.0, atol=1e-12)

    def test_quadratic_interior_exact(self):
        # central differences are exact for quadratics in the interior
        t = np.arange(20) * 0.05
        d = finite_difference(t**2, 0.05)
        np.testing.assert_allclose(d[1:-1], 2.0 * t[1:-1], atol=1e-12)

    def test_too_short(self):
        with pytest.raises(SegmentTooShort):
            finite_difference([1.0], 0.1)


class TestMovingAverage:
    def test_constant(self):
        np.testing.assert_allclose(moving_average(np.full(20, 2.5), 12), 2.5)

    def test_window_one_identity(self):
        x = np.array([1.0, -2.0, 3.5])
        np.testing.assert_allclose(moving_average(x, 1), x)

    def test_trailing_window_values(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = moving_average(x, 3)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.0, 3.0, 4.0])

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=100)
        out = moving_average(x, 12)
        for i in range(len(x)):
            lo = max(0, i - 11)
            assert out[i] == pytest.approx(np.mean(x[lo : i + 1]), abs=1e-12)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            moving_average([1.0, 2.0], 3)

    def test_bad_window(self):
        with pytest.raises(TrackingError):
            moving_average([1.0, 2.0], 0)


class TestResample:
    def test_exact_grid_spacing(self):
        t = np.array([0.0, 0.4, 1.0])
        grid, vals = resample_uniform(t, [0.0, 0.4, 1.0], 30.0)
        assert grid[0] == 0.0
        np.testing.assert_allclose(np.diff(grid), 1.0 / 30.0, atol=1e-15)
        assert grid[-1] <= 1.0 + 1e-12
        assert len(grid) == 31
        np.testing.assert_allclose(vals, grid, atol=1e-12)

    def test_linear_interpolation(self):
        grid, vals = resample_uniform([0.0, 1.0], [2.0, 4.0], 10.0)
        np.testing.assert_allclose(vals, 2.0 + 2.0 * grid, atol=1e-12)

    def test_jittered_input_times(self, rng):
        t = np.sort(rng.uniform(0, 2, 80))
        t[0], t[-1] = 0.0, 2.0
        grid, vals = resample_uniform(t, 5.0 * t, 30.0)
        assert len(grid) == 61
        np.testing.assert_allclose(vals, 5.0 * grid, atol=1e-9)

    def test_non_monotone(self):
        with pytest.raises(NonMonotoneTimestamps):
            resample_uniform([0.0, 0.5, 0.5], [1, 2, 3], 30.0)


class TestSegmentStream:
    def test_single_segment(self):
        dets = [make_detection(i / 30, [i * 0.01, 0, 2.4], np.eye(3)) for i in range(30)]
        segs = segment_stream(dets)
        assert len(segs) == 1
        assert len(segs[0]) == 30

    def test_split_on_gap(self):
        dets = [make_detection(t, [t, 0, 2.4], np.eye(3))
                for t in [0.0, 0.05, 0.1, 0.5, 0.55, 0.6]]
        segs = segment_stream(dets)
        assert [len(s) for s in segs] == [3, 3]

    def test_drops_short_runs(self):
        dets = [make_detection(t, [t, 0, 2.4], np.eye(3))
                for t in [0.0, 0.05, 1.0, 2.0, 2.05]]
        segs = segment_stream(dets)
        assert [len(s) for s in segs] == [2, 2]

    def test_rejects_spurious_z(self):
        dets = [make_detection(i / 30, [i * 0.01, 0, 2.4], np.eye(3)) for i in range(20)]
        bad = make_detection(10.5 / 30, [0.105, 0, 2.6], np.eye(3))
        mixed = sorted(dets + [bad], key=lambda d: d.timestamp)
        segs = segment_stream(mixed)
        assert len(segs) == 1
        assert len(segs[0]) == 20
        assert all(abs(d.pose.translation[2] - 2.4) < 0.01 for d in segs[0].detections)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            segment_stream([])

    def test_unsorted_raises(self):
        dets = [make_detection(1.0, [0, 0, 2.4], np.eye(3)),
                make_detection(0.5, [0, 0, 2.4], np.eye(3))]
        with pytest.raises(TrackingError):
            segment_stream(dets)


def line_traj(speed=0.4, psi=0.0):
    def traj(t):
        return 1.0 + speed * t * math.cos(psi), 1.0 + speed * t * math.sin(psi), psi
    return traj


class TestPipeline:
    def test_straight_line_velocities(self):
        # tiny lateral wiggle keeps the plane fit well-posed without
        # contributing meaningful sway
        speed, psi = 0.4, 0.6

        def traj(t):
            x0, y0, p = line_traj(speed, psi)(t)
            return x0 - 0.001 * math.sin(8 * t) * math.sin(p), \
                   y0 + 0.001 * math.sin(8 * t) * math.cos(p), p

        times = np.arange(0, 4.0, 1 / 30)
        dets = synthetic_detections(times, traj)
        states = run_pipeline(DetectionSegment(tuple(dets)))
        mid = states[len(states) // 3 : -len(states) // 3]
        for s in mid:
            assert s.u == pytest.approx(speed, abs=0.01)
            assert abs(s.v) < 0.005
            assert abs(s.r) < 0.02

    def test_first_sample_at_origin(self):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states = run_pipeline(DetectionSegment(tuple(dets)))
        assert states[0].timestamp == pytest.approx(times[0], abs=1e-12)
        assert states[0].x == pytest.approx(0.0, abs=1e-12)
        assert states[0].y == pytest.approx(0.0, abs=1e-12)

    def test_tilt_invariant_speed(self):
        # same trajectory seen by a level and a tilted camera: the plane fit
        # must make the recovered speed agree
        times = np.arange(0, 4.0, 1 / 30)

        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.05 * math.sin(2 * t), 0.0

        level = synthetic_detections(times, traj, camera_pose(tilt_x=0.0))
        tilted = synthetic_detections(times, traj, camera_pose(tilt_x=math.radians(4.0)))
        s_level = run_pipeline(DetectionSegment(tuple(level)))
        s_tilt = run_pipeline(DetectionSegment(tuple(tilted)))
        for a, b in zip(s_level, s_tilt):
            assert math.hypot(a.u, a.v) == pytest.approx(math.hypot(b.u, b.v), abs=1e-6)

    def test_turning_yaw_rate(self):
        # constant-rate turn: r must match the commanded yaw rate mid-segment
        omega, radius = 0.25, 1.5

        def traj(t):
            return (2.0 + radius * math.sin(omega * t),
                    2.0 - radius * math.cos(omega * t),
                    omega * t)

        times = np.arange(0, 10.0, 1 / 30)
        dets = synthetic_detections(times, traj)
        states = run_pipeline(DetectionSegment(tuple(dets)))
        mid = states[len(states) // 3 : -len(states) // 3]
        for s in mid:
            assert abs(abs(s.r) - omega) < 0.01
            assert abs(s.u) == pytest.approx(omega * radius, abs=0.01)

    def test_stationary_stream_zero_velocity(self):
        dets = [make_detection(i / 30, [0.5, 0.5, 2.4], rot_z(0.3)) for i in range(40)]
        states = run_pipeline(DetectionSegment(tuple(dets)))
        for s in states:
            assert abs(s.u) < 1e-9 and abs(s.v) < 1e-9 and abs(s.r) < 1e-9

    def test_diagnostics_plane_matches_tilt(self):
        tilt = math.radians(3.0)
        times = np.arange(0, 4.0, 1 / 30)

        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.05 * math.sin(2 * t), 0.0

        dets = synthetic_detections(times, traj, camera_pose(tilt_x=tilt))
        _, diag = run_pipeline_detailed(DetectionSegment(tuple(dets)))
        normal = diag.plane.normal / np.linalg.norm(diag.plane.normal)
        angle = math.acos(abs(normal[2]))
        assert angle == pytest.approx(tilt, abs=1e-9)
        assert diag.first_timestamp == times[0]

    def test_segment_too_short(self):
        dets = [make_detection(i / 30, [i * 0.01, 0, 2.4], np.eye(3)) for i in range(10)]
        with pytest.raises(SegmentTooShort):
            run_pipeline(DetectionSegment(tuple(dets)))

    def test_psi_wrapped(self):
        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.02 * math.sin(3 * t), 0.5 * t

        times = np.arange(0, 12.0, 1 / 30)
        dets = synthetic_detections(times, traj)
        states = run_pipeline(DetectionSegment(tuple(dets)))
        assert all(-math.pi < s.psi <= math.pi for s in states)


class TestCsvRoundTrip:
    def test_detections(self, tmp_path, rng):
        dets = [
            make_detection(i / 30 + rng.normal(0, 1e-4), rng.normal(size=3),
                           rot_z(rng.uniform(-3, 3)) @ rot_x(0.05), tag_id=3)
            for i in range(10)
        ]
        path = tmp_path / "d.csv"
        write_detections_csv(path, dets)
        back = read_detections_csv(path)
        assert len(back) == len(dets)
        for a, b in zip(dets, back):
            assert b.timestamp == pytest.approx(a.timestamp, abs=1e-10)
            assert b.tag_id == a.tag_id
            np.testing.assert_allclose(b.pose.translation, a.pose.translation, atol=1e-10)
            np.testing.assert_allclose(b.pose.rotation, a.pose.rotation, atol=1e-10)

    def test_states(self, tmp_path):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states = run_pipeline(DetectionSegment(tuple(dets)))
        path = tmp_path / "s.csv"
        write_states_csv(path, states)
        back = read_states_csv(path)
        for a, b in zip(states, back):
            assert b.timestamp == pytest.approx(a.timestamp, abs=1e-10)
            assert b.u == pytest.approx(a.u, abs=1e-10)

    def test_states_byte_stable(self, tmp_path):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states = run_pipeline(DetectionSegment(tuple(dets)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_states_csv(p1, states)
        write_states_csv(p2, states)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(TrackingError):
            read_states_csv(path)


def test_config_validation():
    with pytest.raises(TrackingError):
        PipelineConfig(smoothing_window=0).validate()
    with pytest.raises(TrackingError):
        PipelineConfig(output_rate=0).validate()
    with pytest.raises(TrackingError):
        PipelineConfig(max_gap=-1).validate()
