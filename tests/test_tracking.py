import math
import statistics

import numpy as np
import pytest

from conftest import camera_pose, detection_row, synthetic_detections
from tanklab.frames import rot_x, rot_z
from tanklab.metrics import TRUTH_DTYPE
from tanklab.runner import ALIGNMENT_HEADER, TELEMETRY_HEADER, run_scenario
from tanklab.scenarios import get_scenario
from tanklab.tracking import (
    DETECTION_CSV_HEADER,
    STATE_CSV_HEADER,
    Detections,
    EmptyInput,
    NonMonotoneTimestamps,
    PipelineConfig,
    SegmentTooShort,
    TrackingError,
    WindowTooLarge,
    finite_difference,
    moving_average,
    read_detections_csv,
    read_states_csv,
    read_table,
    resample_uniform,
    run_pipeline,
    run_pipeline_detailed,
    segment_stream,
    unwrap_angles,
    write_detections_csv,
    write_states_csv,
    write_table,
)


@pytest.fixture(scope="module")
def line_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("line")
    run_scenario(get_scenario("line"), out_dir=str(out))
    return out


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


def level_detections(times, xs=None):
    """Identity-rotation detections 2.4 m below the camera, x from ``xs``
    (default: the time)."""
    xs = times if xs is None else xs
    return Detections.from_rows(
        [detection_row(t, [x, 0, 2.4], np.eye(3)) for t, x in zip(times, xs)])


class TestDetections:
    def test_views(self):
        dets = synthetic_detections(np.arange(5) / 30, line_traj(psi=0.3), tag_id=7)
        assert dets.table.shape == (5, len(DETECTION_CSV_HEADER))
        assert len(dets) == 5
        np.testing.assert_array_equal(dets.t, np.arange(5) / 30)
        np.testing.assert_array_equal(dets.table[:, 1], 7)
        assert dets.q.shape == (5, 3) and dets.rot.shape == (5, 3, 3)
        np.testing.assert_array_equal(dets.rot[2].reshape(-1), dets.table[2, 5:])
        for view in (dets.t, dets.q, dets.rot):
            assert np.shares_memory(view, dets.table)

    def test_slice_and_mask(self):
        dets = level_detections(np.arange(6) / 30)
        head = dets[:4]
        assert isinstance(head, Detections) and len(head) == 4
        odd = dets[np.arange(6) % 2 == 1]
        np.testing.assert_array_equal(odd.t, dets.t[1::2])

    def test_empty(self):
        dets = Detections.from_rows([])
        assert len(dets) == 0 and not dets
        assert dets.q.shape == (0, 3) and dets.rot.shape == (0, 3, 3)


class TestSegmentStream:
    def test_single_segment(self):
        dets = level_detections(np.arange(30) / 30, np.arange(30) * 0.01)
        segs = segment_stream(dets)
        assert len(segs) == 1
        assert len(segs[0]) == 30
        assert isinstance(segs[0], Detections)

    def test_split_on_gap(self):
        segs = segment_stream(level_detections([0.0, 0.05, 0.1, 0.5, 0.55, 0.6]))
        assert [len(s) for s in segs] == [3, 3]
        np.testing.assert_array_equal(segs[1].t, [0.5, 0.55, 0.6])

    def test_drops_short_runs(self):
        segs = segment_stream(level_detections([0.0, 0.05, 1.0, 2.0, 2.05]))
        assert [len(s) for s in segs] == [2, 2]

    def test_rejects_spurious_z(self):
        rows = [detection_row(i / 30, [i * 0.01, 0, 2.4], np.eye(3)) for i in range(20)]
        bad = detection_row(10.5 / 30, [0.105, 0, 2.6], np.eye(3))
        mixed = Detections.from_rows(sorted(rows + [bad]))
        segs = segment_stream(mixed)
        assert len(segs) == 1
        assert len(segs[0]) == 20
        assert np.all(np.abs(segs[0].q[:, 2] - 2.4) < 0.01)

    def test_matches_loop_reference(self):
        # a stream with gaps and z outliers, against the per-detection loop:
        # running-median z gate, then a new run wherever the gap exceeds max_gap
        cfg = PipelineConfig()
        rng = np.random.default_rng(4)
        n = 400
        t = np.cumsum(rng.choice([1 / 30, 0.2, 0.3, 1.0], size=n, p=[0.9, 0.04, 0.04, 0.02]))
        outlier = rng.choice([0.0, 0.2, -0.1], size=n, p=[0.9, 0.05, 0.05])
        outlier[0] = 0.0  # a first-detection outlier would gate out the rest
        z = 2.4 + outlier + rng.normal(0, 0.005, n)
        dets = Detections.from_rows(
            [detection_row(ti, [ti, 0, zi], np.eye(3)) for ti, zi in zip(t, z)])

        kept, recent_z = [], []
        for ti, zi in zip(t.tolist(), z.tolist()):
            if recent_z and abs(zi - statistics.median(recent_z[-5:])) > cfg.outlier_z_jump:
                continue
            kept.append(ti)
            recent_z.append(zi)
        runs = [[kept[0]]]
        for prev, ti in zip(kept, kept[1:]):
            if ti - prev > cfg.max_gap:
                runs.append([])
            runs[-1].append(ti)
        expected = [run for run in runs if len(run) >= 2]

        assert n - 60 < len(kept) < n and len(expected) > 3
        assert [seg.t.tolist() for seg in segment_stream(dets, cfg)] == expected

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            segment_stream(Detections.from_rows([]))

    def test_unsorted_raises(self):
        with pytest.raises(TrackingError):
            segment_stream(level_detections([1.0, 0.5]))


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
        states = run_pipeline(dets)
        mid = states[len(states) // 3 : -len(states) // 3]
        for s in mid:
            assert s.u == pytest.approx(speed, abs=0.01)
            assert abs(s.v) < 0.005
            assert abs(s.r) < 0.02

    def test_first_sample_at_origin(self):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states = run_pipeline(dets)
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
        s_level = run_pipeline(level)
        s_tilt = run_pipeline(tilted)
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
        states = run_pipeline(dets)
        mid = states[len(states) // 3 : -len(states) // 3]
        for s in mid:
            assert abs(abs(s.r) - omega) < 0.01
            assert abs(s.u) == pytest.approx(omega * radius, abs=0.01)

    def test_stationary_stream_zero_velocity(self):
        dets = Detections.from_rows(
            [detection_row(i / 30, [0.5, 0.5, 2.4], rot_z(0.3)) for i in range(40)])
        states = run_pipeline(dets)
        for s in states:
            assert abs(s.u) < 1e-9 and abs(s.v) < 1e-9 and abs(s.r) < 1e-9

    def test_diagnostics_plane_matches_tilt(self):
        tilt = math.radians(3.0)
        times = np.arange(0, 4.0, 1 / 30)

        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.05 * math.sin(2 * t), 0.0

        dets = synthetic_detections(times, traj, camera_pose(tilt_x=tilt))
        _, diag = run_pipeline_detailed(dets)
        normal = diag.plane.normal / np.linalg.norm(diag.plane.normal)
        angle = math.acos(abs(normal[2]))
        assert angle == pytest.approx(tilt, abs=1e-9)
        assert diag.first_timestamp == times[0]

    def test_segment_too_short(self):
        dets = level_detections(np.arange(10) / 30, np.arange(10) * 0.01)
        with pytest.raises(SegmentTooShort):
            run_pipeline(dets)

    def test_psi_wrapped(self):
        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.02 * math.sin(3 * t), 0.5 * t

        times = np.arange(0, 12.0, 1 / 30)
        dets = synthetic_detections(times, traj)
        states = run_pipeline(dets)
        assert all(-math.pi < s.psi <= math.pi for s in states)


class TestCsvRoundTrip:
    def test_detections(self, tmp_path, rng):
        dets = Detections.from_rows([
            detection_row(i / 30 + rng.normal(0, 1e-4), rng.normal(size=3),
                          rot_z(rng.uniform(-3, 3)) @ rot_x(0.05), tag_id=3)
            for i in range(10)
        ])
        path = tmp_path / "d.csv"
        write_detections_csv(path, dets)
        back = read_detections_csv(path)
        assert isinstance(back, Detections)
        assert back.table.shape == dets.table.shape
        np.testing.assert_array_equal(back.table[:, 1], 3)
        np.testing.assert_allclose(back.table, dets.table, atol=1e-10)

    def test_states(self, tmp_path):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states = run_pipeline(dets)
        path = tmp_path / "s.csv"
        write_states_csv(path, states)
        back = read_states_csv(path)
        for a, b in zip(states, back):
            assert b.timestamp == pytest.approx(a.timestamp, abs=1e-10)
            assert b.u == pytest.approx(a.u, abs=1e-10)

    def test_states_byte_stable(self, tmp_path):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states = run_pipeline(dets)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_states_csv(p1, states)
        write_states_csv(p2, states)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("name, header", [
        ("truth", TRUTH_DTYPE.names),
        ("detections", DETECTION_CSV_HEADER),
        ("estimates", STATE_CSV_HEADER),
        ("alignments", ALIGNMENT_HEADER),
        ("telemetry", TELEMETRY_HEADER),
    ])
    def test_run_dir_table_bytes(self, line_run_dir, tmp_path, name, header):
        original = line_run_dir / ("%s.csv" % name)
        table = read_table(original, header)
        assert table.shape[0] > 0
        again = tmp_path / "again.csv"
        write_table(again, header, table.T)
        assert again.read_bytes() == original.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(TrackingError):
            read_states_csv(path)
        # a well-formed state table is not a truth table
        path.write_text(",".join(STATE_CSV_HEADER) + "\n" + ",".join("0" * 7) + "\n")
        with pytest.raises(TrackingError):
            read_table(path, TRUTH_DTYPE.names)


def test_config_validation():
    with pytest.raises(TrackingError):
        PipelineConfig(smoothing_window=0).validate()
    with pytest.raises(TrackingError):
        PipelineConfig(output_rate=0).validate()
    with pytest.raises(TrackingError):
        PipelineConfig(max_gap=-1).validate()
