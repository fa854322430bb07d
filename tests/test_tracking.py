import ast
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute_force as bf
from conftest import camera_pose, detection_row, synthetic_detections
from tanklab import tracking
from tanklab.frames import (GeometryError, PlaneCoefficients, extract_yaw, rot_x, rot_y, rot_z,
                            world_rotation)
from tanklab.metrics import residuals
from tanklab.runner import ALIGNMENT_HEADER, TELEMETRY_HEADER, recompute_metrics, run_scenario
from tanklab.scenarios import BUILTIN_SCENARIOS, ConfigError, get_scenario, window_error
from tanklab.tracking import (
    DETECTION_CSV_HEADER,
    STATE_CSV_HEADER,
    STATE_DTYPE,
    TABLE_CELLS,
    Detections,
    PipelineConfig,
    SegmentTooShort,
    TrackingError,
    moving_average,
    read_detections_csv,
    read_states_csv,
    read_table,
    resample_uniform,
    run_pipeline_detailed,
    segment_stream,
    series,
    write_detections_csv,
    write_states_csv,
    write_table,
)
from tanklab.vehicle import TRUTH_DTYPE


@pytest.fixture(scope="module")
def line_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("line")
    run_scenario(get_scenario("line"), out_dir=str(out))
    return out


@pytest.fixture
def line_run_copy(line_run_dir, tmp_path):
    """A copy of ``line_run_dir``'s CSVs that a test may damage."""
    run = tmp_path / "run"
    run.mkdir()
    for src in line_run_dir.glob("*.csv"):
        (run / src.name).write_bytes(src.read_bytes())
    return run


class TestUnwrap:
    """The pipeline's yaw unwrap, seen in its states."""

    def test_removes_jump(self):
        # the recovered yaw sweeps through the +/- pi seam at a constant
        # rate: its differences give that rate, with no 2 pi / dt spike
        def traj(t):
            return 1.0 + 0.3 * t, 1.0, 1.2 + 0.5 * t

        dets = synthetic_detections(np.arange(0, 2.0, 1 / 30), traj)
        states, _ = run_pipeline_detailed(dets, PipelineConfig(smoothing_window=1))
        assert np.abs(np.diff(states.psi)).max() > math.pi  # crossed the seam
        np.testing.assert_allclose(np.abs(states.r), 0.5, atol=1e-9)


class TestFiniteDifference:
    """The pipeline's finite differences, seen in its states: with a
    one-sample window and the detections on the output grid, ``u`` is the
    differenced track."""

    def test_linear_exact(self):
        dets = synthetic_detections(np.arange(10) / 30, line_traj(speed=0.3))
        states, _ = run_pipeline_detailed(dets, PipelineConfig(smoothing_window=1))
        np.testing.assert_allclose(states.u, 0.3, atol=1e-12)

    def test_quadratic_interior_exact(self):
        # central differences are exact for quadratics in the interior
        dets = synthetic_detections(np.arange(20) / 30, lambda t: (1.0 + 0.5 * t * t, 1.0, 0.0))
        states, _ = run_pipeline_detailed(dets, PipelineConfig(smoothing_window=1))
        np.testing.assert_allclose(states.u[1:-1], states.timestamp[1:-1], atol=1e-12)


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
        with pytest.raises(TrackingError, match="larger than input"):
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
        with pytest.raises(TrackingError, match="strictly increasing"):
            resample_uniform([0.0, 0.5, 0.5], [1, 2, 3], 30.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples(self, n):
        with pytest.raises(SegmentTooShort, match="at least 2 samples"):
            resample_uniform([0.5] * n, [1.0] * n, 30.0)


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

    def test_first_detection_outlier(self):
        # a spurious first detection must not become the gate's reference
        rng = np.random.default_rng(11)
        t = np.arange(60) / 30
        z = 2.4 + rng.normal(0, 0.005, 60)
        z[0] += 0.2
        dets = Detections.from_rows(
            [detection_row(ti, [ti, 0, zi], np.eye(3)) for ti, zi in zip(t, z)])
        segs = segment_stream(dets)
        assert [seg.t.tolist() for seg in segs] == [t[1:].tolist()]

    def test_matches_loop_reference(self):
        # a stream with gaps and z outliers, against the one-detection-at-a-
        # time oracle of the running-median z gate and the gap split
        cfg = PipelineConfig()
        rng = np.random.default_rng(4)
        n = 400
        t = np.cumsum(rng.choice([1 / 30, 0.2, 0.3, 1.0], size=n, p=[0.9, 0.04, 0.04, 0.02]))
        outlier = rng.choice([0.0, 0.2, -0.1], size=n, p=[0.9, 0.05, 0.05])
        z = 2.4 + outlier + rng.normal(0, 0.005, n)
        dets = Detections.from_rows(
            [detection_row(ti, [ti, 0, zi], np.eye(3)) for ti, zi in zip(t, z)])

        expected = bf.bf_segment_stream(dets.table, cfg.max_gap, cfg.outlier_z_jump)
        assert n - 60 < sum(map(len, expected)) < n and len(expected) > 3
        assert [seg.table.tobytes() for seg in segment_stream(dets, cfg)] == [
            seg.tobytes() for seg in expected]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 7), st.integers(100, 400)),
        rate=st.floats(0.0, 0.7),
        jump=st.floats(0.05, 0.2),
        burst=st.integers(1, 8),
        head=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, n, rate, jump, burst, head, seed):
        # outliers of +/-jump in runs of up to `burst`, one maybe among the
        # first five, gaps just under and just over max_gap; the segments
        # must be the oracle's rows, bit for bit
        cfg = PipelineConfig()
        rng = np.random.default_rng(seed)
        starts = np.flatnonzero(rng.random(n) < rate / burst)
        outlier = np.zeros(n, dtype=bool)
        for a in starts:
            outlier[a : a + rng.integers(1, burst + 1)] = True
        if head and n:
            outlier[rng.integers(0, min(n, 5))] = True
        z = 2.4 + rng.normal(0, 0.005, n) + outlier * rng.choice([-jump, jump], n)
        gaps = [1 / 30, 0.9 * cfg.max_gap, 1.1 * cfg.max_gap, 1.0]
        t = np.cumsum(rng.choice(gaps, size=n, p=[0.85, 0.05, 0.05, 0.05]))
        dets = Detections.from_rows(
            [detection_row(ti, [ti, 0, zi], np.eye(3)) for ti, zi in zip(t, z)])

        expected = bf.bf_segment_stream(dets.table, cfg.max_gap, cfg.outlier_z_jump)
        assert [seg.table.tobytes() for seg in segment_stream(dets, cfg)] == [
            seg.tobytes() for seg in expected]

    @pytest.mark.parametrize("z", [
        [np.nan, 2.4, 2.6, 2.4, np.nan, 2.6, 2.4],
        [2.4, np.nan, 2.5, 2.4, 2.6, 2.5, 2.6, 2.4],
        [2.4, np.nan, 2.4, 2.6, 2.6, 2.6, 2.4, 2.4, 2.6, 2.4, np.nan, 2.5],
    ])
    def test_nan_z_matches_oracle(self, z):
        # a NaN z would switch the running median off (every comparison
        # with it is false): the stream is refused, naming the first NaN,
        # and the stream without its NaN rows gives the oracle's segments
        rows = [detection_row(i / 30, [i / 30, 0, zi], np.eye(3)) for i, zi in enumerate(z)]
        with pytest.raises(TrackingError,
                           match="detection %d has a non-finite z" % np.isnan(z).argmax()):
            segment_stream(Detections.from_rows(rows))

        finite = Detections.from_rows([row for row, zi in zip(rows, z) if np.isfinite(zi)])
        expected = bf.bf_segment_stream(finite.table, 0.25, 0.05)
        assert [seg.table.tobytes() for seg in segment_stream(finite)] == [
            seg.tobytes() for seg in expected]

    def test_non_finite_z_raises(self):
        # an infinite z is refused as a NaN is, and the first of either is named
        for z, first in [
            ([2.4, 2.4, 2.6, 2.6, 2.6, 2.4, 2.4, 2.6, 2.4, np.nan, 2.5, np.inf], 9),
            ([2.4] * 7 + [-np.inf], 7),
        ]:
            dets = Detections.from_rows(
                [detection_row(i / 30, [i / 30, 0, zi], np.eye(3)) for i, zi in enumerate(z)])
            with pytest.raises(TrackingError, match="detection %d has a non-finite z" % first):
                segment_stream(dets)

    def test_empty_gives_no_segments(self):
        assert segment_stream(Detections.from_rows([])) == []

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
        states, _ = run_pipeline_detailed(dets)
        mid = states[len(states) // 3 : -len(states) // 3]
        for s in mid:
            assert s.u == pytest.approx(speed, abs=0.01)
            assert abs(s.v) < 0.005
            assert abs(s.r) < 0.02

    def test_two_detections(self):
        # two points fix no plane: the level-plane fallback applies, and the
        # window check then rejects the short segment
        dets = synthetic_detections([0.0, 0.2], line_traj())
        with pytest.raises(SegmentTooShort):
            run_pipeline_detailed(dets)
        states, r_oc = run_pipeline_detailed(dets, PipelineConfig(smoothing_window=1))
        assert r_oc.tobytes() == world_rotation(PlaneCoefficients(0.0, 0.0, 0.0)).tobytes()
        assert len(states) == 7
        assert states.u == pytest.approx(0.4, abs=1e-6)

    def test_first_sample_at_origin(self):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states, _ = run_pipeline_detailed(dets)
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
        s_level, _ = run_pipeline_detailed(level)
        s_tilt, _ = run_pipeline_detailed(tilted)
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
        states, _ = run_pipeline_detailed(dets)
        mid = states[len(states) // 3 : -len(states) // 3]
        for s in mid:
            assert abs(abs(s.r) - omega) < 0.01
            assert abs(s.u) == pytest.approx(omega * radius, abs=0.01)

    def test_stationary_stream_zero_velocity(self):
        dets = Detections.from_rows(
            [detection_row(i / 30, [0.5, 0.5, 2.4], rot_z(0.3)) for i in range(40)])
        states, _ = run_pipeline_detailed(dets)
        for s in states:
            assert abs(s.u) < 1e-9 and abs(s.v) < 1e-9 and abs(s.r) < 1e-9

    def test_diagnostics_plane_matches_tilt(self):
        tilt = math.radians(3.0)
        times = np.arange(0, 4.0, 1 / 30)

        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.05 * math.sin(2 * t), 0.0

        dets = synthetic_detections(times, traj, camera_pose(tilt_x=tilt))
        states, r_oc = run_pipeline_detailed(dets)
        angle = math.acos(abs(r_oc[2, 2]))  # the third row is the unit plane normal
        assert angle == pytest.approx(tilt, abs=1e-9)
        assert states.timestamp[0] == times[0]

    def test_segment_too_short(self):
        dets = level_detections(np.arange(10) / 30, np.arange(10) * 0.01)
        with pytest.raises(SegmentTooShort):
            run_pipeline_detailed(dets)
        # one detection, before anything is unwrapped or differenced
        with pytest.raises(SegmentTooShort):
            run_pipeline_detailed(dets[:1], PipelineConfig(smoothing_window=1))

    def test_segment_of_2_windows_too_short(self):
        # 2 * window states all lie within a window of an edge: nothing to
        # score, so no segment; one more state is scored
        window, rate = 12, 30.0
        cfg = PipelineConfig(smoothing_window=window, output_rate=rate)
        times = np.arange(2 * window + 1) / rate
        with pytest.raises(SegmentTooShort, match="24 samples"):
            run_pipeline_detailed(level_detections(times[:-1], times[:-1] * 0.3), cfg)
        states, _ = run_pipeline_detailed(level_detections(times, times * 0.3), cfg)
        assert len(states) == 2 * window + 1
        t = np.arange(481) / 240
        truth = series(np.column_stack([t, 0.3 * t, *np.zeros((8, t.size))]), TRUTH_DTYPE)
        res = residuals(truth, states, np.eye(3), np.zeros(3), window, rate)
        assert res["t"].tolist() == [states.timestamp[window]]

    def test_edge_on_detection_raises(self):
        # one detection seen edge-on, in a level track: yaw is undefined
        table = level_detections(np.arange(30) / 30, np.arange(30) * 0.01).table.copy()
        table[17, 5:14] = rot_y(math.pi / 2).ravel()
        with pytest.raises(GeometryError, match="edge-on"):
            run_pipeline_detailed(Detections(table))

    def test_psi_wrapped(self):
        def traj(t):
            return 1.0 + 0.3 * t, 1.0 + 0.02 * math.sin(3 * t), 0.5 * t

        times = np.arange(0, 12.0, 1 / 30)
        dets = synthetic_detections(times, traj)
        states, _ = run_pipeline_detailed(dets)
        assert all(-math.pi < s.psi <= math.pi for s in states)


def random_rotation(rng):
    """A proper rotation, from the QR decomposition of a normal matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


class TestYawProduct:
    """The yaw step's one stacked ``r_oc @ segment.rot`` is bit for bit the
    per-detection products ``r_oc @ rot`` it replaced, and ``extract_yaw``
    on that stack is bit for bit its one-rotation calls."""

    @staticmethod
    def assert_stacked_bits(r_oc, segment):
        per_detection = np.stack([r_oc @ rot for rot in segment.rot])
        assert (r_oc @ segment.rot).tobytes() == per_detection.tobytes()
        one_by_one = np.array([extract_yaw(r_ow) for r_ow in per_detection])
        assert extract_yaw(per_detection).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 643])
    def test_random_rotations(self, rng, n):
        rows = [detection_row(i / 30, rng.normal(size=3), random_rotation(rng)) for i in range(n)]
        self.assert_stacked_bits(random_rotation(rng), Detections.from_rows(rows))

    def test_tree_segments(self, tree_dir):
        checked = 0
        for path in sorted(tree_dir.glob("*/detections.csv")):
            for segment in segment_stream(read_detections_csv(path)):
                try:
                    _, r_oc = run_pipeline_detailed(segment)
                except SegmentTooShort:
                    continue
                self.assert_stacked_bits(r_oc, segment)
                checked += 1
        assert checked > 50


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
        states, _ = run_pipeline_detailed(dets)
        path = tmp_path / "s.csv"
        write_states_csv(path, states)
        back = read_states_csv(path)
        for a, b in zip(states, back):
            assert b.timestamp == pytest.approx(a.timestamp, abs=1e-10)
            assert b.u == pytest.approx(a.u, abs=1e-10)

    def test_states_byte_stable(self, tmp_path):
        times = np.arange(0, 2.0, 1 / 30)
        dets = synthetic_detections(times, line_traj())
        states, _ = run_pipeline_detailed(dets)
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
        write_table(again, header, table)
        assert again.read_bytes() == original.read_bytes()

    def test_number_format(self, tmp_path):
        # %.12g: 12 significant digits, no trailing ".0", two-digit exponents
        path = tmp_path / "n.csv"
        write_table(path, ["a", "b", "c"], np.array([
            [0.1 + 0.2, 1e-20, -0.0],
            [123456789012345.0, 2.5e-7, 3.0],
        ]))
        assert path.read_bytes() == b"a,b,c\n0.3,1e-20,-0\n1.23456789012e+14,2.5e-07,3\n"

    @pytest.mark.parametrize("table", [np.zeros((2, 3)), np.zeros(4), np.zeros((0, 1)),
                                       np.zeros(2, dtype=[("a", float), ("b", float)])])
    def test_width_must_match_header(self, tmp_path, table):
        path = tmp_path / "w.csv"
        with pytest.raises(TrackingError, match=re.escape(str(path))):
            write_table(path, ["a", "b", "c", "d"], table)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(TrackingError):
            read_states_csv(path)
        # a well-formed state table is not a truth table
        path.write_text(",".join(STATE_CSV_HEADER) + "\n" + ",".join("0" * 7) + "\n")
        with pytest.raises(TrackingError):
            read_table(path, TRUTH_DTYPE.names)

    @pytest.mark.parametrize("name", ["detections.csv", "truth.csv"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, line_run_copy, name, cell):
        # an edited table with one non-finite cell is refused, naming the
        # file, instead of switching the z gate off or scoring NaN
        run = line_run_copy
        lines = (run / name).read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[4] = cell
        lines[5] = ",".join(cells)
        (run / name).write_text("".join(lines))
        with pytest.raises(TrackingError, match=re.escape(str(run / name))):
            if name == "detections.csv":
                read_detections_csv(run / name)
            else:
                recompute_metrics(str(run))

    @pytest.mark.parametrize("damage", ["key missing", "header only", "not a number"])
    def test_damaged_meta(self, line_run_copy, damage):
        # a meta.csv value that is missing or does not parse is refused,
        # naming the file and the key, as a bad table names its file
        run = line_run_copy
        lines = (run / "meta.csv").read_text().splitlines(keepends=True)
        assert "smoothing_window,12\n" in lines
        damaged = {
            "key missing": [line for line in lines if not line.startswith("smoothing_window,")],
            "header only": lines[:1],
            "not a number": [line.replace(",12", ",twelve") for line in lines],
        }[damage]
        (run / "meta.csv").write_text("".join(damaged))
        message = "%s: 'smoothing_window' is " % (run / "meta.csv")
        with pytest.raises(TrackingError, match=re.escape(message)):
            recompute_metrics(str(run))

    @pytest.mark.parametrize("line,row,text", [
        (8, "output_rate", "'output_rate', not two cells"),
        (3, "seed,11,extra", "'seed,11,extra', not two cells"),
        (1, "name,value", "'name,value', not key,value"),
        (1, None, "'', not key,value"),
    ], ids=["1-cell row", "3-cell row", "wrong header", "empty file"])
    def test_malformed_meta_row(self, line_run_copy, line, row, text):
        # a meta.csv row of other than two cells, or a header other than
        # key,value, is refused naming the file and the line
        run = line_run_copy
        lines = (run / "meta.csv").read_text().splitlines(keepends=True)
        assert lines[:3] == ["key,value\n", "scenario,line\n", "seed,11\n"]
        assert lines[7].startswith("output_rate,")
        damaged = [] if row is None else [*lines[:line - 1], row + "\n", *lines[line:]]
        (run / "meta.csv").write_text("".join(damaged))
        message = "%s: line %d is %s" % (run / "meta.csv", line, text)
        with pytest.raises(TrackingError, match="^%s$" % re.escape(message)):
            recompute_metrics(str(run))

    @pytest.mark.parametrize("row,message", [
        ("output_rate,0", "'output_rate' is '0' on line 8, not in (0, inf)"),
        ("output_rate,nan", "'output_rate' is 'nan' on line 8, not in (0, inf)"),
        ("output_rate,inf", "'output_rate' is 'inf' on line 8, not in (0, inf)"),
        ("smoothing_window,0", "'smoothing_window' is '0' on line 7, not an int in [1, inf)"),
        ("smoothing_window,-3", "'smoothing_window' is '-3' on line 7, not an int in [1, inf)"),
        ("n_frames,-1", "'n_frames' is '-1' on line 5, not an int in [0, inf)"),
        ("n_frames,0", "'n_detections' is '{n_detections}' on line 6, not an int in [0, 0]"),
        ("n_detections,-245",
         "'n_detections' is '-245' on line 6, not an int in [0, {n_frames}]"),
        ("n_detections,2.5", "'n_detections' is '2.5' on line 6, not an int in [0, {n_frames}]"),
        ("duration,0", "'duration' is '0' on line 4, not in (0, inf)"),
        (None, "line 10 repeats 'smoothing_window' of line 7"),
    ], ids=["rate 0", "rate nan", "rate inf", "window 0", "window -3", "frames -1",
            "more detections than frames", "detections -245", "detections 2.5", "duration 0",
            "repeated key"])
    def test_meta_value_out_of_domain(self, line_run_copy, row, message):
        # a meta.csv value that parses but no run writes is refused, naming the
        # file, the key and the line: the window, the rate and the duration
        # through their settings' domains, the counts as whole numbers, no more
        # detections than frames; a second row of a key is refused, not read
        # over the first
        run = line_run_copy
        lines = (run / "meta.csv").read_text().splitlines(keepends=True)
        meta = dict(line.rstrip("\n").split(",") for line in lines)
        if row is None:
            lines.append("smoothing_window,5\n")
        else:
            key = row.split(",")[0]
            lines = [row + "\n" if line.startswith(key + ",") else line for line in lines]
        (run / "meta.csv").write_text("".join(lines))
        expected = "%s: %s" % (run / "meta.csv", message.format(**meta))
        with pytest.raises(TrackingError, match="^%s$" % re.escape(expected)):
            recompute_metrics(str(run))

    @pytest.mark.parametrize("name,damage,message", [
        ("truth.csv", "header only", "no rows"),
        ("truth.csv", "swapped rows", "line 5: time"),
        ("estimates.csv", "duplicated row", "line 5: time"),
        ("estimates.csv", "swapped rows", "line 5: time"),
    ])
    def test_damaged_table_names_its_file(self, line_run_copy, name, damage, message):
        # a table that does not parse, or whose times np.interp cannot use,
        # is refused naming its path, not scored or failed on a bare message
        run = line_run_copy
        lines = (run / name).read_text().splitlines(keepends=True)
        assert len(lines) > 5
        if damage == "header only":
            lines = lines[:1]
        elif damage == "duplicated row":
            lines.insert(4, lines[3])
        else:
            lines[3], lines[4] = lines[4], lines[3]
        (run / name).write_text("".join(lines))
        with pytest.raises(TrackingError, match="^%s" % re.escape("%s: %s" % (run / name, message))):
            recompute_metrics(str(run))

    @pytest.mark.parametrize("line,damage,message", [
        (5, "bad cell", "line 5: 'abc' is not a number"),
        (5, "short row", "line 5 has 9 cells, not 10"),
        (5, "long row", "line 5 has 11 cells, not 10"),
        (2, "short row", "line 2 has 9 cells, not 10"),
        (7, "bad cell", "line 7: '1_0' is not a number"),
        (5, "nan", "line 5: 'nan' is not a number"),
        (6, "inf", "line 6: 'inf' is not a number"),
        (9, "-inf", "line 9: '-inf' is not a number"),
    ], ids=["bad cell", "short row", "long row", "short first row", "underscore",
            "nan", "inf", "-inf"])
    def test_bad_row_named_by_its_line(self, line_run_copy, line, damage, message):
        # a row np.loadtxt refuses, or reads with a non-finite cell, is named
        # by its file line, counted from 1 with the header as line 1, as
        # recompute_metrics names lines; a comment and a blank line before
        # it are lines too
        run = line_run_copy
        lines = (run / "truth.csv").read_text().splitlines(keepends=True)
        lines[2:4] = ["# a comment\n", "\n"]
        cells = lines[line - 1].rstrip("\n").split(",")
        cells = {"bad cell": ["abc" if line == 5 else "1_0", *cells[1:]],
                 "short row": cells[:-1], "long row": [*cells, "1"]}.get(
                     damage, [*cells[:4], damage, *cells[5:]])
        lines[line - 1] = ",".join(cells) + "\n"
        (run / "truth.csv").write_text("".join(lines))
        expected = "%s: %s" % (run / "truth.csv", message)
        with pytest.raises(TrackingError, match="^%s$" % re.escape(expected)):
            read_table(run / "truth.csv", TRUTH_DTYPE.names)
        with pytest.raises(TrackingError, match="^%s$" % re.escape(expected)):
            recompute_metrics(str(run))

    @pytest.mark.parametrize("window", [126, 500])
    def test_window_no_segment_fills(self, line_run_copy, window):
        # a window inside its domain that not even the whole 8.35 s run at
        # 30 Hz (251 states) leaves room for is refused, by the rule
        # Scenario.validate applies, instead of scoring no segment
        run = line_run_copy
        text = (run / "meta.csv").read_text()
        assert "smoothing_window,12\n" in text and "duration,8.35\n" in text
        (run / "meta.csv").write_text(text.replace("smoothing_window,12\n",
                                                   "smoothing_window,%d\n" % window))
        why = window_error(window, 8.35, 30.0)
        expected = "%s: 'smoothing_window' is '%d' on line 7: %s" % (run / "meta.csv", window, why)
        with pytest.raises(TrackingError, match="^%s$" % re.escape(expected)):
            recompute_metrics(str(run))
        with pytest.raises(ConfigError, match=re.escape(why)):
            get_scenario("line", ["pipeline.smoothing_window=%d" % window]).validate()

    def test_window_that_fits_is_scored(self, line_run_copy):
        # 2 * 125 + 1 = 251 states: the rule's edge, accepted by both
        run = line_run_copy
        text = (run / "meta.csv").read_text()
        (run / "meta.csv").write_text(text.replace("smoothing_window,12\n", "smoothing_window,125\n"))
        assert window_error(125, 8.35, 30.0) is None
        get_scenario("line", ["pipeline.smoothing_window=125"]).validate()
        assert recompute_metrics(str(run))["n_frames"] > 0


def run_dir_files(run):
    """Every file under a run directory, by its path relative to it."""
    return {p.relative_to(run): p for p in sorted(run.rglob("*")) if p.is_file()}


class TestRewrite:
    """A run directory written over an earlier one: every artifact is a new
    file with the bytes of a fresh write, and what was there is untouched."""

    def test_over_longer_different_files(self, line_run_dir, tmp_path):
        fresh = run_dir_files(line_run_dir)
        run = tmp_path / "run"
        for rel, src in fresh.items():
            (run / rel).parent.mkdir(parents=True, exist_ok=True)
            (run / rel).write_bytes(b"stale," + src.read_bytes() * 2)
        run_scenario(get_scenario("line"), out_dir=str(run))
        got = run_dir_files(run)
        assert got.keys() == fresh.keys()
        for rel, src in fresh.items():
            assert got[rel].read_bytes() == src.read_bytes(), rel

    def test_each_artifact_is_a_new_file(self, line_run_dir, tmp_path):
        # a second link to each old file keeps its inode allocated, so a
        # new file cannot reuse it; a file truncated in place keeps it, and
        # the second link would then read the new bytes
        run, kept = tmp_path / "run", tmp_path / "kept"
        for rel, src in run_dir_files(line_run_dir).items():
            for d in (run, kept):
                (d / rel).parent.mkdir(parents=True, exist_ok=True)
            (run / rel).write_bytes(b"old " + str(rel).encode())
            os.link(run / rel, kept / rel)
        run_scenario(get_scenario("line"), out_dir=str(run))
        for rel, old in run_dir_files(kept).items():
            assert (run / rel).stat().st_ino != old.stat().st_ino, rel
            assert old.read_bytes() == b"old " + str(rel).encode()

    def test_link_is_replaced_not_followed(self, line_run_dir, tmp_path):
        # each artifact a symbolic link, one of them dangling: each becomes
        # a regular file and no target is written or created
        run, targets = tmp_path / "run", tmp_path / "targets"
        targets.mkdir()
        fresh = run_dir_files(line_run_dir)
        for i, rel in enumerate(fresh):
            (run / rel).parent.mkdir(parents=True, exist_ok=True)
            target = targets / ("%d.csv" % i)
            if rel.name != "metrics.csv":
                target.write_bytes(b"target\n")
            (run / rel).symlink_to(target)
        run_scenario(get_scenario("line"), out_dir=str(run))
        for rel, src in fresh.items():
            assert not (run / rel).is_symlink(), rel
            assert (run / rel).read_bytes() == src.read_bytes(), rel
        assert {p.read_bytes() for p in targets.iterdir()} == {b"target\n"}
        assert len(list(targets.iterdir())) == len(fresh) - 1


def opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: ``open`` or an ``.open``
    whose mode is not a read-only literal, ``os.open`` or ``os.fdopen``
    whatever its flags, ``write_text`` or ``write_bytes``."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
    owner = getattr(getattr(f, "value", None), "id", "")
    if owner == "os":
        return name in ("open", "fdopen")
    if name == "open":
        mode = next((k.value for k in call.keywords if k.arg == "mode"),
                    call.args[1] if len(call.args) > 1 else ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
    return name in ("write_text", "write_bytes")


def write_mode_opens(tree):
    """The innermost enclosing function of each call in a module that opens
    a file for writing."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and opens_for_writing(child):
                found.append(fn)
            visit(child, getattr(child, "name", fn) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, "<module>")
    return found


def test_one_place_opens_for_writing():
    # every artifact is created through one helper, so none can go back to
    # being truncated in place behind it
    src = Path(tracking.__file__).resolve().parent
    found = [(path.name, fn) for path in sorted(src.glob("*.py"))
             for fn in write_mode_opens(ast.parse(path.read_text()))]
    assert found == [("tracking.py", "_create")]


def reference_table_bytes(header, table):
    """``write_table``'s file written a row at a time, every number through
    ``%.12g``: the reference for its folded, chunked formatting."""
    if table.dtype.names:
        table = np.asarray(table).view((float, len(table.dtype.names)))
    line = ",".join(["%.12g"] * len(header)) + "\n"
    return (",".join(header) + "\n"
            + "".join(line % tuple(row.tolist()) for row in table)).encode()


@st.composite
def repeating_tables(draw):
    """Float tables whose columns draw from pools of one to three values, so
    constant columns, nearly constant ones and signed zeros are common; with
    two varying columns or more, a table can take more than one pass."""
    n = draw(st.integers(0, TABLE_CELLS // 2 + 3))
    values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0])
    pools = draw(st.lists(st.lists(values, min_size=1, max_size=3), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([np.array(pool)[rng.integers(0, len(pool), n)] for pool in pools]).T


class TestWriteTableBytes:
    """``write_table`` writes the bytes of ``reference_table_bytes``."""

    @pytest.mark.parametrize("table", [
        np.full((TABLE_CELLS + 5, 3), 0.25),                               # all constant
        np.column_stack([np.arange(7.0), [0.0, -0.0] * 3 + [0.0]]),       # signed zeros
        np.column_stack([np.full(4, -0.0), np.arange(4.0)]),              # constant -0.0
        np.column_stack([np.full(5, np.nan), [np.inf, -np.inf] * 2 + [np.nan],
                         np.full(5, -np.inf), np.arange(5.0)]),
        np.array([[1.5, -0.0, 1e-300]]),                                  # one row
        np.empty((0, 3)),
        np.arange(3 * (2 * (TABLE_CELLS // 3) + 1), dtype=float).reshape(-1, 3),  # 3 passes
    ], ids=["constant", "signed-zeros", "constant-minus-zero", "nan-inf", "one-row",
            "no-rows", "chunks"])
    def test_table(self, tmp_path, table):
        header = ["c%d" % j for j in range(table.shape[1])]
        path = tmp_path / "t.csv"
        write_table(path, header, table)
        assert path.read_bytes() == reference_table_bytes(header, table)

    def test_record_series(self, tmp_path):
        truth = np.zeros(300, dtype=TRUTH_DTYPE).view(np.recarray)
        truth.t = np.arange(300) / 240
        truth.fill = 12.5
        truth.z[100:] = -0.0
        path = tmp_path / "truth.csv"
        write_table(path, TRUTH_DTYPE.names, truth)
        assert path.read_bytes() == reference_table_bytes(TRUTH_DTYPE.names, truth)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(repeating_tables())
    def test_fuzz(self, tmp_path_factory, table):
        header = ["c%d" % j for j in range(table.shape[1])]
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        write_table(path, header, table)
        assert path.read_bytes() == reference_table_bytes(header, table)


def written_cells(tmp_path, values):
    """The cells of a one-column ``write_table`` file of ``values``."""
    path = tmp_path / "cells.csv"
    write_table(path, ["c"], np.asarray(values, dtype=float).reshape(-1, 1))
    return path.read_bytes().split(b"\n")[1:-1]


def percent_cells(values):
    return [b"%.12g" % x for x in np.asarray(values, dtype=float).tolist()]


def around(values, ulps):
    """``values`` and their ``ulps`` neighbours on either side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (np.inf, -np.inf):
        x = out[0]
        for _ in range(ulps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


class TestCellText:
    """``write_table`` writes every cell as ``b"%.12g" % x`` does, byte for
    byte, whether numpy or ``%`` formats it."""

    def test_powers_of_ten(self, tmp_path):
        # each decade's edge and its neighbours, across the numpy path's
        # bounds (1e-11, 1e11) and %g's switches to exponents (1e-4, 1e12)
        powers = 10.0 ** np.arange(-13, 14)
        values = around(np.concatenate([powers, -powers]), 4)
        assert written_cells(tmp_path, values) == percent_cells(values)

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_half_way_at_the_twelfth_digit(self, tmp_path, exponent):
        # (k + 0.5) units of the 12th digit, which %g rounds by the exact
        # binary value, and the floats on either side of each
        k = np.random.default_rng(exponent + 12).integers(10**11, 10**12, 400)
        values = around((k + 0.5) * 10.0 ** (exponent - 11), 1)
        assert written_cells(tmp_path, values) == percent_cells(values)

    def test_specials(self, tmp_path):
        tiny = np.finfo(float).smallest_subnormal
        values = [1.0, 0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -2.5e-320,
                  np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max, 1e-4, 1e12]
        assert written_cells(tmp_path, values) == percent_cells(values)

    @pytest.mark.parametrize("sim_rate", [240, 37])
    def test_step_time_grid(self, tmp_path, sim_rate):
        values = np.arange(20000) * (1.0 / sim_rate)
        assert written_cells(tmp_path, values) == percent_cells(values)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=60))
    def test_any_bit_pattern(self, tmp_path_factory, patterns):
        values = np.array(patterns, dtype=np.uint64).view(float)
        assert written_cells(tmp_path_factory.getbasetemp(), values) == percent_cells(values)


@pytest.fixture(scope="module")
def builtin_runs():
    return {name: run_scenario(get_scenario(name)) for name in BUILTIN_SCENARIOS}


@pytest.mark.parametrize("table", ["truth", "detections", "estimates"])
def test_few_cells_left_to_percent(builtin_runs, table):
    # The numpy path formats all but a few of the cells a run writes; a
    # regression that sends them back to `%` would keep the bytes and lose
    # the speed, so count them: only `%` pads a cell's text with spaces.
    for name, art in builtin_runs.items():
        values = {"truth": art.truth, "detections": art.detections.table,
                  "estimates": art.estimates}[table]
        values = np.asarray(values).view(float).reshape(len(values), -1)
        bits = values.view(np.int64)
        cells = values[:, bits.min(axis=0) != bits.max(axis=0)].ravel()
        share = np.mean((tracking._cell_records(cells) == ord(" ")).any(axis=1))
        assert cells.size > 0 and share < 0.01, (name, share)


def test_write_table_memory_follows_the_pass(builtin_runs, tmp_path):
    # One pass holds, per cell: its value and at most a dozen cell-long
    # float64 or index arrays while it is formatted (~100 B), its 28-byte
    # text, and its share of the row block (its 28-byte slot and the constant
    # columns' text, ~40 B); then the block's bytes and those bytes with the
    # padding deleted (~80 B) take the place of the text and the arrays:
    # under 200 B.  A truth table of 61,444 varying cells formatted in one
    # piece would hold some 10 MB.
    bound = 200 * TABLE_CELLS
    truth = builtin_runs["pump_test"].truth
    path = tmp_path / "truth.csv"
    write_table(path, TRUTH_DTYPE.names, truth)  # untraced: a first write builds the digit table
    tracemalloc.start()
    try:
        write_table(path, TRUTH_DTYPE.names, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_config_validation():
    # the pipeline's settings are checked once, with the scenario's
    for setting in ("pipeline.smoothing_window=0", "pipeline.output_rate=0", "pipeline.max_gap=-1"):
        with pytest.raises(ConfigError) as exc:
            get_scenario("line", [setting]).validate()
        assert exc.value.field_name == setting.split("=")[0]


def test_series_views_its_table():
    # a record series is its float table read by field, not a copy of it
    table = np.arange(21.0).reshape(3, 7)
    states = series(table, STATE_DTYPE)
    assert np.shares_memory(states, table)
    np.testing.assert_array_equal(states.u, table[:, 4])
    assert states[1].timestamp == 7.0
    assert len(series(np.empty((0, 7)), STATE_DTYPE)) == 0
