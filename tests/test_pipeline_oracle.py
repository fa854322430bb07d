"""Cross-check the production pipeline against the naive reimplementation."""

import math

import numpy as np
import pytest

import brute_force as bf
from conftest import camera_pose, synthetic_detections
from tanklab.frames import wrap_angle
from tanklab.tracking import PipelineConfig, run_pipeline


def check_against_oracle(dets, window=6, rate=30.0, tol=1e-9):
    cfg = PipelineConfig(smoothing_window=window, output_rate=rate)
    states = run_pipeline(dets, cfg)
    oracle = bf.bf_pipeline(dets.t, dets.q, dets.rot, window, rate)
    assert len(states) == len(oracle["t"])
    for i, s in enumerate(states):
        assert s.timestamp == pytest.approx(oracle["t"][i], abs=tol)
        assert s.x == pytest.approx(oracle["x"][i], abs=tol)
        assert s.y == pytest.approx(oracle["y"][i], abs=tol)
        assert s.psi == pytest.approx(wrap_angle(oracle["psi"][i]), abs=tol)
        assert s.u == pytest.approx(oracle["u"][i], abs=tol)
        assert s.v == pytest.approx(oracle["v"][i], abs=tol)
        assert s.r == pytest.approx(oracle["r"][i], abs=tol)


def test_short_segment_agrees():
    # 20 detections (< 1 s): small enough to audit by hand, window 6
    def traj(t):
        return 1.0 + 0.4 * t, 1.0 + 0.05 * math.sin(3 * t), 0.3 * t

    times = np.arange(20) / 30.0
    dets = synthetic_detections(times, traj, camera_pose(tilt_x=math.radians(2.5)))
    check_against_oracle(dets, window=6)


def test_long_turning_segment_agrees():
    def traj(t):
        return (2.0 + 1.5 * math.sin(0.25 * t),
                2.0 - 1.5 * math.cos(0.25 * t),
                0.25 * t)

    times = np.arange(0, 10.0, 1 / 30)
    dets = synthetic_detections(times, traj, camera_pose(tilt_x=math.radians(2.5)))
    check_against_oracle(dets, window=12)


def test_jittered_timestamps_agree(rng):
    def traj(t):
        return 1.0 + 0.3 * t, 1.0 + 0.1 * math.sin(t), 0.1 * t

    times = np.sort(np.arange(0, 6.0, 1 / 30) + rng.normal(0, 0.002, 180))
    dets = synthetic_detections(times, traj)
    check_against_oracle(dets, window=12)


def test_yaw_crossing_pi_agrees():
    # heading sweeps through the +/- pi seam; unwrap must match the loop oracle
    def traj(t):
        psi = 2.8 + 0.5 * t
        return 2.0 + 0.3 * t, 2.0 + 0.05 * math.cos(2 * t), psi

    times = np.arange(0, 4.0, 1 / 30)
    dets = synthetic_detections(times, traj)
    check_against_oracle(dets, window=12)
