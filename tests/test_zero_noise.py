"""A zero-noise reference for the estimator: each built-in run quiet, with
the camera's noise, jitter and dropout off, at four camera poses.

With nothing to average out, position and heading come back exactly, in
the frame the plane fit recovers, and on the turning tracks (``circle``,
``zigzag``) the fit removes the camera's tilt completely, so no metric
depends on the pose.  ``line`` (collinear) and ``pump_test`` (stationary)
fix no plane, so the pipeline takes the level-plane fallback there: the
tilt stays in their world frame, and their velocity metrics move with it.
"""

import numpy as np
import pytest

from tanklab import frames
from tanklab.runner import run_scenario
from tanklab.scenarios import BUILTIN_SCENARIOS, get_scenario

QUIET = ["camera.translation_noise_sigma=0", "camera.rotation_noise_sigma=0",
         "camera.timestamp_jitter_sigma=0", "camera.dropout_prob=0"]
POSES = {
    "default": [],
    "level": ["camera_tilt_x_deg=0"],
    "tilted": ["camera_tilt_x_deg=8", "camera_tilt_y_deg=-5"],
    "low": ["camera_height=1.5"],
}
RMSE = ("rmse_xy", "rmse_psi", "rmse_u", "rmse_v", "rmse_r")
FALLBACK = ("line", "pump_test")  # no plane is fixed by their tracks


@pytest.fixture(scope="module")
def quiet_runs():
    """``(scenario, its run)`` of each built-in at each pose, keyed by
    ``(built-in, pose)``."""
    runs = {}
    for name in BUILTIN_SCENARIOS:
        for pose, settings in POSES.items():
            s = get_scenario(name, [*QUIET, *settings])
            runs[name, pose] = s, run_scenario(s)
    return runs


@pytest.mark.parametrize("pose", POSES)
@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_pose_and_heading_exact(quiet_runs, name, pose):
    metrics = quiet_runs[name, pose][1].metrics
    assert metrics["n_compared"] > 0
    assert metrics["rmse_xy"] < 1e-12
    assert metrics["rmse_psi"] < 1e-12


@pytest.mark.parametrize("name", sorted(set(BUILTIN_SCENARIOS) - set(FALLBACK)))
def test_plane_fit_removes_the_tilt(quiet_runs, name):
    for key in RMSE:
        values = [quiet_runs[name, pose][1].metrics[key] for pose in POSES]
        assert max(values) - min(values) < 1e-12, (key, values)


@pytest.mark.parametrize("pose", POSES)
@pytest.mark.parametrize("name", FALLBACK)
def test_level_plane_fallback_taken(quiet_runs, name, pose):
    # every segment's recovered frame is the level basis seen through the
    # camera's extrinsics, so the tilt is not corrected: why these velocity
    # metrics are not pose-invariant
    s, art = quiet_runs[name, pose]
    level = frames.mm(frames.world_rotation(frames.PlaneCoefficients(0.0, 0.0, 0.0)),
                      s.camera_pose().rotation.T)
    assert len(art.alignments) > 0
    np.testing.assert_array_equal(art.alignments[:, 6:],
                                  np.tile(level.ravel(), (len(art.alignments), 1)))
