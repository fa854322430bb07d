import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from tanklab.frames import Pose, rot_x, rot_z, vec3
from tanklab.runner import run_scenario
from tanklab.scenarios import BUILTIN_SCENARIOS, get_scenario
from tanklab.tracking import Detections

ENSEMBLE_SEEDS = range(20)


def detection_row(t, translation, rotation, tag_id=0):
    """One ``Detections`` table row: time, tag id, translation, rotation."""
    return (float(t), tag_id, *np.ravel(translation), *np.ravel(rotation))


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    """``tools/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tree_dir(tmp_path_factory):
    """``tools/run_tree.py``'s tree, written once per session; read it only."""
    out = tmp_path_factory.mktemp("tree")
    load_tool("run_tree").write_tree(str(out))
    return out


@pytest.fixture(scope="session")
def ensemble():
    """The ``RunArtifacts`` of each built-in scenario at each of
    ``ENSEMBLE_SEEDS``, run without writes once per session and keyed by
    ``(scenario, seed)``; read them only."""
    return {(name, seed): run_scenario(get_scenario(name, ["seed=%d" % seed]))
            for name in BUILTIN_SCENARIOS for seed in ENSEMBLE_SEEDS}


def pytest_configure(config):
    # Hypothesis caches the constants of local modules when it collects a
    # @given test; keep that cache in a temporary directory, not .hypothesis/
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def camera_pose(height=2.4, tilt_x=0.0, cx=2.0, cy=2.0):
    """Overhead camera in a NED world: z axis looks down at the surface."""
    return Pose(vec3(cx, cy, -height), rot_x(tilt_x))


def synthetic_detections(times, traj, cam_pose=None, tag_id=0):
    """Noiseless detections of a surface vehicle.

    ``traj(t)`` returns (x, y, psi) in the NED world; the tag sits at the
    vehicle origin with identity mount.
    """
    cam = cam_pose or camera_pose()
    rc = cam.rotation
    rows = []
    for t in times:
        x, y, psi = traj(t)
        p = vec3(x, y, 0.0)
        q = rc.T @ (p - cam.translation)
        r_bc = rc.T @ rot_z(psi)
        rows.append(detection_row(t, q, r_bc, tag_id))
    return Detections.from_rows(rows)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
