import math

import numpy as np
import pytest

from tanklab.camera import CameraConfig, GlareRegion, TagConfig, frame_clock, observe
from tanklab.frames import Pose, extract_yaw, rot_x, vec3
from tanklab.vehicle import VehicleState


def overhead_config(tilt_x=0.0, **kw):
    pose = Pose(vec3(2.0, 2.0, -2.4), rot_x(tilt_x))
    kw.setdefault("translation_noise_sigma", 0.0)
    kw.setdefault("rotation_noise_sigma", 0.0)
    kw.setdefault("dropout_prob", 0.0)
    return CameraConfig(pose=pose, **kw)


def fresh_rng():
    return np.random.default_rng(99)


class TestObserve:
    def test_noiseless_geometry_level(self):
        cam = overhead_config()
        pose = observe(VehicleState(x=2.5, y=1.0, psi=0.3), cam, TagConfig(), fresh_rng())
        assert isinstance(pose, Pose)
        # camera z looks down (+z world is down in NED), so range is +2.4
        np.testing.assert_allclose(pose.translation, [0.5, -1.0, 2.4], atol=1e-12)
        assert extract_yaw(pose.rotation) == pytest.approx(0.3, abs=1e-12)

    def test_recoverable_under_tilt(self):
        # tilted camera: projecting back through the extrinsics recovers truth
        tilt = math.radians(2.5)
        cam = overhead_config(tilt_x=tilt)
        truth = VehicleState(x=1.2, y=3.0, psi=-0.7)
        pose = observe(truth, cam, TagConfig(), fresh_rng())
        world = cam.pose.rotation @ pose.translation + cam.pose.translation
        np.testing.assert_allclose(world, [1.2, 3.0, 0.0], atol=1e-12)
        r_world = cam.pose.rotation @ pose.rotation
        assert extract_yaw(r_world) == pytest.approx(-0.7, abs=1e-12)

    def test_mount_offset_applied(self):
        cam = overhead_config()
        tag = TagConfig(mount_offset=Pose(vec3(0.1, 0.0, 0.0), np.eye(3)))
        pose = observe(VehicleState(x=2.0, y=2.0, psi=math.pi / 2), cam, tag, fresh_rng())
        # offset points along body x, which is world +y at psi = pi/2;
        # camera frame swaps and negates per the level extrinsics
        np.testing.assert_allclose(pose.translation, [0.0, 0.1, 2.4], atol=1e-12)

    def test_submerged_invisible(self):
        cam = overhead_config()
        assert observe(VehicleState(z=0.2), cam, TagConfig(), fresh_rng()) is None
        assert observe(VehicleState(z=0.04), cam, TagConfig(), fresh_rng()) is not None

    def test_dropout_rate(self):
        cam = overhead_config(dropout_prob=0.3)
        rng = fresh_rng()
        n = sum(
            observe(VehicleState(x=2, y=2), cam, TagConfig(), rng) is not None
            for _ in range(5000)
        )
        assert n / 5000 == pytest.approx(0.7, abs=0.02)

    def test_glare_region_elevates_dropout(self):
        glare = GlareRegion(x=1.0, y=1.0, radius=0.3, dropout_prob=1.0)
        cam = overhead_config(glare_regions=(glare,))
        rng = fresh_rng()
        assert observe(VehicleState(x=1.0, y=1.1), cam, TagConfig(), rng) is None
        assert observe(VehicleState(x=2.0, y=2.0), cam, TagConfig(), rng) is not None

    def test_translation_noise_statistics(self):
        cam = overhead_config(translation_noise_sigma=0.003)
        rng = fresh_rng()
        errs = []
        for _ in range(3000):
            pose = observe(VehicleState(x=2.5, y=1.0), cam, TagConfig(), rng)
            errs.append(pose.translation - [0.5, -1.0, 2.4])
        errs = np.array(errs)
        assert np.abs(np.mean(errs, axis=0)).max() < 3e-4
        np.testing.assert_allclose(np.std(errs, axis=0), 0.003, atol=3e-4)

    def test_rotation_noise_keeps_rotation_valid(self):
        cam = overhead_config(rotation_noise_sigma=0.01)
        rng = fresh_rng()
        pose = observe(VehicleState(x=2.5, y=1.0, psi=0.4), cam, TagConfig(), rng)
        r = pose.rotation
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_spurious_z_outlier(self):
        cam = overhead_config(spurious_z_prob=1.0, spurious_z_offset=0.2)
        pose = observe(VehicleState(x=2.5, y=1.0), cam, TagConfig(), fresh_rng())
        assert pose.translation[2] == pytest.approx(2.6, abs=1e-12)

    def test_deterministic_given_seed(self):
        cam = overhead_config(translation_noise_sigma=0.003, rotation_noise_sigma=0.01,
                              dropout_prob=0.02)
        a = observe(VehicleState(x=2.5, y=1.0), cam, TagConfig(), fresh_rng())
        b = observe(VehicleState(x=2.5, y=1.0), cam, TagConfig(), fresh_rng())
        np.testing.assert_array_equal(a.translation, b.translation)
        np.testing.assert_array_equal(a.rotation, b.rotation)


class TestFrameClock:
    def test_no_jitter_uniform(self):
        cam = overhead_config(timestamp_jitter_sigma=0.0)
        t = frame_clock(cam, 2.0, fresh_rng())
        assert len(t) == 60
        np.testing.assert_allclose(np.diff(t), 1.0 / 30.0, atol=1e-15)

    def test_jitter_strictly_increasing(self):
        cam = overhead_config(timestamp_jitter_sigma=0.003)
        t = frame_clock(cam, 30.0, fresh_rng())
        assert np.all(np.diff(t) > 0)
        assert t[0] >= 0.0

    def test_jitter_near_nominal(self):
        cam = overhead_config(timestamp_jitter_sigma=0.003)
        t = frame_clock(cam, 30.0, fresh_rng())
        nominal = np.arange(len(t)) / 30.0
        assert np.abs(t - nominal).max() <= 0.4 / 30.0 + 1e-12

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            frame_clock(overhead_config(), 0.0, fresh_rng())


def test_config_validation():
    with pytest.raises(ValueError):
        CameraConfig(frame_rate=0).validate()
    with pytest.raises(ValueError):
        CameraConfig(dropout_prob=1.5).validate()
