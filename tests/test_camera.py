import math
from dataclasses import fields, replace

import brute_force as bf
import numpy as np
import pytest

from tanklab.camera import CameraConfig, TagConfig, frame_clock, observe
from tanklab.frames import Pose, extract_yaw, rot_x, rot_y, vec3
from tanklab.scenarios import ConfigError, get_scenario
from tanklab.tracking import DETECTION_CSV_HEADER


def overhead_pose(tilt_x=0.0):
    return Pose(vec3(2.0, 2.0, -2.4), rot_x(tilt_x))


LEVEL = overhead_pose()


def overhead_config(**kw):
    kw.setdefault("translation_noise_sigma", 0.0)
    kw.setdefault("rotation_noise_sigma", 0.0)
    kw.setdefault("dropout_prob", 0.0)
    return CameraConfig(**kw)


def fresh_rng():
    return np.random.default_rng(99)


def frames(*poses):
    """The camera pass's ``(n, 5)`` input: frame i at time i, then its
    ``(x, y, z, psi)``."""
    return np.array([(float(i), *pose) for i, pose in enumerate(poses)]).reshape(-1, 5)


def pose_of(row):
    """A detection row's camera-frame translation and rotation."""
    return row[2:5], row[5:14].reshape(3, 3)


class TestObserve:
    def test_noiseless_geometry_level(self):
        cam = overhead_config()
        table = observe(frames((2.5, 1.0, 0.0, 0.3)), LEVEL, cam, TagConfig(tag_id=7), fresh_rng())
        assert table.shape == (1, len(DETECTION_CSV_HEADER))
        assert table[0, :2].tolist() == [0.0, 7.0]
        q, rot = pose_of(table[0])
        # camera z looks down (+z world is down in NED), so range is +2.4
        np.testing.assert_allclose(q, [0.5, -1.0, 2.4], atol=1e-12)
        assert extract_yaw(rot) == pytest.approx(0.3, abs=1e-12)

    def test_recoverable_under_tilt(self):
        # tilted camera: projecting back through the extrinsics recovers truth
        tilt = math.radians(2.5)
        pose = overhead_pose(tilt)
        table = observe(frames((1.2, 3.0, 0.0, -0.7)), pose, overhead_config(), TagConfig(),
                        fresh_rng())
        q, rot = pose_of(table[0])
        world = pose.rotation @ q + pose.translation
        np.testing.assert_allclose(world, [1.2, 3.0, 0.0], atol=1e-12)
        r_world = pose.rotation @ rot
        assert extract_yaw(r_world) == pytest.approx(-0.7, abs=1e-12)

    def test_submerged_invisible(self):
        cam = overhead_config()
        table = observe(frames((0.0, 0.0, 0.2, 0.0), (0.0, 0.0, 0.04, 0.0)), LEVEL,
                        cam, TagConfig(), fresh_rng())
        assert table[:, 0].tolist() == [1.0]

    def test_dropout_rate(self):
        cam = overhead_config(dropout_prob=0.3)
        table = observe(frames(*[(2.0, 2.0, 0.0, 0.0)] * 5000), LEVEL, cam, TagConfig(),
                        fresh_rng())
        assert len(table) / 5000 == pytest.approx(0.7, abs=0.02)

    def test_translation_noise_statistics(self):
        cam = overhead_config(translation_noise_sigma=0.003)
        table = observe(frames(*[(2.5, 1.0, 0.0, 0.0)] * 3000), LEVEL, cam, TagConfig(),
                        fresh_rng())
        errs = table[:, 2:5] - [0.5, -1.0, 2.4]
        assert np.abs(np.mean(errs, axis=0)).max() < 3e-4
        np.testing.assert_allclose(np.std(errs, axis=0), 0.003, atol=3e-4)

    def test_rotation_noise_keeps_rotation_valid(self):
        cam = overhead_config(rotation_noise_sigma=0.01)
        table = observe(frames((2.5, 1.0, 0.0, 0.4)), LEVEL, cam, TagConfig(), fresh_rng())
        _, r = pose_of(table[0])
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_spurious_z_outlier(self):
        cam = overhead_config(spurious_z_prob=1.0, spurious_z_offset=0.2)
        table = observe(frames((2.5, 1.0, 0.0, 0.0)), LEVEL, cam, TagConfig(), fresh_rng())
        assert table[0, 4] == pytest.approx(2.6, abs=1e-12)

    def test_deterministic_given_seed(self):
        cam = overhead_config(translation_noise_sigma=0.003, rotation_noise_sigma=0.01,
                              dropout_prob=0.02)
        a = observe(frames((2.5, 1.0, 0.0, 0.0)), LEVEL, cam, TagConfig(), fresh_rng())
        b = observe(frames((2.5, 1.0, 0.0, 0.0)), LEVEL, cam, TagConfig(), fresh_rng())
        assert a.tobytes() == b.tobytes()


class ZeroNormals:
    """A generator whose normal draws are all 0, so every rotation axis is
    the zero vector; its uniform draws come from a seeded generator."""

    def __init__(self, seed):
        self.uniform = np.random.default_rng(seed)

    def random(self):
        return self.uniform.random()

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size) if size is not None else 0.0

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    @property
    def bit_generator(self):
        return self.uniform.bit_generator


def oracle_table(rows, pose, cam, tag, rng):
    """The detection table of ``bf_observe``, one frame at a time."""
    out = []
    for t, x, y, z, psi in rows.tolist():
        seen = bf.bf_observe(x, y, z, psi, pose, cam, tag, rng)
        if seen is not None:
            out.append((t, tag.tag_id, *seen[0], *seen[1].flat))
    return np.array(out, dtype=float).reshape(-1, len(DETECTION_CSV_HEADER))


def random_frames(gen, n):
    """Frames over the tank at a tilted heading; about a third with the tag
    below ``visibility_depth``, some just above it, the rest on the surface."""
    z = gen.choice([0.0, 0.0, 0.04, 0.05, 0.2, 1.0], size=n)
    return np.column_stack([np.sort(gen.uniform(0, 30, n)), gen.uniform(0, 4, n),
                            gen.uniform(0, 4, n), z, gen.uniform(-7, 7, n)])


TILTED = Pose(vec3(2.1, 1.9, -2.4), rot_x(math.radians(2.5)) @ rot_y(math.radians(-1.5)))


MOUNT = TagConfig(tag_id=3)  # the tag on the hull, by an id other than the default

ORACLE_CASES = {
    "defaults": (CameraConfig(), TagConfig()),
    "mount": (CameraConfig(), MOUNT),
    "no_translation_noise": (CameraConfig(translation_noise_sigma=0.0), MOUNT),
    "no_rotation_noise": (CameraConfig(rotation_noise_sigma=0.0), MOUNT),
    "noiseless": (CameraConfig(translation_noise_sigma=0.0, rotation_noise_sigma=0.0,
                               dropout_prob=0.0), MOUNT),
    "dropout_0": (CameraConfig(dropout_prob=0.0), TagConfig()),
    "dropout_half": (CameraConfig(dropout_prob=0.5), MOUNT),
    "dropout_1": (CameraConfig(dropout_prob=1.0), TagConfig()),
    "spurious": (CameraConfig(spurious_z_prob=0.1, spurious_z_offset=0.25), MOUNT),
    "all_branches": (CameraConfig(spurious_z_prob=0.1, rotation_noise_sigma=0.2), MOUNT),
}


class TestObserveOracle:
    """The camera pass against ``bf_observe``, frame by frame: the same
    table bit for bit, and the same draws left behind in the generator."""

    def assert_matches(self, rows, cam, tag, make_rng, pose=TILTED):
        got_rng, want_rng = make_rng(), make_rng()
        got = observe(rows, pose, cam, tag, got_rng)
        want = oracle_table(rows, pose, cam, tag, want_rng)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_equal_to_oracle(self, case, seed):
        cam, tag = ORACLE_CASES[case]
        rows = random_frames(np.random.default_rng(1000 + seed), 300)
        self.assert_matches(rows, cam, tag, lambda: np.random.default_rng(seed))

    def test_random_configs(self):
        gen = np.random.default_rng(77)
        for _ in range(100):
            pose = Pose(gen.normal(size=3), rot_x(gen.normal(0, 0.2)) @ rot_y(gen.normal(0, 0.2)))
            cam = CameraConfig(
                translation_noise_sigma=float(gen.choice([0.0, 0.003, 0.05])),
                rotation_noise_sigma=float(gen.choice([0.0, 0.01, 1.0])),
                dropout_prob=float(gen.choice([0.0, 0.02, 0.5])),
                spurious_z_prob=float(gen.choice([0.0, 0.1])),
            )
            tag = TagConfig(tag_id=int(gen.integers(1000)))
            seed = int(gen.integers(1 << 30))
            self.assert_matches(random_frames(gen, 40), cam, tag,
                                lambda: np.random.default_rng(seed), pose)

    def test_zero_axis_is_identity(self):
        cam, tag = ORACLE_CASES["spurious"]
        rows = random_frames(np.random.default_rng(5), 100)
        got = self.assert_matches(rows, cam, tag, lambda: ZeroNormals(5))
        # without the normal draws, the same uniform draws keep the same frames
        unrotated = observe(rows, TILTED, replace(cam, rotation_noise_sigma=0.0), tag,
                            ZeroNormals(5))
        assert len(got) > 0
        assert got.tobytes() == unrotated.tobytes()

    def test_all_submerged(self):
        cam, tag = ORACLE_CASES["defaults"]
        rows = frames(*[(1.0, 1.0, 0.3, 0.0)] * 10)
        got = self.assert_matches(rows, cam, tag, lambda: np.random.default_rng(1))
        assert got.shape == (0, len(DETECTION_CSV_HEADER))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_no_frames(self, case):
        cam, tag = ORACLE_CASES[case]
        got = self.assert_matches(np.empty((0, 5)), cam, tag, lambda: np.random.default_rng(1))
        assert got.shape == (0, len(DETECTION_CSV_HEADER))


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

    @pytest.mark.parametrize("jitter", [0.0, 0.003])
    def test_shorter_than_one_period_has_no_frame(self, jitter):
        cam = overhead_config(frame_rate=0.01, timestamp_jitter_sigma=jitter)
        assert frame_clock(cam, 8.35, fresh_rng()).shape == (0,)

    def test_bad_duration(self):
        # the run's duration is checked once, with the scenario's settings
        with pytest.raises(ConfigError) as exc:
            get_scenario("line", ["duration=0"]).validate()
        assert exc.value.field_name == "duration"


def test_config_validation():
    # the camera's settings are checked once, with the scenario's
    for setting in ("camera.frame_rate=0", "camera.dropout_prob=1.5"):
        with pytest.raises(ConfigError) as exc:
            get_scenario("line", [setting]).validate()
        assert exc.value.field_name == setting.split("=")[0]


def test_config_holds_no_pose():
    # the camera pose is derived from the scenario's rig settings
    # (Scenario.camera_pose) and passed to observe, not stored in the config
    assert "pose" not in [f.name for f in fields(CameraConfig)]
