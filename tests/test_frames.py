import ast
import math
from pathlib import Path

import numpy as np
import pytest

from tanklab import frames
from tanklab.frames import (
    DegenerateConfiguration,
    GeometryError,
    PlaneCoefficients,
    body_velocities,
    extract_yaw,
    fit_plane,
    rot_x,
    rot_y,
    rot_z,
    vec3,
    world_rotation,
    wrap_angle,
)


def random_plane_points(rng, a, b, d, n=50, span=2.0, noise=0.0):
    x = rng.uniform(-span, span, n)
    y = rng.uniform(-span, span, n)
    z = a * x + b * y + d
    if noise:
        z = z + rng.normal(0, noise, n)
    return np.column_stack([x, y, z])


class TestFitPlane:
    def test_horizontal_plane(self, rng):
        pts = random_plane_points(rng, 0.0, 0.0, 5.0)
        p = fit_plane(pts)
        assert p.a == pytest.approx(0.0, abs=1e-12)
        assert p.b == pytest.approx(0.0, abs=1e-12)
        assert p.normal[2] == -1.0
        assert p.d == pytest.approx(5.0, abs=1e-12)

    def test_exact_plane_zero_residual(self, rng):
        pts = random_plane_points(rng, 0.1, 0.2, 3.0)
        p = fit_plane(pts)
        assert p.a == pytest.approx(0.1, abs=1e-10)
        assert p.b == pytest.approx(0.2, abs=1e-10)
        assert p.d == pytest.approx(3.0, abs=1e-10)
        residual = p.a * pts[:, 0] + p.b * pts[:, 1] - pts[:, 2] + p.d
        assert np.max(np.abs(residual)) < 1e-9

    def test_noisy_plane_matches_lstsq_oracle(self, rng):
        # oracle: independent least-squares solve of the same system
        pts = random_plane_points(rng, 0.05, -0.03, 1.0, n=200, noise=0.01)
        p = fit_plane(pts)
        a = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
        oracle, *_ = np.linalg.lstsq(a, pts[:, 2], rcond=None)
        assert p.a == pytest.approx(oracle[0], abs=1e-9)
        assert p.b == pytest.approx(oracle[1], abs=1e-9)
        assert p.d == pytest.approx(oracle[2], abs=1e-9)
        assert abs(p.a - 0.05) < 0.005
        assert abs(p.b + 0.03) < 0.005
        assert abs(p.d - 1.0) < 0.005

    def test_too_few_points(self):
        with pytest.raises(DegenerateConfiguration, match="at least 3 points"):
            fit_plane([[0, 0, 0], [1, 0, 0]])

    @pytest.mark.parametrize("pts", [np.zeros(6), np.zeros((4, 2)), np.zeros((2, 2, 3))])
    def test_not_n_by_3(self, pts):
        with pytest.raises(GeometryError, match="Nx3"):
            fit_plane(pts)

    def test_collinear_points(self):
        t = np.linspace(0, 1, 20)
        pts = np.column_stack([t, 2 * t, 3 * t])
        with pytest.raises(DegenerateConfiguration):
            fit_plane(pts)


class TestWorldRotation:
    def test_level_plane_closed_form(self):
        r = world_rotation(PlaneCoefficients(0.0, 0.0, 5.0))
        expected = np.array([[0, -1, 0], [-1, 0, 0], [0, 0, -1]], dtype=float)
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_normal_maps_to_z(self, rng):
        for _ in range(100):
            p = PlaneCoefficients(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
            r = world_rotation(p)
            n = p.normal / np.linalg.norm(p.normal)
            np.testing.assert_allclose(r @ n, [0, 0, 1], atol=1e-9)

    def test_orthonormal_proper(self):
        r = world_rotation(PlaneCoefficients(0.1, 0.2, 0.0))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_normal(self):
        # normal nearly along +x: angle to the x-axis below tolerance
        with pytest.raises(GeometryError, match="parallel to the x-axis"):
            world_rotation(PlaneCoefficients(1e9, 0.0, 0.0))


def to_world(q, origin, r):
    """The pipeline's world transform of camera-frame points ``q``."""
    return (np.asarray(q) - origin) @ r.T


class TestToWorld:
    def test_origin_maps_to_zero(self):
        r = world_rotation(PlaneCoefficients(0.3, -0.2, 1.0))
        q = np.array([[1.5, -0.4, 2.0], [0.2, 0.1, 2.1]])
        np.testing.assert_allclose(to_world(q, q[0], r)[0], [0, 0, 0], atol=1e-12)

    def test_identity_rotation_offset(self):
        origin = vec3(0.5, 0.5, 0.5)
        out = to_world([origin + vec3(1, 2, 3)], origin, np.eye(3))
        np.testing.assert_allclose(out, [[1, 2, 3]], atol=1e-12)

    def test_level_plane_example(self):
        r = world_rotation(PlaneCoefficients(0.0, 0.0, 0.0))
        np.testing.assert_allclose(r @ [1, 0, 0], [0, -1, 0], atol=1e-12)

    def test_invertible(self, rng):
        r = world_rotation(PlaneCoefficients(0.1, -0.3, 0.7))
        origin = vec3(0.2, 0.9, -0.1)
        q = rng.uniform(-2, 2, (5, 3))
        back = to_world(q, origin, r) @ r + origin
        np.testing.assert_allclose(back, q, atol=1e-12)


class TestMm:
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 3), (3, 3)), ((3, 3), (40, 3, 3)), ((40, 3, 3), (3, 3)), ((40, 3, 3), (40, 3, 3)),
        ((40, 3), (3, 3)), ((40, 1, 3), (40, 3, 1)), ((2, 4), (4, 5)), ((0, 3), (3, 3)),
    ])
    def test_entries_are_in_order_sums(self, a_shape, b_shape):
        gen = np.random.default_rng(len(a_shape) * 10 + len(b_shape))
        a, b = gen.normal(size=a_shape), gen.normal(size=b_shape)
        a.flat[::7], b.flat[::5] = 0.0, -0.0  # signed zeros must sum as they do in order
        got = frames.mm(a, b)
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a_full = np.broadcast_to(a, stack + a.shape[-2:])
        b_full = np.broadcast_to(b, stack + b.shape[-2:])
        want = np.empty(stack + (a.shape[-2], b.shape[-1]))
        for s in np.ndindex(stack):
            x, y = a_full[s].tolist(), b_full[s].tolist()
            for i, j in np.ndindex(want.shape[-2:]):
                acc = x[i][0] * y[0][j]
                for k in range(1, len(y)):
                    acc = acc + x[i][k] * y[k][j]
                want[s + (i, j)] = acc
        assert got.shape == want.shape == (a @ b).shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-12)


class TestExtractYaw:
    def test_identity(self):
        assert extract_yaw(np.eye(3)) == 0.0

    def test_pure_yaw(self):
        assert extract_yaw(rot_z(0.7)) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(-math.pi + 1e-6, math.pi, 16))
    def test_yaw_round_trip(self, theta):
        assert extract_yaw(rot_z(theta)) == pytest.approx(theta, abs=1e-12)

    def test_yaw_with_small_tilt(self):
        r = rot_z(0.7) @ rot_x(math.radians(3.0))
        assert extract_yaw(r) == pytest.approx(0.7, abs=2e-3)

    def test_gimbal_degenerate(self):
        with pytest.raises(GeometryError, match="edge-on"):
            extract_yaw(rot_y(math.pi / 2))

    def test_stack_keeps_its_shape(self):
        stack = np.stack([rot_z(a) @ rot_x(0.1) for a in np.linspace(-3.0, 3.0, 6)])
        yaws = extract_yaw(stack.reshape(2, 3, 3, 3))
        assert yaws.shape == (2, 3)
        assert yaws.tobytes() == np.array([extract_yaw(r) for r in stack]).tobytes()
        assert extract_yaw(stack[:0]).shape == (0,)
        assert np.ndim(extract_yaw(stack[0])) == 0

    def test_one_edge_on_rotation_in_a_stack(self):
        stack = np.stack([rot_z(0.3), rot_y(math.pi / 2), rot_z(-1.0)])
        with pytest.raises(GeometryError, match=r"^rotation is edge-on; yaw undefined$"):
            extract_yaw(stack)


def test_atan2_only_in_frames():
    # the yaw rule is written once, in frames.extract_yaw: no other module
    # names an atan2
    named = {path.name for path in Path(frames.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "atan2"
             or isinstance(node, ast.alias) and node.name == "atan2"}
    assert named == {"frames.py"}


class TestBodyVelocities:
    def test_zero_heading(self):
        assert body_velocities(0.3, 0.1, 0.0) == pytest.approx((0.3, 0.1, 0.0))

    def test_quarter_turn(self):
        u, v, w = body_velocities(0.3, 0.1, math.pi / 2)
        assert (u, v, w) == pytest.approx((0.1, -0.3, 0.0), abs=1e-12)

    def test_norm_preserved(self, rng):
        xds, yds, psis = rng.uniform(-1, 1, (3, 50))
        us, vs, _ = body_velocities(xds, yds, np.pi * psis)
        for xd, yd, psi, ua, va in zip(xds, yds, np.pi * psis, us, vs):
            u, v, _ = body_velocities(xd, yd, psi)
            assert u * u + v * v == pytest.approx(xd * xd + yd * yd, abs=1e-12)
            # the array path gives the scalar path's bits
            assert np.array([u, v]).tobytes() == np.array([ua, va]).tobytes()

    def test_matches_explicit_matrix_product(self, rng):
        xd, yd, psi = 0.4, -0.2, 1.1
        c, s = math.cos(psi), math.sin(psi)
        m = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
        expected = m @ [xd, yd, 0.0]
        assert body_velocities(xd, yd, psi) == pytest.approx(tuple(expected), abs=1e-12)


class TestAngles:
    @pytest.mark.parametrize(
        "raw,expected",
        [(math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi),
         (0.0, 0.0), (7.0, 7.0 - 2 * math.pi)],
    )
    def test_wrap_angle(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)
        # the array path gives the scalar path's bits, element by element
        raws = raw + np.linspace(-20.0, 20.0, 41)
        scalar = np.array([wrap_angle(float(a)) for a in raws])
        assert wrap_angle(raws).tobytes() == scalar.tobytes()

