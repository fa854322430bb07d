"""Geometry core: plane fitting, world-frame construction, and planar kinematics.

All rotations are plain 3x3 numpy arrays; vectors are length-3 arrays.
Angles are radians everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

_PIVOT_TOL = 1e-12
_ROT_TOL = 1e-9


class GeometryError(ValueError):
    """Base class for geometry failures."""


class InsufficientPoints(GeometryError):
    """Fewer than three points supplied to the plane fit."""


class DegenerateConfiguration(GeometryError):
    """Plane-fit normal equations are singular (points collinear in x-y)."""


class DegenerateNormal(GeometryError):
    """Plane normal is parallel to the x-axis; basis construction fails."""


class GimbalDegenerate(GeometryError):
    """Rotation is edge-on; yaw cannot be extracted."""


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle, or each angle of an array, to (-pi, pi]."""
    a = angle - TWO_PI * np.floor((angle + math.pi) / TWO_PI)
    return np.where(a <= -math.pi, math.pi, a)[()]


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle(axis: Sequence[float], angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n == 0.0:
        return np.eye(3)
    a = a / n
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def is_rotation(r: np.ndarray, tol: float = _ROT_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if not np.all(np.isfinite(r)):
        return False
    if np.max(np.abs(r @ r.T - np.eye(3))) > tol:
        return False
    return abs(np.linalg.det(r) - 1.0) <= tol


@dataclass(frozen=True)
class PlaneCoefficients:
    """Coefficients of a*x + b*y + c*z + d = 0 with c fixed at -1."""

    a: float
    b: float
    d: float

    @property
    def c(self) -> float:
        return -1.0

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.a, self.b, -1.0])


@dataclass(frozen=True)
class Pose:
    """Rigid pose: translation (m) and rotation, both numpy arrays."""

    translation: np.ndarray
    rotation: np.ndarray

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.eye(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.translation + self.rotation @ other.translation,
            self.rotation @ other.rotation,
        )


def _solve3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 Gaussian elimination with partial pivoting.

    Raises DegenerateConfiguration when a pivot falls below the relative
    singularity tolerance.
    """
    m = np.hstack([a.astype(float), b.reshape(3, 1).astype(float)])
    scale = max(1.0, np.max(np.abs(a)))
    for col in range(3):
        pivot_row = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[pivot_row, col]) <= _PIVOT_TOL * scale:
            raise DegenerateConfiguration("plane-fit system is singular")
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
        for row in range(col + 1, 3):
            f = m[row, col] / m[col, col]
            m[row, col:] -= f * m[col, col:]
    x = np.zeros(3)
    for col in range(2, -1, -1):
        x[col] = (m[col, 3] - m[col, col + 1 : 3] @ x[col + 1 : 3]) / m[col, col]
    return x


def fit_plane(points: Iterable[Sequence[float]]) -> PlaneCoefficients:
    """Least-squares plane z = a*x + b*y + d through 3D points.

    Minimizes the 2-norm of z residuals via the normal equations with
    partial pivoting.
    """
    pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError("expected an Nx3 array of points")
    n = pts.shape[0]
    if n < 3:
        raise InsufficientPoints("plane fit needs at least 3 points, got %d" % n)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    ata = np.array(
        [
            [np.dot(x, x), np.dot(x, y), np.sum(x)],
            [np.dot(x, y), np.dot(y, y), np.sum(y)],
            [np.sum(x), np.sum(y), float(n)],
        ]
    )
    atb = np.array([np.dot(x, z), np.dot(y, z), np.sum(z)])
    a, b, d = _solve3(ata, atb)
    return PlaneCoefficients(a=float(a), b=float(b), d=float(d))


def world_rotation(plane: PlaneCoefficients) -> np.ndarray:
    """Orthonormal world basis from a fitted plane.

    Rows are (u1, u2, u3): u3 is the unit plane normal, u1 the normalized
    cross product of the normal with the x-axis, and u2 = u3 x u1 so the
    result is a proper rotation.  The matrix maps camera-frame vectors to
    world coordinates; in particular it sends the plane normal to (0,0,1).
    """
    n = plane.normal
    u3 = n / np.linalg.norm(n)
    u1 = np.cross(n, [1.0, 0.0, 0.0])
    n1 = np.linalg.norm(u1)
    # sin of the angle between the normal and the x-axis
    if n1 / np.linalg.norm(n) < 1e-6:
        raise DegenerateNormal("plane normal is parallel to the x-axis")
    u1 = u1 / n1
    u2 = np.cross(u3, u1)
    return np.vstack([u1, u2, u3])


def to_world(
    detection_translation: np.ndarray, origin: np.ndarray, r_oc: np.ndarray
) -> np.ndarray:
    """Express a camera-frame point in the fitted world frame.

    ``r_oc`` is the row-basis matrix from :func:`world_rotation` (camera to
    world), so the transform is a plain matrix product after removing the
    origin offset.
    """
    q = np.asarray(detection_translation, dtype=float)
    o = np.asarray(origin, dtype=float)
    return np.asarray(r_oc, dtype=float) @ (q - o)


def extract_yaw(r: np.ndarray) -> float:
    """Yaw of a rotation, from a yaw-pitch-roll decomposition.

    Raises GimbalDegenerate when the frame is seen edge-on.
    """
    r = np.asarray(r, dtype=float)
    if abs(r[2, 0]) > 1.0 - 1e-9:
        raise GimbalDegenerate("rotation is edge-on; yaw undefined")
    return math.atan2(r[1, 0], r[0, 0])


def body_velocities(xdot: float | np.ndarray, ydot: float | np.ndarray,
                    psi: float | np.ndarray) -> tuple:
    """World-frame planar velocity rotated into body surge/sway; heave is 0.

    Takes scalars or equal-shape arrays, and returns (u, v, 0.0) of the same
    kind; element by element, arrays give the scalar results bit for bit.
    """
    c, s = np.cos(psi), np.sin(psi)
    u = c * xdot + s * ydot
    v = -s * xdot + c * ydot
    return u, v, 0.0
