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


class GeometryError(ValueError):
    """Base class for geometry failures."""


class DegenerateConfiguration(GeometryError):
    """No unique plane: fewer than three points, or normal equations that are
    singular (points collinear in x-y)."""


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle, or each angle of an array, to (-pi, pi]."""
    a = angle - TWO_PI * np.floor((angle + math.pi) / TWO_PI)
    return np.where(a <= -math.pi, math.pi, a)[()]


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product ``a @ b``, broadcast over stacks as ``@`` is, with
    each entry summed over the inner index in order,
    ``a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + ...``, one rounding per
    multiply and per add.  Its bits therefore depend on neither the BLAS
    kernel nor the CPU, where ``@`` may fuse multiply-adds or reorder the sum.
    The result is in Fortran order, so that numpy's loops run along the
    stack rather than along rows of 3.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.multiply(a[..., :, 0, None], b[..., 0, None, :], order="F")
    for k in range(1, a.shape[-1]):
        out += np.multiply(a[..., :, k, None], b[..., k, None, :], order="F")
    return out


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class PlaneCoefficients:
    """Coefficients of a*x + b*y + c*z + d = 0 with c fixed at -1."""

    a: float
    b: float
    d: float

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
        x[col] = (m[col, 3] - np.sum(m[col, col + 1 : 3] * x[col + 1 : 3])) / m[col, col]
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
        raise DegenerateConfiguration("plane fit needs at least 3 points, got %d" % n)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    ata = np.array(
        [
            [np.sum(x * x), np.sum(x * y), np.sum(x)],
            [np.sum(x * y), np.sum(y * y), np.sum(y)],
            [np.sum(x), np.sum(y), float(n)],
        ]
    )
    atb = np.array([np.sum(x * z), np.sum(y * z), np.sum(z)])
    a, b, d = _solve3(ata, atb)
    return PlaneCoefficients(a=float(a), b=float(b), d=float(d))


def _norm(v: np.ndarray) -> float:
    """The length of a 3-vector, its squares summed in order."""
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def world_rotation(plane: PlaneCoefficients) -> np.ndarray:
    """Orthonormal world basis from a fitted plane.

    Rows are (u1, u2, u3): u3 is the unit plane normal, u1 the normalized
    cross product of the normal with the x-axis, and u2 = u3 x u1 so the
    result is a proper rotation.  The matrix maps camera-frame vectors to
    world coordinates; in particular it sends the plane normal to (0,0,1).
    """
    n = plane.normal
    norm = _norm(n)
    u3 = n / norm
    u1 = np.cross(n, [1.0, 0.0, 0.0])
    n1 = _norm(u1)
    # sin of the angle between the normal and the x-axis
    if n1 / norm < 1e-6:
        raise GeometryError("plane normal is parallel to the x-axis")
    u1 = u1 / n1
    u2 = np.cross(u3, u1)
    return np.vstack([u1, u2, u3])


def extract_yaw(r: np.ndarray) -> float | np.ndarray:
    """Yaw of a rotation, or of each rotation of an ``(..., 3, 3)`` stack,
    from a yaw-pitch-roll decomposition: ``math.atan2`` per rotation, so a
    stack gives the one-rotation results bit for bit.

    Raises GeometryError when any frame is seen edge-on.
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r[..., 2, 0]) > 1.0 - 1e-9):
        raise GeometryError("rotation is edge-on; yaw undefined")
    yaws = map(math.atan2, np.ravel(r[..., 1, 0]).tolist(), np.ravel(r[..., 0, 0]).tolist())
    return np.reshape(list(yaws), r.shape[:-2])[()]


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
