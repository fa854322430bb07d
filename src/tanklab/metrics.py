"""Estimate-vs-truth evaluation: circle fit, RMSE metrics, event counters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frames import wrap_angle


class MetricsError(ValueError):
    pass


class Collinear(MetricsError):
    pass


class NoOverlap(MetricsError):
    pass


def circle_fit(points: Sequence[Sequence[float]]) -> tuple[tuple[float, float], float]:
    """Algebraic (Kasa) least-squares circle through planar points.

    Minimizes sum (x^2 + y^2 + D x + E y + F)^2; returns ((cx, cy), radius).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise MetricsError("need at least 3 (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    a = np.column_stack([x, y, np.ones_like(x)])
    b = -(x**2 + y**2)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3:
        raise Collinear("points are collinear; no unique circle")
    dd, ee, ff = sol
    cx, cy = -dd / 2.0, -ee / 2.0
    rad2 = cx * cx + cy * cy - ff
    if rad2 <= 0:
        raise Collinear("degenerate circle fit")
    return (float(cx), float(cy)), float(math.sqrt(rad2))


# One record per simulation step of ground truth; psi is continuous (unwrapped).
TRUTH_DTYPE = np.dtype(
    [(name, float) for name in ("t", "x", "y", "z", "psi", "u", "v", "w", "r", "fill")]
)


def truth_series(table) -> np.recarray:
    """Ground truth on the simulation grid: an ``(n, 10)`` table, columns in
    ``TRUTH_DTYPE`` order, viewed (not copied) as a record array read by
    column (``truth.u``).  The syringe fill is ``truth["fill"]``, since
    ``truth.fill`` is ``ndarray.fill``."""
    table = np.ascontiguousarray(table, dtype=float)
    return table.view(TRUTH_DTYPE).reshape(-1).view(np.recarray)


@dataclass(frozen=True)
class FrameAlignment:
    """Maps NED truth into a pipeline segment's recovered world frame.

    ``rotation`` is the camera-to-recovered-world basis composed with the
    world-to-camera extrinsics; ``origin_xyz`` is the truth position at the
    segment's first detection.  The recovered planar basis may be a
    reflection of the truth basis, which flips sway and yaw rate; the sign
    is the determinant of the planar block.
    """

    rotation: np.ndarray
    origin_xyz: np.ndarray

    @property
    def planar_sign(self) -> float:
        m = self.rotation[:2, :2]
        return 1.0 if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) >= 0 else -1.0

    @staticmethod
    def identity() -> "FrameAlignment":
        return FrameAlignment(np.eye(3), np.zeros(3))


def _interp_truth(truth: np.recarray, times: np.ndarray) -> dict[str, np.ndarray]:
    return {
        name: np.interp(times, truth.t, truth[name])
        for name in ("x", "y", "z", "psi", "u", "v", "r")
    }


def truth_in_estimate_frame(
    truth: np.recarray, times: np.ndarray, align: FrameAlignment
) -> dict[str, np.ndarray]:
    """Truth kinematics at ``times``, expressed in the estimate's frame.

    Surge is invariant under the rigid planar change of basis; sway and yaw
    rate pick up the handedness sign; yaw maps through the planar block.
    """
    s = _interp_truth(truth, times)
    rot = align.rotation
    p = np.column_stack([s["x"], s["y"], s["z"]]) - align.origin_xyz
    pw = p @ rot.T
    bx = np.column_stack([np.cos(s["psi"]), np.sin(s["psi"]), np.zeros_like(s["psi"])])
    bw = bx @ rot.T
    psi = np.arctan2(bw[:, 1], bw[:, 0])
    sign = align.planar_sign
    return {
        "x": pw[:, 0],
        "y": pw[:, 1],
        "psi": psi,
        "u": s["u"],
        "v": sign * s["v"],
        "r": sign * s["r"],
    }


def residuals(
    truth: np.recarray,
    estimates: np.recarray,
    alignment: FrameAlignment | None = None,
    smoothing_window: int = 12,
    output_rate: float = 30.0,
) -> dict[str, np.ndarray]:
    """Per-sample estimate-minus-truth residuals for one pipeline segment.

    ``estimates`` is the segment's state series, on one uniform grid.
    Samples within one smoothing window of either segment edge are
    excluded.  Velocity channels are compared against truth sampled one
    filter group delay ((window-1)/2 samples) earlier, since the trailing
    moving average lags by that amount.
    """
    align = alignment or FrameAlignment.identity()
    est = estimates[smoothing_window : len(estimates) - smoothing_window]
    t = est.timestamp
    if t.size == 0 or t[0] > truth.t[-1] or t[-1] < truth.t[0]:
        raise NoOverlap("no estimates past the smoothing edges overlap truth")

    pose_truth = truth_in_estimate_frame(truth, t, align)
    lag = (smoothing_window - 1) / 2.0 / output_rate
    vel_truth = truth_in_estimate_frame(truth, t - lag, align)
    return {
        "t": t,
        "x": est.x - pose_truth["x"],
        "y": est.y - pose_truth["y"],
        "psi": wrap_angle(est.psi - pose_truth["psi"]),
        "u": est.u - vel_truth["u"],
        "v": est.v - vel_truth["v"],
        "r": est.r - vel_truth["r"],
    }


def metrics_from_residuals(res: dict[str, np.ndarray]) -> dict[str, float]:
    out = {
        "rmse_xy": float(np.sqrt(np.mean(res["x"] ** 2 + res["y"] ** 2))),
        "rmse_psi": float(np.sqrt(np.mean(res["psi"] ** 2))),
        "rmse_u": float(np.sqrt(np.mean(res["u"] ** 2))),
        "rmse_v": float(np.sqrt(np.mean(res["v"] ** 2))),
        "rmse_r": float(np.sqrt(np.mean(res["r"] ** 2))),
        "mean_v": float(np.mean(res["v"])),
        "n_compared": float(res["t"].size),
    }
    return out


def path_length(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(np.hypot(np.diff(x), np.diff(y))))


def count_sign_changes(values: Sequence[float], hysteresis: float) -> int:
    """Sign changes that swing past +/-hysteresis (small wiggles ignored)."""
    state = 0
    changes = 0
    for v in values:
        if v > hysteresis:
            if state == -1:
                changes += 1
            state = 1
        elif v < -hysteresis:
            if state == 1:
                changes += 1
            state = -1
    return changes


def count_reversals(depth: Sequence[float], min_excursion: float = 0.05) -> int:
    """Direction reversals of a depth profile, ignoring excursions smaller
    than ``min_excursion``."""
    d = np.asarray(depth, dtype=float)
    if d.size < 3:
        return 0
    reversals = 0
    direction = 0
    anchor = d[0]
    for v in d[1:]:
        delta = v - anchor
        if direction == 0:
            if abs(delta) >= min_excursion:
                direction = 1 if delta > 0 else -1
                anchor = v
        elif direction * delta >= 0:
            anchor = max(anchor, v) if direction > 0 else min(anchor, v)
        elif abs(delta) >= min_excursion:
            reversals += 1
            direction = -direction
            anchor = v
    return reversals
