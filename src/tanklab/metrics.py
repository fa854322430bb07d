"""Estimate-vs-truth evaluation: circle fit, RMSE metrics, event counters."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .frames import mm, wrap_angle


class MetricsError(ValueError):
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
        raise MetricsError("points are collinear; no unique circle")
    dd, ee, ff = sol
    cx, cy = -dd / 2.0, -ee / 2.0
    rad2 = cx * cx + cy * cy - ff
    if rad2 <= 0:
        raise MetricsError("degenerate circle fit")
    return (float(cx), float(cy)), float(math.sqrt(rad2))


def residuals(
    truth: np.recarray,
    estimates: np.recarray,
    rotation: np.ndarray,
    origin: np.ndarray,
    smoothing_window: int,
    output_rate: float,
) -> dict[str, np.ndarray]:
    """Per-sample estimate-minus-truth residuals for one pipeline segment.

    ``estimates`` is the segment's state series, on one uniform grid.
    Samples within one smoothing window of either segment edge are
    excluded.  Velocity channels are compared against truth sampled one
    filter group delay ((window-1)/2 samples) earlier, since the trailing
    moving average lags by that amount.

    Truth is mapped into the segment's recovered world frame: ``origin`` is
    the truth position at the segment's first detection, and ``rotation``
    the camera-to-recovered-world basis composed with the world-to-camera
    extrinsics.  Position and heading map through ``rotation``; surge is
    invariant.  The recovered planar basis may be a reflection of the truth
    basis, which flips sway and yaw rate; the sign is the determinant of the
    planar block.
    """
    est = estimates[smoothing_window : len(estimates) - smoothing_window]
    t = est.timestamp
    if t.size == 0 or t[0] > truth.t[-1] or t[-1] < truth.t[0]:
        raise NoOverlap("no estimates past the smoothing edges overlap truth")

    x, y, z, psi = (np.interp(t, truth.t, truth[name]) for name in ("x", "y", "z", "psi"))
    lag = (smoothing_window - 1) / 2.0 / output_rate
    u, v, r = (np.interp(t - lag, truth.t, truth[name]) for name in ("u", "v", "r"))
    position = mm(np.column_stack([x, y, z]) - origin, rotation.T)
    heading = mm(np.column_stack([np.cos(psi), np.sin(psi), np.zeros_like(psi)]), rotation.T)
    m = rotation[:2, :2]
    sign = 1.0 if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) >= 0 else -1.0
    return {
        "t": t,
        "x": est.x - position[:, 0],
        "y": est.y - position[:, 1],
        "psi": wrap_angle(est.psi - np.arctan2(heading[:, 1], heading[:, 0])),
        "u": est.u - u,
        "v": est.v - sign * v,
        "r": est.r - sign * r,
    }


def path_length(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(np.hypot(np.diff(x), np.diff(y))))


def count_sign_changes(values: Sequence[float], hysteresis: float) -> int:
    """Sign changes that swing past +/-hysteresis (small wiggles ignored),
    with ``hysteresis >= 0``."""
    if not (hysteresis >= 0):
        raise MetricsError("hysteresis must be >= 0, got %r" % hysteresis)
    v = np.asarray(values, dtype=float)
    side = np.sign(v[np.abs(v) > hysteresis])
    return int(np.count_nonzero(side[1:] != side[:-1]))


def count_reversals(depth: Sequence[float], min_excursion: float = 0.05) -> int:
    """Direction reversals of a depth profile, ignoring excursions smaller
    than ``min_excursion``, which must be > 0: at 0 a flat first step would
    set a direction."""
    if not (min_excursion > 0):
        raise MetricsError("min_excursion must be > 0, got %r" % min_excursion)
    # A flat step never moves the state (min_excursion > 0), and a monotone
    # run moves it as its two ends do: keep the ends and the turning points.
    d = np.asarray(depth, dtype=float)
    d = d[np.diff(d, prepend=np.nan) != 0]
    if d.size < 3:
        return 0
    step = np.sign(np.diff(d))
    d = d[np.concatenate(([True], step[1:] != step[:-1], [True]))].tolist()
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
