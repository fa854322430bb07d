"""Tag-detection processing pipeline.

Turns a stream of camera-frame tag poses into uniformly sampled planar
kinematic states (x, y, psi, u, v, r): plane fit, world transform, yaw
extraction, resampling, finite differencing, and moving-average smoothing.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import frames
from .frames import Pose, PlaneCoefficients


class TrackingError(ValueError):
    pass


class EmptyInput(TrackingError):
    pass


class SegmentTooShort(TrackingError):
    pass


class WindowTooLarge(TrackingError):
    pass


class NonMonotoneTimestamps(TrackingError):
    pass


@dataclass(frozen=True)
class TagDetection:
    """One timestamped camera-frame observation of the vehicle tag."""

    timestamp: float
    tag_id: int
    pose: Pose


@dataclass(frozen=True)
class DetectionSegment:
    """Contiguous run of detections with bounded inter-frame gaps."""

    detections: tuple[TagDetection, ...]

    def __len__(self) -> int:
        return len(self.detections)


@dataclass
class PipelineConfig:
    smoothing_window: int = 12
    output_rate: float = 30.0
    max_gap: float = 0.25
    outlier_z_jump: float = 0.05

    def validate(self) -> None:
        if self.smoothing_window < 1:
            raise TrackingError("smoothing_window must be >= 1")
        if self.output_rate <= 0:
            raise TrackingError("output_rate must be > 0")
        if self.max_gap <= 0:
            raise TrackingError("max_gap must be > 0")


# One record per uniformly sampled pipeline output.
STATE_DTYPE = np.dtype(
    [(name, float) for name in ("timestamp", "x", "y", "psi", "u", "v", "r")]
)


def state_series(timestamp, x, y, psi, u, v, r) -> np.recarray:
    """A state series: equal-length columns joined into a record array of
    ``STATE_DTYPE``, read by column (``states.u``) or by row (``states[i].u``)."""
    return np.rec.fromarrays([timestamp, x, y, psi, u, v, r], dtype=STATE_DTYPE)


@dataclass(frozen=True)
class PipelineDiagnostics:
    """Fitted quantities behind a pipeline run, for alignment and debugging."""

    plane: PlaneCoefficients
    rotation: np.ndarray
    origin: np.ndarray
    first_timestamp: float


def unwrap_angles(series: Sequence[float]) -> np.ndarray:
    """Remove 2*pi jumps so consecutive samples differ by < pi."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise EmptyInput("cannot unwrap an empty series")
    return np.unwrap(arr)


def finite_difference(values: Sequence[float], dt: float) -> np.ndarray:
    """Central differences in the interior, one-sided at the endpoints."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise SegmentTooShort("finite difference needs at least 2 samples")
    return np.gradient(arr, dt)


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average; the window grows over the first samples."""
    arr = np.asarray(values, dtype=float)
    if window < 1:
        raise TrackingError("window must be >= 1")
    if arr.size < window:
        raise WindowTooLarge(
            "window %d larger than input of length %d" % (window, arr.size)
        )
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    out = np.empty_like(arr)
    n = arr.size
    head = min(window - 1, n)
    for i in range(head):
        out[i] = csum[i + 1] / (i + 1)
    idx = np.arange(window - 1, n)
    out[window - 1 :] = (csum[idx + 1] - csum[idx + 1 - window]) / window
    return out


def resample_uniform(
    timestamps: Sequence[float], values: Sequence[float], rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation onto a uniform grid starting at the first stamp."""
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2:
        raise SegmentTooShort("resampling needs at least 2 samples")
    if np.any(np.diff(t) <= 0):
        raise NonMonotoneTimestamps("timestamps must be strictly increasing")
    grid = _uniform_grid(t[0], t[-1], rate)
    return grid, np.interp(grid, t, v)


def _uniform_grid(t0: float, t1: float, rate: float) -> np.ndarray:
    n = int(np.floor((t1 - t0) * rate + 1e-9)) + 1
    return t0 + np.arange(n) / rate


def segment_stream(
    detections: Sequence[TagDetection], config: PipelineConfig | None = None
) -> list[DetectionSegment]:
    """Split a detection stream into gap-bounded segments.

    Rejects spurious detections whose camera-frame z jumps more than
    ``outlier_z_jump`` from the running median of the previous five kept
    detections, then splits wherever the inter-detection gap exceeds
    ``max_gap``.  Segments shorter than two detections are dropped.
    """
    cfg = config or PipelineConfig()
    cfg.validate()
    if len(detections) == 0:
        raise EmptyInput("no detections")
    times = [d.timestamp for d in detections]
    if any(b < a for a, b in zip(times, times[1:])):
        raise TrackingError("detections must be sorted by timestamp")

    kept: list[TagDetection] = []
    recent_z: list[float] = []
    for det in detections:
        z = float(det.pose.translation[2])
        if recent_z:
            med = statistics.median(recent_z[-5:])
            if abs(z - med) > cfg.outlier_z_jump:
                continue
        kept.append(det)
        recent_z.append(z)

    segments: list[DetectionSegment] = []
    run: list[TagDetection] = []
    for det in kept:
        if run and det.timestamp - run[-1].timestamp > cfg.max_gap:
            if len(run) >= 2:
                segments.append(DetectionSegment(tuple(run)))
            run = []
        run.append(det)
    if len(run) >= 2:
        segments.append(DetectionSegment(tuple(run)))
    return segments


def run_pipeline(
    segment: DetectionSegment, config: PipelineConfig | None = None
) -> np.recarray:
    states, _ = run_pipeline_detailed(segment, config)
    return states


def run_pipeline_detailed(
    segment: DetectionSegment, config: PipelineConfig | None = None
) -> tuple[np.recarray, PipelineDiagnostics]:
    """Full estimation pipeline over one detection segment.

    Ordering: plane fit, world basis, first-frame origin, world transform,
    yaw extraction + unwrap, resample positions/yaw to the uniform grid,
    central finite differences, trailing moving average on the derivatives,
    then rotation into body surge/sway.  Yaw is extracted from the fitted
    world rotation composed with each detection rotation so that heading and
    translation share one frame.
    """
    cfg = config or PipelineConfig()
    cfg.validate()
    dets = segment.detections
    if len(dets) < 2:
        raise SegmentTooShort("segment has fewer than 2 detections")

    q = np.array([d.pose.translation for d in dets], dtype=float)
    t = np.array([d.timestamp for d in dets], dtype=float)

    try:
        plane = frames.fit_plane(q)
    except frames.DegenerateConfiguration:
        # stationary or perfectly collinear track: no tilt observable, so
        # assume a level plane at the mean detection height
        plane = PlaneCoefficients(0.0, 0.0, float(np.mean(q[:, 2])))
    r_oc = frames.world_rotation(plane)
    origin = q[0].copy()
    world = (q - origin) @ r_oc.T
    yaw = unwrap_angles([frames.extract_yaw(r_oc @ d.pose.rotation) for d in dets])

    rate = cfg.output_rate
    grid, x = resample_uniform(t, world[:, 0], rate)
    _, y = resample_uniform(t, world[:, 1], rate)
    _, psi = resample_uniform(t, yaw, rate)

    window = cfg.smoothing_window
    if grid.size < 2 * window:
        raise SegmentTooShort(
            "resampled segment of %d samples is shorter than 2x window %d"
            % (grid.size, window)
        )

    dt = 1.0 / rate
    xdot = moving_average(finite_difference(x, dt), window)
    ydot = moving_average(finite_difference(y, dt), window)
    r = moving_average(finite_difference(psi, dt), window)

    u, v, _ = frames.body_velocities(xdot, ydot, psi)
    states = state_series(grid, x, y, frames.wrap_angle(psi), u, v, r)
    diag = PipelineDiagnostics(
        plane=plane, rotation=r_oc, origin=origin, first_timestamp=float(t[0])
    )
    return states, diag


DETECTION_CSV_HEADER = [
    "t", "tag_id", "tx", "ty", "tz",
    "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
]
STATE_CSV_HEADER = ["t", "x", "y", "psi", "u", "v", "r"]


def fmt(x: float) -> str:
    """The one number format of every CSV artifact."""
    return "%.12g" % x


def write_rows(path, header, rows) -> None:
    """Write a header and already formatted rows as CSV with Unix line endings."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_detections_csv(path, detections: Iterable[TagDetection]) -> None:
    write_rows(
        path, DETECTION_CSV_HEADER,
        (
            [fmt(d.timestamp), d.tag_id]
            + [fmt(v) for v in d.pose.translation]
            + [fmt(v) for v in d.pose.rotation.reshape(-1)]
            for d in detections
        ),
    )


def read_detections_csv(path) -> list[TagDetection]:
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != DETECTION_CSV_HEADER:
            raise TrackingError("unexpected detection CSV header: %r" % header)
        for row in rd:
            vals = [float(v) for v in row]
            rot = np.array(vals[5:14]).reshape(3, 3)
            out.append(
                TagDetection(
                    timestamp=vals[0],
                    tag_id=int(vals[1]),
                    pose=Pose(np.array(vals[2:5]), rot),
                )
            )
    return out


def write_states_csv(path, states: np.recarray) -> None:
    write_rows(path, STATE_CSV_HEADER, ([fmt(v) for v in row] for row in states.tolist()))


def read_states_csv(path) -> np.recarray:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != STATE_CSV_HEADER:
            raise TrackingError("unexpected state CSV header: %r" % header)
        table = np.array(list(rd), dtype=float).reshape(-1, len(STATE_CSV_HEADER))
    return state_series(*table.T)
