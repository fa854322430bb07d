"""Tag-detection processing pipeline.

Turns a stream of camera-frame tag poses into uniformly sampled planar
kinematic states (x, y, psi, u, v, r): plane fit, world transform, yaw
extraction, resampling, finite differencing, and moving-average smoothing.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import frames
from .frames import PlaneCoefficients


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


DETECTION_CSV_HEADER = [
    "t", "tag_id", "tx", "ty", "tz",
    "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
]


@dataclass(frozen=True, eq=False)
class Detections:
    """A tag-detection stream, or one gap-bounded segment of it.

    ``table`` holds one row per detected camera frame, columns in
    ``DETECTION_CSV_HEADER`` order: capture time, tag id, camera-frame tag
    translation, row-major tag rotation.  ``t``, ``q`` (``(n, 3)``) and
    ``rot`` (``(n, 3, 3)``) are views of it; a slice or a boolean mask gives
    another ``Detections``.
    """

    table: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> Detections:
        """Rows of 14 numbers in ``DETECTION_CSV_HEADER`` order, also none."""
        return cls(rows_table(rows, DETECTION_CSV_HEADER))

    @property
    def t(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def q(self) -> np.ndarray:
        return self.table[:, 2:5]

    @property
    def rot(self) -> np.ndarray:
        return self.table[:, 5:14].reshape(-1, 3, 3)

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index) -> Detections:
        return Detections(self.table[index])


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
    detections: Detections, config: PipelineConfig | None = None
) -> list[Detections]:
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
    if np.any(np.diff(detections.t) < 0):
        raise TrackingError("detections must be sorted by timestamp")

    keep = np.zeros(len(detections), dtype=bool)
    recent_z: list[float] = []
    for i, z in enumerate(detections.q[:, 2].tolist()):
        if recent_z and abs(z - statistics.median(recent_z[-5:])) > cfg.outlier_z_jump:
            continue
        keep[i] = True
        recent_z.append(z)

    kept = detections[keep]
    cuts = [0, *(np.flatnonzero(np.diff(kept.t) > cfg.max_gap) + 1), len(kept)]
    return [kept[a:b] for a, b in zip(cuts, cuts[1:]) if b - a >= 2]


def run_pipeline(
    segment: Detections, config: PipelineConfig | None = None
) -> np.recarray:
    states, _ = run_pipeline_detailed(segment, config)
    return states


def run_pipeline_detailed(
    segment: Detections, config: PipelineConfig | None = None
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
    if len(segment) < 2:
        raise SegmentTooShort("segment has fewer than 2 detections")

    q, t = segment.q, segment.t

    try:
        plane = frames.fit_plane(q)
    except frames.DegenerateConfiguration:
        # stationary or perfectly collinear track: no tilt observable, so
        # assume a level plane at the mean detection height
        plane = PlaneCoefficients(0.0, 0.0, float(np.mean(q[:, 2])))
    r_oc = frames.world_rotation(plane)
    origin = q[0].copy()
    world = (q - origin) @ r_oc.T
    yaw = unwrap_angles([frames.extract_yaw(r_oc @ rot) for rot in segment.rot])

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


STATE_CSV_HEADER = ["t", "x", "y", "psi", "u", "v", "r"]


def fmt(x: float) -> str:
    """The one number format of every CSV artifact."""
    return "%.12g" % x


def write_rows(path, header, rows) -> None:
    """Write a header and already formatted rows as CSV with Unix line endings;
    ``write_table`` writes the numeric tables through it."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def rows_table(rows, header) -> np.ndarray:
    """Rows of numbers as an ``(n, len(header))`` array, also when empty."""
    return np.array(rows, dtype=float).reshape(-1, len(header))


def write_table(path, header, columns) -> None:
    """Write equal-length numeric columns under one header line, every value
    through ``fmt``.  Rows are formatted one at a time, never whole columns."""
    write_rows(path, header, (map(fmt, row) for row in zip(*columns)))


def read_table(path, header) -> np.ndarray:
    """Read a ``write_table`` file back as an ``(n, len(header))`` float array.

    Raises ``TrackingError`` when the header differs.  A header-only file
    gives ``n == 0``.
    """
    with open(path, newline="") as fh:
        found = fh.readline().rstrip("\r\n").split(",")
        if found != list(header):
            raise TrackingError("%s: unexpected header %r" % (path, found))
        start = fh.tell()
        if not fh.read(1):
            return np.empty((0, len(header)))
        fh.seek(start)
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape[1] != len(header):
        raise TrackingError("%s: %d columns under a %d-column header"
                            % (path, table.shape[1], len(header)))
    return table


def write_detections_csv(path, detections: Detections) -> None:
    write_table(path, DETECTION_CSV_HEADER, detections.table.T)


def read_detections_csv(path) -> Detections:
    return Detections(read_table(path, DETECTION_CSV_HEADER))


def write_states_csv(path, states: np.recarray) -> None:
    write_table(path, STATE_CSV_HEADER, (states[name] for name in STATE_DTYPE.names))


def read_states_csv(path) -> np.recarray:
    return state_series(*read_table(path, STATE_CSV_HEADER).T)
