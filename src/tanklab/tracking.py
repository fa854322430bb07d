"""Tag-detection processing pipeline.

Turns a stream of camera-frame tag poses into uniformly sampled planar
kinematic states (x, y, psi, u, v, r): plane fit, world transform, yaw
extraction, resampling, finite differencing, and moving-average smoothing.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import frames
from .frames import PlaneCoefficients


class TrackingError(ValueError):
    pass


class SegmentTooShort(TrackingError):
    pass


ROTATION_HEADER = ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33"]  # row-major
DETECTION_CSV_HEADER = ["t", "tag_id", "tx", "ty", "tz", *ROTATION_HEADER]


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


# One record per uniformly sampled pipeline output.
STATE_DTYPE = np.dtype(
    [(name, float) for name in ("timestamp", "x", "y", "psi", "u", "v", "r")]
)


def series(table, dtype: np.dtype) -> np.recarray:
    """An ``(n, len(dtype))`` float table viewed, not copied, as a record
    array of ``dtype`` (``STATE_DTYPE``, ``vehicle.TRUTH_DTYPE``), read by
    column (``states.u``) or row (``states[i].u``).  Truth's fill is
    ``truth["fill"]``: ``truth.fill`` is ``ndarray.fill``."""
    table = np.ascontiguousarray(table, dtype=float)
    return table.view(dtype).reshape(-1).view(np.recarray)


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average along the last axis, growing over the first samples."""
    arr = np.asarray(values, dtype=float)
    if window < 1:
        raise TrackingError("window must be >= 1")
    if arr.shape[-1] < window:
        raise TrackingError(
            "window %d larger than input of length %d" % (window, arr.shape[-1])
        )
    csum = np.concatenate([np.zeros_like(arr[..., :1]), np.cumsum(arr, axis=-1)], axis=-1)
    return np.concatenate([csum[..., 1:window] / np.arange(1, window),
                           (csum[..., window:] - csum[..., :-window]) / window], axis=-1)


def resample_uniform(
    timestamps: Sequence[float], values: Sequence[float], rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation onto a uniform grid starting at the first stamp."""
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2:
        raise SegmentTooShort("resampling needs at least 2 samples")
    if np.any(np.diff(t) <= 0):
        raise TrackingError("timestamps must be strictly increasing")
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
    ``max_gap``.  Until a detection is kept, the reference is the median z
    of the first five detections, so a spurious first detection is rejected
    rather than kept as the reference for every later one.  Segments
    shorter than two detections are dropped, so an empty stream gives none.

    Until the first rejection every detection is kept, so each reference is
    the median of the detections just before it: one array pass over
    sliding windows finds that rejection, and the loop decides one
    detection at a time from there on.  A non-finite z raises
    ``TrackingError``.
    """
    cfg = config or PipelineConfig()
    if np.any(np.diff(detections.t) < 0):
        raise TrackingError("detections must be sorted by timestamp")

    z = detections.q[:, 2]
    if not np.isfinite(z).all():
        raise TrackingError("detection %d has a non-finite z" % np.argmin(np.isfinite(z)))
    zs = z.tolist()
    refs = [statistics.median(zs[:i] or zs[:5]) for i in range(min(len(zs), 5))]
    if len(zs) > 5:
        refs = np.concatenate([refs, np.sort(sliding_window_view(z[:-1], 5), axis=1)[:, 2]])
    far = np.abs(z - refs) > cfg.outlier_z_jump
    stop = int(np.argmax(np.append(far, True)))
    keep = np.arange(len(zs)) < stop
    recent_z = zs[:stop]
    for i in range(stop, len(zs)):
        ref = statistics.median(recent_z[-5:] or zs[:5])
        if abs(zs[i] - ref) > cfg.outlier_z_jump:
            continue
        keep[i] = True
        recent_z.append(zs[i])

    kept = detections[keep]
    cuts = [0, *(np.flatnonzero(np.diff(kept.t) > cfg.max_gap) + 1), len(kept)]
    return [kept[a:b] for a, b in zip(cuts, cuts[1:]) if b - a >= 2]


def run_pipeline_detailed(
    segment: Detections, config: PipelineConfig | None = None
) -> tuple[np.recarray, np.ndarray]:
    """Full estimation pipeline over one detection segment: its states, and
    ``r_oc``, the fitted camera-to-world basis (``frames.world_rotation``).

    Ordering: plane fit, world basis, first-frame origin, world transform
    ``(q - origin) @ r_oc.T``, yaw extraction + unwrap, resample
    positions/yaw to the uniform grid, whose first time is the first
    detection's, central finite differences, trailing moving average on the
    derivatives, then rotation into body surge/sway.  Yaw is extracted from
    the fitted world rotation composed with each detection rotation so that
    heading and translation share one frame: one stacked product over the
    segment's rotations, bit for bit the per-detection products, and one
    ``frames.extract_yaw`` call on the stack.
    """
    cfg = config or PipelineConfig()
    if len(segment) < 2:
        raise SegmentTooShort("segment has fewer than 2 detections")

    q, t = segment.q, segment.t

    try:
        plane = frames.fit_plane(q)
    except frames.DegenerateConfiguration:
        # stationary or collinear track (two points always are): no tilt
        # observable, so assume a level plane
        plane = PlaneCoefficients(0.0, 0.0, 0.0)
    r_oc = frames.world_rotation(plane)
    origin = q[0].copy()
    world = (q - origin) @ r_oc.T
    yaw = np.unwrap(frames.extract_yaw(r_oc @ segment.rot))

    grid, x = resample_uniform(t, world[:, 0], cfg.output_rate)
    y, psi = np.interp(grid, t, world[:, 1]), np.interp(grid, t, yaw)

    window = cfg.smoothing_window
    if grid.size <= 2 * window:
        # no state past both smoothing edges: nothing to score
        raise SegmentTooShort(
            "resampled segment of %d samples is not longer than 2x window %d"
            % (grid.size, window)
        )

    xdot, ydot, r = moving_average(np.gradient([x, y, psi], 1.0 / cfg.output_rate, axis=1),
                                   window)

    u, v, _ = frames.body_velocities(xdot, ydot, psi)
    states = series(np.column_stack([grid, x, y, frames.wrap_angle(psi), u, v, r]), STATE_DTYPE)
    return states, r_oc


STATE_CSV_HEADER = ["t", "x", "y", "psi", "u", "v", "r"]
NUMBER_FORMAT = "%.12g"  # the one number format of every CSV artifact
TABLE_CHUNK = 128  # rows formatted by one ``%`` in write_table


def fmt(x: float) -> str:
    return NUMBER_FORMAT % x


def _create(path):
    """Open ``path`` for writing as a new file, text with Unix line endings:
    a file or link already there is unlinked first, not truncated.

    On ext4 (default ``auto_da_alloc``), truncating a file that still holds
    a previous run's pages waits on the disk, and so does closing it after
    the rewrite; a new inode drops the old pages instead of writing them
    back.  A link's target is untouched."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "x", newline="\n")


def write_rows(path, header, rows) -> None:
    """Write a header and already formatted text rows as CSV with Unix line
    endings; for the text tables, whose cells may need quoting."""
    with _create(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def rows_table(rows, header) -> np.ndarray:
    """Rows of numbers as an ``(n, len(header))`` array, also when empty."""
    return np.array(rows, dtype=float).reshape(-1, len(header))


def write_table(path, header, table) -> None:
    """Write an ``(n, len(header))`` float table, or a record series of
    float fields, as ``read_table`` reads it.

    A column whose values are bit for bit the same in every row is formatted
    once, into the row template; the other columns fill it, one ``%`` per
    chunk of ``TABLE_CHUNK`` rows."""
    if table.dtype.names:
        table = np.asarray(table).view((float, len(table.dtype.names)))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise TrackingError("%s: a %s table under a %d-column header"
                            % (path, table.shape, len(header)))
    table = np.asarray(table, dtype=float)
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        if not len(table):
            return
        varying = [j for j, col in enumerate(table.view(np.int64).T) if (col != col[0]).any()]
        line = ",".join(NUMBER_FORMAT if j in varying else fmt(x)
                        for j, x in enumerate(table[0].tolist())) + "\n"
        for start in range(0, len(table), TABLE_CHUNK):
            chunk = table[start : start + TABLE_CHUNK, varying]
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_table(path, header) -> np.ndarray:
    """Read a ``write_table`` file back as an ``(n, len(header))`` float array.

    Raises ``TrackingError`` naming the path when the header differs, or
    naming the path and the file line (``_bad_line``) when a row's width
    differs from the header's or a cell is not a finite number
    (``np.loadtxt`` parses ``nan`` and ``inf``).  A header-only file gives
    ``n == 0``.
    """
    with open(path, newline="") as fh:
        found = fh.readline().rstrip("\r\n").split(",")
        if found != list(header):
            raise TrackingError("%s: unexpected header %r" % (path, found))
        if not fh.read(1):
            return np.empty((0, len(header)))
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    except ValueError as exc:  # a cell that is not a number, a ragged row
        table, why = None, exc
    else:
        why = "a row is not %d finite numbers" % len(header)
    if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
        raise TrackingError("%s: %s" % (path, _bad_line(path, len(header)) or why))
    return table


def _bad_line(path, width) -> str | None:
    """The first data line of ``path`` that is not ``width`` finite numbers
    (``nan``, ``inf`` and ``1e999`` are not), named by its file line counted
    from 1, header included; ``None`` if there is none.  Lines split as
    ``np.loadtxt`` splits them: a ``#`` starts a comment, and a line that is
    empty then is skipped.  Only the error path of ``read_table`` reads the
    file this way."""
    with open(path, newline="") as fh:
        for number, line in enumerate(fh, 1):
            cells = line.split("#", 1)[0].rstrip("\r\n").split(",")
            if number == 1 or cells == [""]:
                continue
            if len(cells) != width:
                return "line %d has %d cells, not %d" % (number, len(cells), width)
            for cell in cells:
                if not _is_number(cell):
                    return "line %d: %r is not a number" % (number, cell)
    return None


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a finite float: as ``float``
    does, less the underscores and non-ASCII digits that only ``float``
    reads."""
    try:
        return math.isfinite(float(cell)) and cell.isascii() and "_" not in cell
    except ValueError:
        return False


def write_detections_csv(path, detections: Detections) -> None:
    write_table(path, DETECTION_CSV_HEADER, detections.table)


def read_detections_csv(path) -> Detections:
    return Detections(read_table(path, DETECTION_CSV_HEADER))


def write_states_csv(path, states: np.recarray) -> None:
    write_table(path, STATE_CSV_HEADER, states)


def read_states_csv(path) -> np.recarray:
    return series(read_table(path, STATE_CSV_HEADER), STATE_DTYPE)
