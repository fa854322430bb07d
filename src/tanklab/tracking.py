"""Tag-detection processing pipeline.

Turns a stream of camera-frame tag poses into uniformly sampled planar
kinematic states (x, y, psi, u, v, r): plane fit, world transform, yaw
extraction, resampling, finite differencing, and moving-average smoothing.
"""

from __future__ import annotations

import contextlib
import csv
import functools
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
    world = frames.mm(q - origin, r_oc.T)
    yaw = np.unwrap(frames.extract_yaw(frames.mm(r_oc, segment.rot)))

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
TABLE_CELLS = 2048  # varying cells formatted by one pass of write_tables


def fmt(x: float) -> str:
    return NUMBER_FORMAT % x


_SIGNED, _FULL, _LAST, _TRAIL, _DOT, _DOT_TRAIL, _EXP = 0, 2000, 12000, 13000, 23000, 24000, 25000
# each word's section with the zeros before an integer's first nonzero digit
# or after a fraction's last as NULs, and with every digit
_MASKED = np.array([_SIGNED, _SIGNED, _LAST, _DOT_TRAIL, _TRAIL, _TRAIL, 0])
_WHOLE = np.array([_SIGNED, _FULL, _FULL, _DOT, _FULL, _FULL, 0])
# by decade k (|v| >= _DECADES[k - 1], zeros in 0): f and the integer part %g prints
_DECADES = 10.0 ** np.arange(-11, 11)
_FRACTION = np.append(15, np.arange(22, 0, -1))
_POINT = np.where(_FRACTION > 15, 11, _FRACTION)  # an exponent below 1e-4
_SCALE, _UNIT, _SHIFT = (np.array([float(10 ** int(e)) for e in n])  # exact
                         for n in (_FRACTION, _POINT, 15 - _POINT))
_LAST_WORD = np.where(_FRACTION > 15, _EXP + _FRACTION - 16, _TRAIL)
CELL_BYTES = 28  # one cell's text in write_table, padded with NULs or spaces


@functools.cache  # on first use, so that a process that writes no table never holds it
def _digit_words() -> np.ndarray:
    """``_cell_records``' 4-byte words, filled in place (100 kB, no temporary):
    sign and 3 digits, 4 digits with zeros as NULs or not, ``.`` and 3, ``e-05``.."""
    words = np.zeros((25007, 4), np.uint8)
    full, trail = words[_FULL:_LAST], words[_TRAIL:_DOT]
    lead, last = words[_SIGNED : _SIGNED + 1000], words[_LAST:_TRAIL]  # below 1000
    for place in range(4):  # ASCII "0".."9", stepping every 10**(3 - place) words
        full.reshape(-1, 10, 10 ** (3 - place), 4)[..., place] = np.arange(48, 58)[:, None]
    lead[:], trail[:] = full[:1000], full
    for place in range(4):  # zeros before the first nonzero digit, after the last
        lead[: 10 ** (3 - place), place] = trail[:: 10 ** (place + 1), 3 - place] = 0
    last[:], last[0, 3] = lead, ord("0")
    words[_SIGNED + 1000 : _FULL] = lead
    words[_DOT:_DOT_TRAIL], words[_DOT_TRAIL:_EXP] = full[:1000], trail[:1000]
    words[_SIGNED + 1000 : _FULL, 0], words[_DOT:_EXP, 0], words[_DOT_TRAIL] = ord("-"), ord("."), 0
    words[_EXP:] = np.frombuffer(b"e-05e-06e-07e-08e-09e-10e-11", np.uint8).reshape(7, 4)
    return words.view(np.uint32).ravel()


def _cell_records(v: np.ndarray) -> np.ndarray:
    """The ``%.12g`` text of each float of ``v``, ``(len(v), CELL_BYTES)`` uint8
    padded with NULs and spaces: 7 ``_digit_words`` (sign, 11 integer digits, ``.``,
    15 fraction digits or 11 and an exponent) for a zero or ``1e-11 <= |v| <
    1e11`` whose ``s = |v| * 10**f`` lies in ``[1e11, 1e12 - 0.5)``, not within
    2**-10 of a half, so that ``rint(s)`` is its 12 digits (README); ``%`` else."""
    s = np.fmin(np.abs(v), 1e11)  # NaN and inf too, which are left out
    k = np.searchsorted(_DECADES, s, side="right")
    s *= _SCALE[k]
    m, unit = np.rint(s), _UNIT[k]
    ok = (np.abs(s - 549999999999.75) <= 449999999999.75) & (np.abs(s - m) < 0.5 - 2.0 ** -10)
    i = np.floor(np.divide(m, unit, out=s), out=s)
    x = (m - i * unit) * _SHIFT[k]  # the fraction, as 15 digits
    del m, unit  # each pass holds as few cell-long arrays as it can
    records, words = np.empty((len(v), 7), np.uint32), _digit_words()

    def put(w, group, masked):  # word w: its group of digits, and its zeros as NULs or not
        records[:, w] = words[(group + np.where(masked, _MASKED[w], _WHOLE[w])).astype(np.intp)]

    for w, scale in ((3, 1e12), (4, 1e8), (5, 1e4)):
        group = np.floor(x / scale)
        x -= group * scale
        put(w, group, x == 0)
    put(6, x + _LAST_WORD[k], True)
    put(0, (hi := np.floor(i / 1e8)) + 1000 * np.signbit(v), True)
    put(1, (i4 := np.floor(i / 1e4)) - hi * 1e4, i < 1e7)
    put(2, i - i4 * 1e4, i < 1e3)
    records = records.view(np.uint8)
    rest = np.flatnonzero(~ok & (v != 0))
    text = b"".join(b"%28.12g" % value for value in v[rest].tolist())
    records[rest] = np.frombuffer(text, np.uint8).reshape(-1, CELL_BYTES)
    return records


def _create(path, mode="x"):
    """Open ``path`` for writing as a new file, text with Unix line endings
    (or binary, mode ``"xb"``): a file or link there is unlinked, not truncated.

    On ext4 (default ``auto_da_alloc``), truncating a file that still holds
    a previous run's pages waits on the disk, and so does closing it after
    the rewrite; a new inode drops the old pages instead of writing them
    back.  A link's target is untouched."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, newline=None if "b" in mode else "\n")


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
    float fields, as ``read_table`` reads it: ``write_tables`` of one."""
    write_tables([(path, header, table)])


def write_tables(tables) -> None:
    """Write each ``(path, header, table)`` of ``tables`` as ``read_table``
    reads it; every table's width is checked against its header
    (``TrackingError`` naming the path) before a file is created.

    A column whose values are bit for bit the same in every row is formatted
    once, into its table's row template; the other columns fill its slots.
    Tables of one row count are written side by side, a chunk of rows at a
    time, and a column bit for bit equal to one before it among them is
    formatted once for both.  The chunks' cells share ``_cell_records``
    passes of up to ``TABLE_CELLS``, across tables (``_write_pass``)."""
    groups = {}  # row count -> its tables
    for path, header, table in tables:
        if table.dtype.names:
            table = np.asarray(table).view((float, len(table.dtype.names)))
        if table.ndim != 2 or table.shape[1] != len(header):
            raise TrackingError("%s: a %s table under a %d-column header"
                                % (path, table.shape, len(header)))
        groups.setdefault(len(table), []).append((path, header, np.asarray(table, dtype=float)))
    with contextlib.ExitStack() as files:
        chunks, room = [], TABLE_CELLS
        for n, group in groups.items():
            sources, writers, width = _open_group(group, files)
            a = 0
            while a < n:
                if room < width and chunks:  # the next row does not fit this pass
                    _write_pass(chunks)
                    chunks, room = [], TABLE_CELLS
                rows = min(n - a, max(1, room // width))
                chunks.append((sources, writers, a, a + rows))
                room, a = room - rows * width, a + rows
        if chunks:
            _write_pass(chunks)


def _open_group(group, files):
    """Create the files of ``group``, tables of one row count, with their
    headers.  Returns the ``(table, columns)`` sources whose cells are
    formatted, each column once; for each table, its file, row block, cell
    slots and the ``(source, column)`` that fills each slot; and the number
    of columns formatted (at least 1), which sizes the blocks."""
    sources, writers, seen = [], [], {}
    for path, header, table in group:
        fh = files.enter_context(_create(path, "xb"))
        fh.write((",".join(header) + "\n").encode())
        if not len(table):
            continue
        bits = table.view(np.int64)
        ends = bits[[0, -1]].T.tolist()
        varying = [j for j, (col, (first, last)) in enumerate(zip(bits.T, ends))
                   if first != last or (col != first).any()]
        own, where = [], []
        for j in varying:  # looked up by its first and last bits, then compared
            col, same = bits[:, j], seen.setdefault(tuple(ends[j]), [])
            at = next((at for at, other in same if (col == other).all()), None)
            if at is None:
                at = len(sources), len(own)
                own.append(j)
                same.append((at, col))
            where.append(at)
        sources.append((table, own))
        line = ",".join("\0" if j in varying else fmt(x) for j, x in enumerate(table[0].tolist()))
        pieces = [piece.encode() for piece in (line + "\n").split("\0")]
        slots = np.cumsum([len(piece) + CELL_BYTES for piece in pieces[:-1]]) - CELL_BYTES
        writers.append((fh, bytes(CELL_BYTES).join(pieces), slots.tolist(), where))
    width = max(sum(len(cols) for _, cols in sources), 1)
    rows = min(len(group[0][2]), max(1, TABLE_CELLS // width))
    writers = [(fh, np.tile(np.frombuffer(template, np.uint8), (rows, 1)), slots, where)
               for fh, template, slots, where in writers]
    return sources, writers, width


def _write_pass(chunks):
    """Format the cells of each ``(sources, writers, a, b)`` chunk in one
    ``_cell_records`` pass, then write rows ``a:b`` of each of its tables:
    the text fills the row block's slots, and the block is written with its
    padding deleted."""
    cells = [table[a:b, cols].ravel() for sources, _, a, b in chunks for table, cols in sources]
    records = _cell_records(cells[0] if len(cells) == 1 else np.concatenate(cells))
    at = 0
    for sources, writers, a, b in chunks:
        texts = []  # each source's text, (rows, columns, CELL_BYTES)
        for table, cols in sources:
            size = (b - a) * len(cols)
            texts.append(records[at : at + size].reshape(b - a, len(cols), CELL_BYTES))
            at += size
        for fh, block, slots, where in writers:
            for slot, (source, col) in zip(slots, where):
                block[: b - a, slot : slot + CELL_BYTES] = texts[source][:, col]
            fh.write(block[: b - a].tobytes().translate(None, b"\0 "))


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
