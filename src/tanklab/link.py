"""Radio messaging: framed binary protocol and a depth-attenuated channel.

Frame layout (all multi-byte integers big-endian):

    AA 55 | type (1) | length (1) | payload (0..64) | crc16 (2)

CRC is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over type + length +
payload.  Each message's type code, payload layout, value names and ranges
are stated once, in ``_WIRE``, read by ``encode``, the frame scanner and ``runner``.
Delivery probability falls off linearly with vehicle depth between ``d0``
(full delivery) and ``d1`` (radio blackout).
"""

from __future__ import annotations

import binascii
import struct
from collections import deque
from dataclasses import dataclass
from typing import Union

import numpy as np

SYNC = b"\xaa\x55"

MSG_SET_MOTORS = 0x01
MSG_PUMP = 0x02
MSG_START_SEQUENCE = 0x03
MSG_TELEMETRY = 0x04

PUMP_MODE_OFF = 0
PUMP_MODE_INTAKE = 1
PUMP_MODE_EXPEL = 2

FLAG_FILL_VALID = 0x01
FLAG_IR_DEGRADED = 0x02


class LinkError(ValueError):
    pass


class CrcMismatch(LinkError):
    pass


class UnknownType(LinkError):
    pass


class Truncated(LinkError):
    pass


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE; check value: crc16(b'123456789') == 0x29B1."""
    return binascii.crc_hqx(data, 0xFFFF)


@dataclass(frozen=True)
class SetMotors:
    left: int    # percent, -100..100
    right: int


@dataclass(frozen=True)
class Pump:
    mode: int          # PUMP_MODE_*
    duration_ms: int   # u16


@dataclass(frozen=True)
class StartSequence:
    seq_id: int


@dataclass(frozen=True)
class Telemetry:
    depth_mm: int
    ir: tuple[int, ...]        # 9 channels, 0..255
    fill_est_tenth_ml: int
    flags: int


Message = Union[SetMotors, Pump, StartSequence, Telemetry]


# message class -> (type code, payload layout, (name, lo, hi) of each value in field order)
_WIRE = {
    SetMotors: (MSG_SET_MOTORS, struct.Struct(">bb"), (("left", -100, 100), ("right", -100, 100))),
    Pump: (MSG_PUMP, struct.Struct(">BH"), (("mode", 0, 2), ("duration_ms", 0, 0xFFFF))),
    StartSequence: (MSG_START_SEQUENCE, struct.Struct(">B"), (("seq_id", 0, 0xFF),)),
    Telemetry: (MSG_TELEMETRY, struct.Struct(">H9BBB"),
                (("depth_mm", 0, 0xFFFF), *(("ir%d" % i, 0, 255) for i in range(9)),
                 ("fill_est_tenth_ml", 0, 0xFF), ("flags", 0, 0xFF))),
}
_CLASSES = {code: cls for cls, (code, _, _) in _WIRE.items()}


def encode(msg: Message) -> bytes:
    if type(msg) not in _WIRE:
        raise LinkError("unknown message %r" % (msg,))
    code, layout, ranges = _WIRE[type(msg)]
    values = list(vars(msg).values())
    if type(msg) is Telemetry:
        if len(msg.ir) != 9:
            raise LinkError("telemetry needs 9 IR channels")
        values[1:2] = msg.ir
    for (name, lo, hi), value in zip(ranges, values):
        if not (lo <= value <= hi):
            raise LinkError("%s out of range [%d, %d]: %r" % (name, lo, hi, value))
    body = bytes([code, layout.size]) + layout.pack(*values)
    return SYNC + body + struct.pack(">H", crc16(body))


def _parse_payload(msg_type: int, payload: bytes) -> Message:
    cls = _CLASSES.get(msg_type)
    if cls is None or len(payload) != _WIRE[cls][1].size:
        raise UnknownType("unknown or malformed message type 0x%02x" % msg_type)
    values = _WIRE[cls][1].unpack(payload)
    if cls is Telemetry:
        values = (values[0], values[1:10], *values[10:])
    return cls(*values)


def _scan(data: bytes):
    """Yield, in stream order, each frame's message or the LinkError that
    rejected it, ending with Truncated where no complete header is left.

    A rejected frame (claimed length past the buffer end, or bad CRC) may
    be garbage that happens to hold the sync bytes, so the scan resumes one
    byte after its sync; a frame that passes the CRC is skipped whole, even
    when its type is unknown.
    """
    pos = 0
    while True:
        idx = data.find(SYNC, pos)
        if idx < 0 or len(data) - idx < 6:
            yield Truncated("no complete frame header found")
            return
        pos = idx + 1
        start = idx + 2
        length = data[start + 1]
        end = start + 2 + length + 2
        if end > len(data):
            yield CrcMismatch("frame claims %d payload bytes beyond buffer end" % length)
            continue
        body = data[start : start + 2 + length]
        (stored,) = struct.unpack(">H", data[end - 2 : end])
        crc = crc16(body)
        if crc != stored:
            yield CrcMismatch("crc 0x%04x != stored 0x%04x" % (crc, stored))
            continue
        pos = end
        try:
            yield _parse_payload(body[0], bytes(body[2:]))
        except UnknownType as exc:
            yield exc


def decode(data: bytes) -> Message:
    """Decode the first frame in ``data``.

    Raises Truncated when no sync + header is present, CrcMismatch when the
    framed bytes fail the checksum (including a claimed length that runs
    past the end of the buffer), and UnknownType for an unrecognized type
    with a valid CRC.
    """
    first = next(_scan(data))
    if isinstance(first, LinkError):
        raise first
    return first


def decode_stream(data: bytes) -> list[Message]:
    """Decode every valid frame in a byte stream, resynchronizing past
    garbage and corrupted frames."""
    return [m for m in _scan(data) if not isinstance(m, LinkError)]


@dataclass
class ChannelConfig:
    d0: float = 0.3          # m, full delivery above this depth
    d1: float = 1.2          # m, blackout below this depth
    base_loss: float = 0.01
    latency: float = 0.05    # s


def delivery_probability(depth, cfg: ChannelConfig):
    """Delivery probability at ``depth``, a depth or a column of them."""
    return (1.0 - cfg.base_loss) * np.clip((cfg.d1 - depth) / (cfg.d1 - cfg.d0), 0.0, 1.0)


class Channel:
    """Latency queue over the lossy link; single-threaded.  Latency is
    constant and send times may not decrease, so items arrive in send order."""

    def __init__(self, cfg: ChannelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self._queue: deque[tuple[float, object]] = deque()
        self._last_send = float("-inf")

    def send(self, item, t: float, vehicle_depth: float) -> bool:
        """Submit an item (a frame, or a tuple holding one) at time t; one
        loss draw against ``delivery_probability``, and False when lost."""
        if t < self._last_send:
            raise LinkError("send at t=%r after a send at t=%r" % (t, self._last_send))
        self._last_send = t
        if not (self.rng.random() < delivery_probability(vehicle_depth, self.cfg)):
            return False
        self._queue.append((t + self.cfg.latency, item))
        return True

    def next_due(self) -> float | None:
        """Delivery time of the next item in the queue, or None when empty."""
        return self._queue[0][0] if self._queue else None

    def poll(self, t: float) -> list:
        """Items whose delivery time has elapsed, in send order."""
        out = []
        while self._queue and self._queue[0][0] <= t:
            out.append(self._queue.popleft()[1])
        return out
