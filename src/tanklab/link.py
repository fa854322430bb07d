"""Radio messaging: framed binary protocol and a depth-attenuated channel.

Frame layout (all multi-byte integers big-endian):

    AA 55 | type (1) | length (1) | payload (0..64) | crc16 (2)

CRC is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over type + length +
payload.  Delivery probability falls off linearly with vehicle depth
between ``d0`` (full delivery) and ``d1`` (radio blackout).
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

SYNC = b"\xaa\x55"
MAX_PAYLOAD = 64

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


class PayloadTooLong(LinkError):
    pass


class CrcMismatch(LinkError):
    pass


class UnknownType(LinkError):
    pass


class Truncated(LinkError):
    pass


def _make_crc_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
        table.append(crc)
    return table


_CRC_TABLE = _make_crc_table()


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE; check value: crc16(b'123456789') == 0x29B1."""
    crc = 0xFFFF
    for b in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ b]
    return crc


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


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not (lo <= value <= hi):
        raise LinkError("%s out of range [%d, %d]: %r" % (name, lo, hi, value))


def _payload(msg: Message) -> tuple[int, bytes]:
    if isinstance(msg, SetMotors):
        _check_range("left", msg.left, -100, 100)
        _check_range("right", msg.right, -100, 100)
        return MSG_SET_MOTORS, struct.pack(">bb", msg.left, msg.right)
    if isinstance(msg, Pump):
        _check_range("mode", msg.mode, 0, 2)
        _check_range("duration_ms", msg.duration_ms, 0, 0xFFFF)
        return MSG_PUMP, struct.pack(">BH", msg.mode, msg.duration_ms)
    if isinstance(msg, StartSequence):
        _check_range("seq_id", msg.seq_id, 0, 0xFF)
        return MSG_START_SEQUENCE, struct.pack(">B", msg.seq_id)
    if isinstance(msg, Telemetry):
        if len(msg.ir) != 9:
            raise LinkError("telemetry needs 9 IR channels")
        _check_range("depth_mm", msg.depth_mm, 0, 0xFFFF)
        for c in msg.ir:
            _check_range("ir channel", c, 0, 255)
        _check_range("fill_est_tenth_ml", msg.fill_est_tenth_ml, 0, 0xFF)
        _check_range("flags", msg.flags, 0, 0xFF)
        return MSG_TELEMETRY, struct.pack(
            ">H9BBB", msg.depth_mm, *msg.ir, msg.fill_est_tenth_ml, msg.flags
        )
    raise LinkError("unknown message %r" % (msg,))


def encode(msg: Message) -> bytes:
    msg_type, payload = _payload(msg)
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLong("payload of %d bytes exceeds %d" % (len(payload), MAX_PAYLOAD))
    body = bytes([msg_type, len(payload)]) + payload
    return SYNC + body + struct.pack(">H", crc16(body))


def _parse_payload(msg_type: int, payload: bytes) -> Message:
    if msg_type == MSG_SET_MOTORS and len(payload) == 2:
        left, right = struct.unpack(">bb", payload)
        return SetMotors(left, right)
    if msg_type == MSG_PUMP and len(payload) == 3:
        mode, duration = struct.unpack(">BH", payload)
        return Pump(mode, duration)
    if msg_type == MSG_START_SEQUENCE and len(payload) == 1:
        return StartSequence(payload[0])
    if msg_type == MSG_TELEMETRY and len(payload) == 13:
        vals = struct.unpack(">H9BBB", payload)
        return Telemetry(vals[0], tuple(vals[1:10]), vals[10], vals[11])
    raise UnknownType("unknown or malformed message type 0x%02x" % msg_type)


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

    def validate(self) -> None:
        if not (0.0 <= self.d0 < self.d1):
            raise LinkError("require 0 <= d0 < d1")
        if not (0.0 <= self.base_loss <= 1.0):
            raise LinkError("base_loss must be in [0, 1]")
        if not (self.latency >= 0.0):
            raise LinkError("latency must be >= 0")


def delivery_probability(depth: float, cfg: ChannelConfig) -> float:
    frac = (cfg.d1 - depth) / (cfg.d1 - cfg.d0)
    frac = min(1.0, max(0.0, frac))
    return (1.0 - cfg.base_loss) * frac


def deliver(
    frame: bytes,
    vehicle_depth: float,
    cfg: ChannelConfig,
    rng: np.random.Generator,
) -> bytes | None:
    """Single loss draw; returns the frame on success, None when lost."""
    if rng.random() < delivery_probability(vehicle_depth, cfg):
        return frame
    return None


class Channel:
    """Latency queue over the lossy link; single-threaded."""

    def __init__(self, cfg: ChannelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.rng = rng
        self._queue: list[tuple[float, int, bytes]] = []
        self._seq = 0

    def send(self, frame: bytes, t: float, vehicle_depth: float) -> bool:
        """Submit a frame at time t; returns False when lost in transit."""
        if deliver(frame, vehicle_depth, self.cfg, self.rng) is None:
            return False
        heapq.heappush(self._queue, (t + self.cfg.latency, self._seq, frame))
        self._seq += 1
        return True

    def poll(self, t: float) -> list[bytes]:
        """Frames whose delivery time has elapsed, in arrival order."""
        out = []
        while self._queue and self._queue[0][0] <= t:
            out.append(heapq.heappop(self._queue)[2])
        return out
