import ast
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanklab import link
from tanklab.scenarios import ConfigError, get_scenario
from tanklab.link import (
    Channel,
    ChannelConfig,
    CrcMismatch,
    FLAG_FILL_VALID,
    LinkError,
    MSG_PUMP,
    MSG_SET_MOTORS,
    MSG_START_SEQUENCE,
    MSG_TELEMETRY,
    PUMP_MODE_EXPEL,
    PUMP_MODE_INTAKE,
    Pump,
    SetMotors,
    StartSequence,
    SYNC,
    Telemetry,
    Truncated,
    UnknownType,
    crc16,
    decode,
    decode_stream,
    delivery_probability,
    encode,
)


def crc16_bitwise(data: bytes) -> int:
    """Independent bit-by-bit CRC-16/CCITT-FALSE oracle."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
    return crc


def sample_messages():
    return [
        SetMotors(0, 0),
        SetMotors(-100, 100),
        SetMotors(50, 50),
        Pump(PUMP_MODE_INTAKE, 8000),
        Pump(PUMP_MODE_EXPEL, 0xFFFF),
        StartSequence(1),
        StartSequence(255),
        Telemetry(512, tuple(range(9)), 125, FLAG_FILL_VALID),
        Telemetry(0, (255,) * 9, 0, 0),
    ]


# Each message's class, type code, payload layout and the (name, lo, hi) of
# each packed value in order, written out here apart from the codec's table.
SPEC = [
    (SetMotors, MSG_SET_MOTORS, ">bb", [("left", -100, 100), ("right", -100, 100)]),
    (Pump, MSG_PUMP, ">BH", [("mode", 0, 2), ("duration_ms", 0, 0xFFFF)]),
    (StartSequence, MSG_START_SEQUENCE, ">B", [("seq_id", 0, 255)]),
    (Telemetry, MSG_TELEMETRY, ">H9BBB",
     [("depth_mm", 0, 0xFFFF), *[("ir%d" % i, 0, 255) for i in range(9)],
      ("fill_est_tenth_ml", 0, 255), ("flags", 0, 255)]),
]


def spec_message(cls, values):
    """The message of ``cls`` whose packed values are ``values``."""
    if cls is Telemetry:
        return Telemetry(values[0], tuple(values[1:10]), values[10], values[11])
    return cls(*values)


@st.composite
def spec_values(draw):
    cls, code, layout, ranges = draw(st.sampled_from(SPEC))
    return cls, code, layout, [draw(st.integers(lo, hi)) for _, lo, hi in ranges]


class TestCrc:
    def test_check_value(self):
        assert crc16(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16(b"") == 0xFFFF

    def test_matches_bitwise_oracle(self, rng):
        # every length up to the longest frame body: type, length, 64 payload bytes
        for n in (*range(67), *rng.integers(0, 67, 200).tolist()):
            data = rng.integers(0, 256, n).astype(np.uint8).tobytes()
            assert crc16(data) == crc16_bitwise(data)

    def test_sensitive_to_any_bit(self):
        base = b"\x01\x02\x32\x32"
        ref = crc16(base)
        for i in range(len(base) * 8):
            mutated = bytearray(base)
            mutated[i // 8] ^= 1 << (i % 8)
            assert crc16(bytes(mutated)) != ref


class TestEncodeDecode:
    def test_frame_layout(self):
        frame = encode(SetMotors(50, -25))
        assert frame[:2] == SYNC
        assert frame[2] == MSG_SET_MOTORS
        assert frame[3] == 2
        assert struct.unpack(">bb", frame[4:6]) == (50, -25)
        (stored,) = struct.unpack(">H", frame[6:8])
        assert stored == crc16_bitwise(frame[2:6])

    def test_telemetry_layout(self):
        msg = Telemetry(1234, tuple(range(10, 19)), 125, 3)
        frame = encode(msg)
        assert frame[3] == 13
        assert struct.unpack(">H", frame[4:6]) == (1234,)
        assert tuple(frame[6:15]) == tuple(range(10, 19))

    @pytest.mark.parametrize("msg", sample_messages())
    def test_round_trip(self, msg):
        assert decode(encode(msg)) == msg

    def test_round_trip_bulk(self, rng):
        for _ in range(2000):
            msg = SetMotors(int(rng.integers(-100, 101)), int(rng.integers(-100, 101)))
            assert decode(encode(msg)) == msg

    def test_range_checks(self):
        with pytest.raises(LinkError):
            encode(SetMotors(101, 0))
        with pytest.raises(LinkError):
            encode(Pump(3, 0))
        with pytest.raises(LinkError):
            encode(StartSequence(256))
        with pytest.raises(LinkError):
            encode(Telemetry(0, (0,) * 8, 0, 0))

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(spec_values())
    def test_matches_written_out_layouts(self, case):
        cls, code, layout, values = case
        msg = spec_message(cls, values)
        body = bytes([code, struct.calcsize(layout)]) + struct.pack(layout, *values)
        frame = encode(msg)
        assert frame == SYNC + body + struct.pack(">H", crc16_bitwise(body))
        assert decode(frame) == msg

    @pytest.mark.parametrize("cls,code,layout,ranges", SPEC, ids=[c[0].__name__ for c in SPEC])
    def test_each_value_one_past_its_range(self, cls, code, layout, ranges):
        for i, (name, lo, hi) in enumerate(ranges):
            for bad in (lo - 1, hi + 1):
                values = [low for _, low, _ in ranges]
                values[i] = bad
                text = "%s out of range [%d, %d]: %d" % (name, lo, hi, bad)
                with pytest.raises(LinkError, match="^%s$" % re.escape(text)):
                    encode(spec_message(cls, values))

    def test_error_texts(self):
        with pytest.raises(LinkError, match="^telemetry needs 9 IR channels$"):
            encode(Telemetry(70000, (0,) * 10, 0, 0))
        with pytest.raises(LinkError, match="^unknown message 'x'$"):
            encode("x")
        body = bytes([MSG_PUMP, 2, 0, 0])
        with pytest.raises(UnknownType, match="^unknown or malformed message type 0x02$"):
            decode(SYNC + body + struct.pack(">H", crc16(body)))

    def test_layouts_stated_only_in_wire_table(self):
        # every struct layout of the module sits in _WIRE, but the CRC's
        tree = ast.parse(Path(link.__file__).read_text())
        wire = next(node for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["_WIRE"])

        def layouts(root):
            found = []
            for node in ast.walk(root):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    try:
                        struct.calcsize(node.value)
                    except struct.error:
                        continue
                    found.append(node.value)
            return found

        inside = layouts(wire)
        assert sorted(inside) == sorted(layout for _, _, layout, _ in SPEC)
        outside = layouts(tree)
        for layout in inside:
            outside.remove(layout)
        assert outside == [">H", ">H"]

    def test_single_byte_corruption_detected(self, rng):
        # every single-byte corruption of the non-sync bytes must raise
        for msg in sample_messages():
            frame = bytearray(encode(msg))
            for i in range(2, len(frame)):
                bad = frame.copy()
                bad[i] ^= 1 << int(rng.integers(0, 8))
                with pytest.raises((CrcMismatch, Truncated, UnknownType)):
                    decode(bytes(bad))

    def test_truncated(self):
        with pytest.raises(Truncated):
            decode(b"")
        with pytest.raises(Truncated):
            decode(SYNC + b"\x01")
        with pytest.raises(CrcMismatch):
            decode(encode(SetMotors(1, 2))[:-1])

    def test_unknown_type(self):
        body = bytes([0x7F, 1, 0x00])
        frame = SYNC + body + struct.pack(">H", crc16(body))
        with pytest.raises(UnknownType):
            decode(frame)

    def test_decode_skips_leading_garbage(self):
        frame = b"\x00\xff\x13" + encode(Pump(PUMP_MODE_INTAKE, 100))
        assert decode(frame) == Pump(PUMP_MODE_INTAKE, 100)

    def test_fuzz_never_crashes(self, rng):
        for _ in range(3000):
            blob = rng.integers(0, 256, int(rng.integers(0, 30))).astype(np.uint8).tobytes()
            try:
                decode(blob)
            except LinkError:
                pass


class TestDecodeStream:
    def test_back_to_back(self):
        msgs = sample_messages()
        stream = b"".join(encode(m) for m in msgs)
        assert decode_stream(stream) == msgs

    def test_resync_past_corruption(self):
        good1, good2 = encode(SetMotors(10, 20)), encode(StartSequence(7))
        bad = bytearray(encode(Pump(PUMP_MODE_EXPEL, 500)))
        bad[5] ^= 0x40
        stream = good1 + bytes(bad) + b"\xaa\x55\x01" + good2
        assert decode_stream(stream) == [SetMotors(10, 20), StartSequence(7)]

    def test_empty(self):
        assert decode_stream(b"") == []
        assert decode_stream(b"\x00" * 50) == []


class TestChannel:
    def test_delivery_probability_shape(self):
        cfg = ChannelConfig()
        assert delivery_probability(0.0, cfg) == pytest.approx(0.99)
        assert delivery_probability(0.3, cfg) == pytest.approx(0.99)
        assert delivery_probability(0.75, cfg) == pytest.approx(0.495)
        assert delivery_probability(1.2, cfg) == 0.0
        assert delivery_probability(2.0, cfg) == 0.0
        # a column of depths (below d0, at it, mid-band, at d1, beyond) is
        # the scalar calls, bit for bit
        depths = [0.0, 0.3, 0.75, 0.9173, 1.2, 2.0]
        column = delivery_probability(np.array(depths), cfg)
        assert column.tobytes() == np.array(
            [delivery_probability(d, cfg) for d in depths]).tobytes()

    @pytest.mark.parametrize("depth,expected", [(0.1, 0.99), (0.75, 0.495), (1.3, 0.0)])
    def test_empirical_delivery_rate(self, depth, expected):
        cfg = ChannelConfig()
        rng = np.random.default_rng(7)
        n = 10_000
        channel = Channel(cfg, rng)
        got = sum(channel.send(b"x", 0.0, depth) for _ in range(n)) / n
        assert abs(got - expected) <= 0.02

    def test_latency_queue_ordering(self):
        ch = Channel(ChannelConfig(base_loss=0.0, latency=0.05), np.random.default_rng(1))
        assert ch.send(b"a", 0.00, 0.0)
        assert ch.send(b"b", 0.01, 0.0)
        assert ch.poll(0.04) == []
        assert ch.poll(0.055) == [b"a"]
        assert ch.poll(0.065) == [b"b"]
        assert ch.poll(1.0) == []

    def test_send_before_previous_send(self):
        ch = Channel(ChannelConfig(base_loss=0.0), np.random.default_rng(1))
        assert ch.send(b"a", 0.10, 0.0)
        assert ch.send(b"b", 0.10, 0.0)  # the same time is in order
        with pytest.raises(LinkError, match="0.05"):
            ch.send(b"c", 0.05, 0.0)
        assert ch.poll(1.0) == [b"a", b"b"]

    def test_blackout_below_d1(self):
        ch = Channel(ChannelConfig(), np.random.default_rng(1))
        assert not ch.send(b"x", 0.0, 1.25)
        assert ch.poll(10.0) == []

    def test_config_validation(self):
        # the channel's settings are checked once, with the scenario's
        for setting in ("channel.d0=1.5", "channel.base_loss=2.0"):
            with pytest.raises(ConfigError) as exc:
                get_scenario("line", [setting]).validate()
            assert exc.value.field_name == setting.split("=")[0]
