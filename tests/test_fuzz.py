"""Property tests on the two parsers that take outside input: the radio
frame scanner and the scenario-file settings.

Derandomized and without an example database, so every run draws the same
examples (``conftest.py`` keeps Hypothesis's constants cache out of the
tree as well).
"""

from hypothesis import given, settings, strategies as st

from tanklab import link
from tanklab.scenarios import ConfigError, Scenario, apply_setting, parse_command

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

i8 = st.integers(-100, 100)
u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
messages = st.one_of(
    st.builds(link.SetMotors, i8, i8),
    st.builds(link.Pump, st.integers(0, 2), u16),
    st.builds(link.StartSequence, u8),
    st.builds(link.Telemetry, u16, st.tuples(*[u8] * 9), u8, u8),
)


# byte streams built from frames, bare sync words, truncated frames and noise,
# so that the scanner meets headers and claimed lengths, not only garbage
chunks = st.one_of(
    st.binary(max_size=8),
    st.just(link.SYNC),
    messages.map(link.encode),
    st.tuples(messages.map(link.encode), st.integers(1, 20)).map(lambda f: f[0][: -f[1]]),
)


@FUZZ
@given(st.lists(chunks, max_size=10).map(b"".join))
def test_decode_stream_never_raises(data):
    assert isinstance(link.decode_stream(data), list)


@FUZZ
@given(st.lists(messages, max_size=8))
def test_decode_stream_returns_every_message(msgs):
    assert link.decode_stream(b"".join(link.encode(m) for m in msgs)) == msgs


# words the parsers know, mixed with arbitrary text
keys = st.one_of(
    st.sampled_from([
        "command", "duration", "seed", "name", "plot_frame", "tank_side_ft",
        "initial_x_in", "vehicle.mass", "vehicle.syringe_capacity_ml",
        "camera.dropout_prob", "camera.pose", "channel.latency",
        "pipeline.smoothing_window", "tag.tag_id", "tag.mount_offset",
        "vehicle_params", "command_script", "bogus.key",
    ]),
    st.text(max_size=20),
)
numbers = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "1e999", "x", "1_0"]),
)
commands = st.builds(
    lambda t, kind, args: " ".join([t, kind, *args]),
    numbers,
    st.sampled_from(["start", "set_motors", "pump", "warp"]),
    st.lists(st.one_of(numbers, st.sampled_from(["off", "intake", "expel"])), max_size=3),
)
values = st.one_of(commands, numbers, st.text(max_size=20))


@FUZZ
@given(keys, values)
def test_apply_setting_raises_only_config_error(key, value):
    try:
        apply_setting(Scenario(name="fuzz", duration=5.0), key, value)
    except ConfigError:
        pass


@FUZZ
@given(values)
def test_parse_command_raises_only_config_error(text):
    try:
        t, msg = parse_command(text)
    except ConfigError:
        return
    link.encode(msg)  # whatever parses, the protocol can carry
