"""Property tests on the two parsers that take outside input, the radio
frame scanner and the scenario-file settings, on the radio channel, and on
whole runs under swept number settings.

Derandomized and without an example database, so every run draws the same
examples (``conftest.py`` keeps Hypothesis's constants cache out of the
tree as well).
"""

import functools
import math
from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanklab import link
from tanklab.runner import run_scenario
from tanklab.scenarios import (_DOMAINS, BUILTIN_SCENARIOS, ConfigError, Scenario, apply_setting,
                               get_scenario, parse_command)

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
        "vehicle", "command_script", "bogus.key", "seed_ft", "name_in",
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
    # parse_command checks the syntax, Scenario.validate the protocol's ranges
    try:
        _, msg = parse_command(text)
        Scenario(name="fuzz", duration=5.0, command_script=[(0.0, msg)]).validate()
    except ConfigError:
        return
    link.encode(msg)  # whatever validates, the protocol can carry


# each send: gap since the previous send (s), vehicle depth (m, across the
# attenuation band), and whether the receiver polls right after it
sends = st.lists(
    st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 1.5), st.booleans()), max_size=40)


@FUZZ
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), sends)
def test_channel_delivers_accepted_frames_in_send_order(latency, seed, sends):
    channel = link.Channel(link.ChannelConfig(latency=latency), np.random.default_rng(seed))
    t = 0.0
    accepted: dict[bytes, float] = {}  # frame -> send time, in send order
    delivered: list[tuple[bytes, float]] = []  # frame, poll time

    def poll(at):
        delivered.extend((frame, at) for frame in channel.poll(at))

    for i, (gap, depth, poll_now) in enumerate(sends):
        t += gap
        frame = i.to_bytes(2, "big")
        if channel.send(frame, t, depth):
            accepted[frame] = t
        if poll_now:
            poll(t)
    poll(t + latency)

    # every accepted frame once, in send order, and no rejected frame
    assert [frame for frame, _ in delivered] == list(accepted)
    assert all(at >= accepted[frame] + latency for frame, at in delivered)


# every int or float setting of a scenario and its sub-configs, by dotted key
_SWEPT = get_scenario("line")
NUMBER_SETTINGS = {
    prefix + name: type(value)
    for prefix, config in (("", _SWEPT), *((key + ".", value) for key, value in vars(_SWEPT).items()
                                           if is_dataclass(value)))
    for name, value in vars(config).items()
    if type(value) in (int, float)
}
DOMAIN_OF = {key: domain for domain, keys in _DOMAINS.items() for key in keys}


def test_every_domain_key_is_an_attribute_path():
    # a setting's key is the attribute path that reaches it on a scenario
    for name in BUILTIN_SCENARIOS:
        s = get_scenario(name)
        for key in DOMAIN_OF:
            assert type(functools.reduce(getattr, key.split("."), s)) in (int, float), (name, key)


def test_every_number_setting_has_one_domain():
    listed = [key for keys in _DOMAINS.values() for key in keys]
    assert len(NUMBER_SETTINGS) == 42
    assert sorted(listed) == sorted(NUMBER_SETTINGS)  # each once, none missing or unknown


def domain_edges(key):
    """Each finite end of ``key``'s interval and the numbers either side of it,
    and a float setting's infinite ends, as (value, whether the interval
    admits it)."""
    domain = DOMAIN_OF[key]
    interval = domain[domain.rindex("in ") + 3:]
    edges = []
    for text, closed, out in zip(interval[1:-1].split(", "),
                                 (interval[0] == "[", interval[-1] == "]"), (-1, 1)):
        end = float(text)
        if not math.isfinite(end):
            edges += [] if NUMBER_SETTINGS[key] is int else [(end, False)]
        elif NUMBER_SETTINGS[key] is int:
            edges += [(int(end) + out, False), (int(end), closed), (int(end) - out, True)]
        else:
            edges += [(math.nextafter(end, out * math.inf), False), (end, closed),
                      (math.nextafter(end, -out * math.inf), True)]
    return edges


def test_domain_edges_outside_the_interval_fail_validate():
    # each interval's ends and the numbers either side: validate refuses,
    # naming the setting, exactly those the table's interval leaves out
    refused = set()
    for key in NUMBER_SETTINGS:
        for edge, _ in domain_edges(key):
            try:
                get_scenario("line", ["%s=%r" % (key, edge)]).validate()
            except ConfigError as exc:
                if exc.field_name == key and "must be " + DOMAIN_OF[key] in str(exc):
                    refused.add((key, edge))
    assert refused == {(key, edge) for key in NUMBER_SETTINGS
                       for edge, admitted in domain_edges(key) if not admitted}


sweep_values = st.one_of(
    st.just(0),
    st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from([1, -1]), st.floats(-300, 300)),
    st.integers(-10**9, 10**9),
)
number_setting = st.sampled_from(sorted(NUMBER_SETTINGS)).flatmap(
    lambda key: st.tuples(st.just(key),
                          st.one_of(sweep_values,
                                    st.sampled_from([v for v, _ in domain_edges(key)]))))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_SCENARIOS)),
       st.lists(number_setting, min_size=1, max_size=3, unique_by=lambda kv: kv[0]))
def test_number_sweep_raises_only_config_error(name, values):
    # a 6 s built-in with one to three numbers set to 0, +-10^U(-300, 300), an
    # int, or an end of the setting's domain or the float either side of it
    texts = ["duration=6", *("%s=%r" % (key, round(value) if NUMBER_SETTINGS[key] is int
                                       else value) for key, value in values)]
    try:
        s = get_scenario(name, texts)
        s.command_script = [c for c in s.command_script if c[0] <= s.duration]
        run_scenario(s)
    except ConfigError:
        pass


@pytest.mark.parametrize("value", [1e154, 1e300, -1e300, 1e-300])
def test_far_values_raise_only_config_error(value):
    # every number setting at a far value on the whole built-in line run: the
    # random sweep rarely draws one, and a domain too wide for the arithmetic
    # shows as a warning, which pytest raises.  Two settings act only with
    # another: the offset when spurious z is drawn, a far position noise when
    # the z gate lets far detections through
    runs = [["%s=%r" % (key, value)] for key in sorted(NUMBER_SETTINGS)]
    runs += [[enable, "%s=%r" % (key, value)]
             for enable, key in (("camera.spurious_z_prob=1", "camera.spurious_z_offset"),
                                 ("pipeline.outlier_z_jump=1e300",
                                  "camera.translation_noise_sigma"))]
    for texts in runs:
        try:
            run_scenario(get_scenario("line", texts))
        except ConfigError:
            pass
        except Exception as exc:
            raise AssertionError(", ".join(texts)) from exc
