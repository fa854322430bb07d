"""Scenario definitions: declarative scenario files and the settings they hold.

``get_scenario`` reads a flat ``key = value`` file, either a built-in's under
``experiments/`` or one at a path, then applies ``--set``'s ``key=value``
texts: each through ``apply_setting``, where a dotted key is the attribute
path it sets (``vehicle.mass``), ``command`` puts a message into the script in
time order, and number keys suffixed ``_ft`` or ``_in`` are converted to meters.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

from .camera import CameraConfig, TagConfig
from .frames import Pose, rot_x, rot_y, vec3
from .link import (
    ChannelConfig,
    Message,
    Pump,
    SetMotors,
    StartSequence,
    PUMP_MODE_EXPEL,
    PUMP_MODE_INTAKE,
    PUMP_MODE_OFF,
    encode,
)
from .tracking import PipelineConfig
from .vehicle import MAX_DT, VehicleParams

FT = 0.3048
IN = 0.0254

TANK_SIDE = 13.5 * FT    # 4.1148 m


class ConfigError(ValueError):
    """Scenario configuration problem, with the offending field named."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__("%s: %s" % (field_name, message))


# Plant steps (duration * sim_rate) a run may take: with every rate at sim_rate
# a run peaks at 869-947 B a step under tracemalloc (146 B at pump_test's own
# rates), and writing it adds at most about 0.5 MB, so about 1 GB at most;
# 69 minutes at 240 Hz.
MAX_STEPS = 10**6

# Every number setting by domain: the interval it must lie in, whole numbers
# only after "int".  Infinite ends are open, so an admitted value is finite.
_DOMAINS = {
    "in (0, inf)": (
        "duration", "telemetry_rate", "camera.frame_rate", "channel.d1", "pipeline.output_rate",
        "pipeline.max_gap", "pipeline.outlier_z_jump",
        *("vehicle." + name for name in (
            "mass", "propeller_separation", "max_thrust_per_prop", "motor_time_constant",
            "drag_surge", "drag_heave", "drag_yaw", "yaw_inertia", "syringe_capacity",
            "pump_max_rate", "tank_depth"))),
    # lengths (m) that set the tag positions, or move them, whose squares and
    # products the plane fit sums, which overflow from about 1e154 m (a far
    # offset loses the tilt from about 1e16 m): an end far past any tank
    "in (0, 1e6]": ("tank_side", "camera_height"),
    "in [0, 1e6]": ("camera.translation_noise_sigma",),
    "in [-1e6, 1e6]": ("camera.spurious_z_offset",),
    # plant steps of at most vehicle.MAX_DT
    "in [%g, inf)" % (1 / MAX_DT): ("sim_rate",),
    "in [0, inf)": (
        "depth_noise_sigma", "camera.timestamp_jitter_sigma", "camera.rotation_noise_sigma",
        "camera.visibility_depth", "channel.d0", "channel.latency"),
    "in [0, 1]": ("camera.dropout_prob", "camera.spurious_z_prob", "channel.base_loss"),
    "an int in [0, inf)": ("seed",),
    "an int in [1, inf)": ("pipeline.smoothing_window",),
    # the %.12g id column of detections.csv holds these exactly
    "an int in [0, 1e12)": ("tag.tag_id",),
    # positions, angles and a light level
    "in (-inf, inf)": (
        "initial_x", "initial_y", "initial_psi", "camera_tilt_x_deg", "camera_tilt_y_deg",
        "ambient_ir"),
}


def _in_domain(domain: str, value) -> bool:
    """Whether ``value`` lies in ``domain``, a key of ``_DOMAINS``; never for NaN."""
    kind, _, interval = domain.rpartition("in ")
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    return ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)
            and (not kind or value == int(value)))


def window_error(window: int, duration: float, rate: float) -> str | None:
    """Why no segment of a ``duration`` s run resampled at ``rate`` Hz can
    fill a smoothing ``window``, or ``None`` if one can.  A segment needs
    ``2 * window + 1`` resampled states, one past both smoothing edges; the
    longest possible one, a whole run, has ``floor(duration * rate) + 1``."""
    if 2 * window >= math.floor(duration * rate) + 1:
        return ("%d needs %g s of uninterrupted detections, run is %g s"
                % (window, 2 * window / rate, duration))
    return None


@dataclass
class Scenario:
    name: str
    duration: float
    command_script: list[tuple[float, Message]] = field(default_factory=list)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    camera: CameraConfig = field(default_factory=CameraConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    tag: TagConfig = field(default_factory=TagConfig)
    seed: int = 0
    tank_side: float = TANK_SIDE
    initial_x: float = 0.5
    initial_y: float = 0.5
    initial_psi: float = 0.0
    camera_height: float = 2.4          # m above the surface
    camera_tilt_x_deg: float = 2.5      # the "slight tilt" the plane fit corrects
    camera_tilt_y_deg: float = 0.0
    ambient_ir: float = 0.05
    telemetry_rate: float = 5.0
    depth_noise_sigma: float = 0.002
    sim_rate: float = 240.0
    plot_frame: str = "ned"             # or "paper" (yaw positive clockwise)

    def validate(self) -> None:
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\0\n\r"):
            raise ConfigError("name", "must be one path component on one line: not '', '.' or"
                              " '..', and no '/', NUL, CR or LF, got %r" % self.name)
        for domain, keys in _DOMAINS.items():
            for key in keys:
                value = getattr(*_field(self, key))
                if not _in_domain(domain, value):
                    raise ConfigError(key, "must be %s, got %r" % (domain, value))
        for key in ("initial_x", "initial_y"):  # the hull starts inside the tank
            if not (0.0 <= (value := getattr(self, key)) <= self.tank_side):
                raise ConfigError(key, "must be in [0, tank_side] ([0, %g] m), got %r"
                                  % (self.tank_side, value))
        if not (self.channel.d0 < self.channel.d1):
            raise ConfigError("channel.d0", "must be below channel.d1 (%g m), got %r"
                              % (self.channel.d1, self.channel.d0))
        if (steps := self.duration * self.sim_rate) > MAX_STEPS:
            raise ConfigError("duration", "%g s at sim_rate %g Hz is %.3g plant steps, over %d"
                              % (self.duration, self.sim_rate, steps, MAX_STEPS))
        # a sensor samples, and the pipeline resamples, at most once per plant step
        for key, rate in (("camera.frame_rate", self.camera.frame_rate),
                          ("telemetry_rate", self.telemetry_rate),
                          ("pipeline.output_rate", self.pipeline.output_rate)):
            if rate > self.sim_rate:
                raise ConfigError(key, "must not exceed sim_rate (%g Hz)" % self.sim_rate)
        if self.plot_frame not in ("ned", "paper"):
            raise ConfigError("plot_frame", "must be 'ned' or 'paper'")
        last = -math.inf
        for t, msg in self.command_script:
            if t < last:
                raise ConfigError("command_script", "times must be non-decreasing")
            if not (0.0 <= t <= self.duration):
                raise ConfigError("command_script", "time %g outside [0, duration]" % t)
            try:
                encode(msg)  # the protocol's range checks
            except ValueError as exc:
                raise ConfigError("command_script", "time %g %r: %s" % (t, msg, exc)) from exc
            last = t
        load, fields = self.vehicle.step_load(1.0 / self.sim_rate)
        if not (load < 1):
            raise ConfigError("sim_rate", "a %g s step is %.3g times the longest that vehicle.%s"
                              " allow" % (1.0 / self.sim_rate, load, ", vehicle.".join(fields)))
        if why := window_error(self.pipeline.smoothing_window, self.duration,
                               self.pipeline.output_rate):
            raise ConfigError("pipeline.smoothing_window", why)

    def camera_pose(self) -> Pose:
        """The camera in the world frame: above the tank's center, tilted."""
        return Pose(vec3(self.tank_side / 2, self.tank_side / 2, -self.camera_height),
                    rot_x(math.radians(self.camera_tilt_x_deg))
                    @ rot_y(math.radians(self.camera_tilt_y_deg)))


# The paper's experiments, each an ordinary scenario file whose first line is
# a "# " comment that `tanklab list-scenarios` prints.
BUILTIN_SCENARIOS = {name: Path(__file__).with_name("experiments") / (name + ".scenario")
                     for name in ("line", "circle", "zigzag", "pump_test")}


_UNIT_FACTORS = {"_ft": FT, "_in": IN, "_ml": 1.0, "_mL": 1.0}

_PUMP_MODES = {"off": PUMP_MODE_OFF, "intake": PUMP_MODE_INTAKE, "expel": PUMP_MODE_EXPEL}

_COMMAND_FORMS = ("'<time> start [seq_id]', '<time> set_motors <left> <right>'"
                  " or '<time> pump <off|intake|expel> <duration_ms>'")


def _field(scenario: Scenario, key: str) -> tuple[object, str]:
    """The config that holds the dotted ``key``, and the key's last part: a
    section is the name of a config field of the scenario."""
    section, _, attr = key.rpartition(".")
    target = vars(scenario).get(section) if section else scenario
    if not is_dataclass(target):
        raise ConfigError(key, "unknown config section %r" % section)
    return target, attr


def parse_command(text: str) -> tuple[float, Message]:
    """One command line as a timed message; an unparsable line is a
    ``ConfigError``.  Whether the protocol can carry its values is checked
    by ``Scenario.validate``."""
    try:
        time, kind, *args = text.split()
        t = float(time)
        if kind == "start" and len(args) <= 1:
            msg = StartSequence(int(args[0]) if args else 1)
        elif kind == "set_motors" and len(args) == 2:
            msg = SetMotors(int(args[0]), int(args[1]))
        elif kind == "pump" and len(args) == 2 and args[0] in _PUMP_MODES:
            msg = Pump(_PUMP_MODES[args[0]], int(args[1]))
        else:
            raise ValueError("expected " + _COMMAND_FORMS)
    except ValueError as exc:
        raise ConfigError("command", "%r: %s" % (text, exc)) from exc
    return t, msg


def apply_setting(scenario: Scenario, key: str, value_str: str) -> None:
    """Apply one ``key = value`` entry to a scenario in place: a ``command``
    in time order, after those at its time; any other value as its field's type."""
    key, value_str = key.strip(), value_str.strip()
    if key == "command":
        bisect.insort(scenario.command_script, parse_command(value_str), key=lambda c: c[0])
        return
    target, attr = _field(scenario, key)
    base, sep, unit = attr.rpartition("_")
    factor = _UNIT_FACTORS.get(sep + unit)
    if factor is not None:
        attr = base
    if attr not in vars(target):  # dataclass fields only, not derived properties
        raise ConfigError(key, "unknown setting")
    kind = type(getattr(target, attr))
    if kind not in (int, float, str):
        raise ConfigError(key, "field cannot be set from a scenario file")
    if factor is not None and kind is not float:
        raise ConfigError(key, "a unit suffix needs a float field, not %s" % kind.__name__)
    if kind is str and any(c in value_str for c in "#\n\r"):  # a file's line ends there
        raise ConfigError(key, "text cannot hold '#' or a line break, got %r" % value_str)
    try:
        value = kind(value_str)
    except ValueError as exc:
        raise ConfigError(key, "expected %s, got %r" % (kind.__name__, value_str)) from exc
    setattr(target, attr, value if factor is None else value * factor)


def get_scenario(name_or_path: str, settings=()) -> Scenario:
    """The scenario that the file of the built-in ``name_or_path``, or the file
    at that path, describes, with each ``key=value`` of ``settings`` applied
    after the file's lines.  It is not validated here: ``run_scenario``
    validates."""
    path = BUILTIN_SCENARIOS.get(name_or_path, name_or_path)
    scenario = Scenario(name="custom", duration=10.0)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [("line %d" % n, line) for n, raw in enumerate(fh, 1)
                     if (line := raw.split("#", 1)[0].strip())]
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(str(name_or_path), "not a scenario file: %s" % exc) from exc
    for where, text in [*lines, *zip(settings, settings)]:
        key, eq, value = text.partition("=")
        if not eq:
            raise ConfigError(where, "expected 'key = value'")
        apply_setting(scenario, key, value)
    return scenario
