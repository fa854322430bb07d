"""Scenario definitions: built-in experiments and declarative scenario files.

A scenario file is flat ``key = value`` text.  Dotted keys reach into the
vehicle/camera/channel/pipeline configs; ``command`` lines append to the
ground-station script.  Keys suffixed ``_ft`` or ``_in`` are converted to
meters at load; syringe volumes are milliliters natively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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


@dataclass
class Scenario:
    name: str
    duration: float
    command_script: list[tuple[float, Message]] = field(default_factory=list)
    vehicle_params: VehicleParams = field(default_factory=VehicleParams)
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
        if self.duration <= 0:
            raise ConfigError("duration", "must be > 0")
        if not (self.sim_rate > 0 and 1.0 / self.sim_rate <= MAX_DT):
            raise ConfigError("sim_rate", "must be >= %g Hz (plant steps of at most %g s)"
                              % (1.0 / MAX_DT, MAX_DT))
        if not (self.telemetry_rate > 0):
            raise ConfigError("telemetry_rate", "must be > 0")
        if not (self.depth_noise_sigma >= 0):
            raise ConfigError("depth_noise_sigma", "must be >= 0")
        if self.camera.frame_rate > self.sim_rate:
            raise ConfigError("camera.frame_rate", "must not exceed sim_rate (%g Hz)"
                              % self.sim_rate)
        if self.plot_frame not in ("ned", "paper"):
            raise ConfigError("plot_frame", "must be 'ned' or 'paper'")
        last = -math.inf
        for t, _ in self.command_script:
            if t < last:
                raise ConfigError("command_script", "times must be non-decreasing")
            if not (0.0 <= t <= self.duration):
                raise ConfigError("command_script", "time %g outside [0, duration]" % t)
            last = t
        for section in ("vehicle", "camera", "channel", "pipeline"):
            try:
                getattr(self, _SUBCONFIGS[section]).validate()
            except ValueError as exc:
                raise ConfigError(section, str(exc)) from exc
        # a segment needs 2 * window resampled states; the longest possible
        # one, a whole run, has floor(duration * rate) + 1
        window, rate = self.pipeline.smoothing_window, self.pipeline.output_rate
        if 2 * window > math.floor(self.duration * rate) + 1:
            raise ConfigError("pipeline.smoothing_window",
                              "%d needs %g s of uninterrupted detections, run is %g s"
                              % (window, (2 * window - 1) / rate, self.duration))

    def build_camera(self) -> CameraConfig:
        """Camera config with the pose assembled from height and tilt."""
        rot = rot_x(math.radians(self.camera_tilt_x_deg)) @ rot_y(
            math.radians(self.camera_tilt_y_deg)
        )
        pose = Pose(vec3(self.tank_side / 2, self.tank_side / 2, -self.camera_height), rot)
        return replace(self.camera, pose=pose)


def line_scenario() -> Scenario:
    """Straight surface run sized to cover roughly 10 ft."""
    s = Scenario("line", 8.35, initial_x=0.5, initial_y=2.05, initial_psi=0.0, seed=11)
    s.command_script = [
        (0.2, StartSequence(1)),
        (0.3, SetMotors(50, 50)),
    ]
    return s


def circle_scenario() -> Scenario:
    """Constant differential producing a turn radius of about 6 ft."""
    s = Scenario("circle", 22.0, initial_x=TANK_SIDE / 2, initial_y=0.23,
                 initial_psi=0.0, seed=12)
    s.command_script = [
        (0.2, StartSequence(1)),
        (0.3, SetMotors(40, 60)),
    ]
    return s


def zigzag_scenario() -> Scenario:
    """Two zig-zag maneuvers: five alternating differential phases."""
    s = Scenario("zigzag", 13.5, initial_x=0.6, initial_y=0.6,
                 initial_psi=math.pi / 4, seed=13)
    script: list[tuple[float, Message]] = [(0.2, StartSequence(1))]
    phase = 2.5
    for i in range(5):
        left, right = (40, 20) if i % 2 == 0 else (20, 40)
        script.append((0.3 + i * phase, SetMotors(left, right)))
    s.command_script = script
    return s


def pump_test_scenario() -> Scenario:
    """Buoyancy cycling: sink toward 1 m, rise, and repeat.

    Commands sent while the vehicle is deep are frequently lost, so pump
    commands are retried; the schedule is tuned for the default seed.
    """
    s = Scenario("pump_test", 64.0, initial_x=TANK_SIDE / 2, initial_y=TANK_SIDE / 2,
                 seed=14)
    script: list[tuple[float, Message]] = [
        (0.2, StartSequence(1)),
        (0.4, StartSequence(1)),
        (0.5, Pump(PUMP_MODE_INTAKE, 8000)),
        (0.8, Pump(PUMP_MODE_INTAKE, 8000)),
        (1.1, Pump(PUMP_MODE_INTAKE, 8000)),
    ]
    # expel starts near 0.5 m so the slow pump turns the dive around near 1 m;
    # retried because delivery degrades with depth
    for i in range(10):
        script.append((11.0 + 0.25 * i, Pump(PUMP_MODE_EXPEL, 15000)))
    # back on the surface: refill (reliable) and sink again
    for t in (38.0, 38.3, 38.6):
        script.append((t, Pump(PUMP_MODE_INTAKE, 15000)))
    for i in range(10):
        script.append((48.5 + 0.25 * i, Pump(PUMP_MODE_EXPEL, 15000)))
    s.command_script = script
    return s


BUILTIN_SCENARIOS = {
    "line": line_scenario,
    "circle": circle_scenario,
    "zigzag": zigzag_scenario,
    "pump_test": pump_test_scenario,
}


_LENGTH_SUFFIXES = {"_ft": FT, "_in": IN, "_ml": 1.0, "_mL": 1.0}

_PUMP_MODES = {"off": PUMP_MODE_OFF, "intake": PUMP_MODE_INTAKE, "expel": PUMP_MODE_EXPEL}

_COMMAND_FORMS = ("'<time> start [seq_id]', '<time> set_motors <left> <right>'"
                  " or '<time> pump <off|intake|expel> <duration_ms>'")

_SUBCONFIGS = {
    "vehicle": "vehicle_params",
    "camera": "camera",
    "channel": "channel",
    "pipeline": "pipeline",
    "tag": "tag",
}


def _coerce(target, value_str: str, field_name: str):
    if isinstance(target, bool):
        return value_str.lower() in ("1", "true", "yes")
    if isinstance(target, int) and not isinstance(target, bool):
        try:
            return int(value_str)
        except ValueError as exc:
            raise ConfigError(field_name, "expected integer, got %r" % value_str) from exc
    if isinstance(target, float):
        try:
            return float(value_str)
        except ValueError as exc:
            raise ConfigError(field_name, "expected number, got %r" % value_str) from exc
    if isinstance(target, str):
        return value_str
    raise ConfigError(field_name, "field cannot be set from a scenario file")


def parse_command(text: str) -> tuple[float, Message]:
    """One command line as a timed message.  A value the protocol cannot
    carry fails ``encode``'s range checks (``LinkError``, a ``ValueError``)
    and, like any unparsable line, is a ``ConfigError``."""
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
        encode(msg)
    except ValueError as exc:
        raise ConfigError("command", "%r: %s" % (text, exc)) from exc
    return t, msg


def apply_setting(scenario: Scenario, key: str, value_str: str) -> None:
    """Apply one ``key = value`` entry to a scenario in place."""
    key = key.strip()
    value_str = value_str.strip()
    if key == "command":
        scenario.command_script.append(parse_command(value_str))
        return
    if "." in key:
        prefix, attr = key.split(".", 1)
        if prefix not in _SUBCONFIGS:
            raise ConfigError(key, "unknown config section %r" % prefix)
        target = getattr(scenario, _SUBCONFIGS[prefix])
    else:
        target, attr = scenario, key
    attr, value_str = _apply_unit(attr, value_str, key)
    if attr not in vars(target):  # dataclass fields only, not derived properties
        raise ConfigError(key, "unknown setting")
    current = getattr(target, attr)
    setattr(target, attr, _coerce(current, value_str, key))


def _apply_unit(attr: str, value_str: str, key: str) -> tuple[str, str]:
    for suffix, factor in _LENGTH_SUFFIXES.items():
        if attr.endswith(suffix):
            try:
                return attr[: -len(suffix)], repr(float(value_str) * factor)
            except ValueError as exc:
                raise ConfigError(key, "expected number, got %r" % value_str) from exc
    return attr, value_str


def load_scenario_file(path) -> Scenario:
    scenario = Scenario(name="custom", duration=10.0)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d" % lineno, "expected 'key = value'")
            key, value = line.split("=", 1)
            apply_setting(scenario, key, value)
    scenario.command_script.sort(key=lambda item: item[0])
    scenario.validate()
    return scenario


def get_scenario(name_or_path: str) -> Scenario:
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]()
    return load_scenario_file(name_or_path)
