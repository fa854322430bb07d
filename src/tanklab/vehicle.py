"""Mini-UUV plant model: planar differential drive plus syringe buoyancy.

The hull is modeled as a 3-DOF planar body (surge, sway, yaw) with an
independent heave channel driven by the syringe fill relative to neutral.
Quadratic drag on every axis, first-order motor lag, no added mass or
cross-coupling.  Roll and pitch are frozen at zero.  World frame is NED:
z is depth, positive down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.80665          # m/s^2
WATER_DENSITY = 1000.0     # kg/m^3
IR_SIGMA = 0.07            # reflectance falloff, normalized plunger travel
IR_NOISE_FLOOR = 0.05      # minimum channel spread for a usable estimate
MAX_DT = 0.05              # s, longest step the explicit integrator accepts

PUMP_OFF = "off"
PUMP_INTAKE = "intake"
PUMP_EXPEL = "expel"


class VehicleError(ValueError):
    pass


class InvalidDt(VehicleError):
    pass


class NoSignal(VehicleError):
    """IR array carries no usable plunger signal."""


@dataclass
class VehicleParams:
    mass: float = 2.7                    # kg
    body_length: float = 0.30            # m
    propeller_separation: float = 0.06   # m
    max_thrust_per_prop: float = 0.8     # N
    motor_time_constant: float = 0.15    # s
    drag_surge: float = 4.0              # N s^2/m^2
    drag_sway: float = 12.0
    drag_heave: float = 20.0
    drag_yaw: float = 0.08               # N m s^2/rad^2
    yaw_inertia: float = 0.02            # kg m^2
    syringe_capacity: float = 25.0       # mL
    pump_max_rate: float = 100.0         # mL/min
    tank_depth: float = 1.3716           # m

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not (value > 0):
                raise VehicleError("%s must be positive, got %r" % (name, value))

    @property
    def neutral_fill(self) -> float:
        """Fill (mL) at which the hull is neutrally buoyant: half the syringe."""
        return self.syringe_capacity / 2


@dataclass(frozen=True)
class VehicleState:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0          # depth, positive down
    psi: float = 0.0
    u: float = 0.0
    v: float = 0.0
    w: float = 0.0
    r: float = 0.0
    syringe_fill: float = 12.5           # mL
    motor_thrust_left: float = 0.0       # N, lag state
    motor_thrust_right: float = 0.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class ActuatorCommand:
    motor_left: float = 0.0              # normalized [-1, 1]
    motor_right: float = 0.0
    pump: str = PUMP_OFF


@dataclass(frozen=True)
class IrReading:
    channels: tuple[float, ...]

    def spread(self) -> float:
        return max(self.channels) - min(self.channels)


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def pump_step(fill: float, pump_cmd: str, dt: float, params: VehicleParams) -> float:
    """Advance syringe fill by one step; saturates at the syringe limits."""
    rate = params.pump_max_rate / 60.0   # mL/s
    if pump_cmd == PUMP_INTAKE:
        fill += rate * dt
    elif pump_cmd == PUMP_EXPEL:
        fill -= rate * dt
    elif pump_cmd != PUMP_OFF:
        raise VehicleError("unknown pump command %r" % pump_cmd)
    return _clamp(fill, 0.0, params.syringe_capacity)


def step(
    state: VehicleState,
    cmd: ActuatorCommand,
    dt: float,
    params: VehicleParams | None = None,
) -> VehicleState:
    """Semi-implicit Euler update over one time step.

    Velocities are advanced first and positions integrated with the new
    values.  Depth is clamped to [0, tank_depth] with heave zeroed at
    contact (surface float / bottom rest).
    """
    p = params or VehicleParams()
    if not (0.0 < dt <= MAX_DT):
        raise InvalidDt("dt must be in (0, %g], got %r" % (MAX_DT, dt))

    target_l = _clamp(cmd.motor_left, -1.0, 1.0) * p.max_thrust_per_prop
    target_r = _clamp(cmd.motor_right, -1.0, 1.0) * p.max_thrust_per_prop
    k = dt / p.motor_time_constant
    tl = state.motor_thrust_left + k * (target_l - state.motor_thrust_left)
    tr = state.motor_thrust_right + k * (target_r - state.motor_thrust_right)

    fill = pump_step(state.syringe_fill, cmd.pump, dt, p)
    buoy = GRAVITY * WATER_DENSITY * (fill - p.neutral_fill) * 1e-6  # N, +down

    u = state.u + dt * (tl + tr - p.drag_surge * state.u * abs(state.u)) / p.mass
    v = state.v + dt * (-p.drag_sway * state.v * abs(state.v)) / p.mass
    w = state.w + dt * (buoy - p.drag_heave * state.w * abs(state.w)) / p.mass
    r = state.r + dt * (
        (tr - tl) * p.propeller_separation / 2.0
        - p.drag_yaw * state.r * abs(state.r)
    ) / p.yaw_inertia

    psi = state.psi + dt * r
    c, s = math.cos(psi), math.sin(psi)
    x = state.x + dt * (u * c - v * s)
    y = state.y + dt * (u * s + v * c)
    z = state.z + dt * w
    if z < 0.0:
        z, w = 0.0, 0.0
    elif z > p.tank_depth:
        z, w = p.tank_depth, 0.0

    return VehicleState(
        x=x, y=y, z=z, psi=psi,
        u=u, v=v, w=w, r=r,
        syringe_fill=fill,
        motor_thrust_left=tl,
        motor_thrust_right=tr,
    )


def ir_response(
    fill: float, ambient: float, params: VehicleParams | None = None
) -> IrReading:
    """Nine-channel reflectance response to the plunger position.

    Each sensor sits at normalized travel k/8 and sees a Gaussian falloff
    from the plunger plus an additive ambient term (surface-light
    disturbance hitting all channels).
    """
    p = params or VehicleParams()
    pos = fill / p.syringe_capacity
    channels = []
    for k in range(9):
        pk = k / 8.0
        c = math.exp(-((pk - pos) ** 2) / (2.0 * IR_SIGMA**2)) + ambient
        channels.append(_clamp(c, 0.0, 1.0))
    return IrReading(tuple(channels))


def estimate_plunger(
    reading: IrReading, params: VehicleParams | None = None
) -> float:
    """Syringe fill (mL) from a background-subtracted channel centroid."""
    p = params or VehicleParams()
    if reading.spread() < IR_NOISE_FLOOR:
        raise NoSignal("all IR channels within %.2f of each other" % IR_NOISE_FLOOR)
    floor = min(reading.channels)
    num = 0.0
    den = 0.0
    for k, c in enumerate(reading.channels):
        w = c - floor
        num += (k / 8.0) * w
        den += w
    return p.syringe_capacity * num / den


def signal_quality(reading: IrReading) -> str:
    """'ok', 'degraded' (ambient floor washing out contrast), or 'none'."""
    if reading.spread() < IR_NOISE_FLOOR:
        return "none"
    if min(reading.channels) > 0.5 or sum(c >= 0.999 for c in reading.channels) >= 3:
        return "degraded"
    return "ok"


def depth_reading(
    state: VehicleState, noise_sigma: float, rng: np.random.Generator | None = None
) -> float:
    """Pressure-sensor depth: Gaussian noise, quantized to 1 mm."""
    z = state.z
    if noise_sigma > 0.0:
        if rng is None:
            raise VehicleError("rng required when noise_sigma > 0")
        z += rng.normal(0.0, noise_sigma)
    return round(z * 1000.0) / 1000.0
