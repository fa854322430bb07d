"""Mini-UUV plant model: planar differential drive plus syringe buoyancy.

The hull is modeled as a planar body driven in surge and yaw, with an
independent heave channel driven by the syringe fill relative to neutral.
Quadratic drag, first-order motor lag, no added mass or cross-coupling, so
no force acts on sway and it stays at rest.  Roll and pitch are frozen at
zero.  World frame is NED: z is depth, positive down.

The two channels share no variable, so ``step`` integrates each on its
own.  A channel at rest under the held command (heave in a surface run,
the planar drive in a buoyancy run) is at a fixed point: one step leaves
its state's bytes unchanged, and its later rows are that state broadcast,
not computed.

The sensors (IR response, signal quality, plunger estimate, depth) each
take a column with one row per telemetry tick and return a column.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.80665          # m/s^2
WATER_DENSITY = 1000.0     # kg/m^3
IR_SIGMA = 0.07            # reflectance falloff, normalized plunger travel
IR_NOISE_FLOOR = 0.05      # minimum channel spread for a usable estimate
MAX_DT = 0.05              # s, longest step the explicit integrator accepts
PLANAR_BLOCK = 1024        # steps per column pass of the planar heading and position
# A step dt must also shrink each channel's distance to its equilibrium:
# motor lag scales it by 1 - dt / tau, so dt < 2 tau; a drag channel
# M dv/dt = F - c v|v| at full command F, linearised at its terminal speed
# sqrt(F / c), by 1 - 2 dt sqrt(c F) / M, so dt sqrt(c F) < M (step_load).

# One record per simulation step of ground truth; psi is continuous (unwrapped).
TRUTH_DTYPE = np.dtype(
    [(name, float) for name in ("t", "x", "y", "z", "psi", "u", "v", "w", "r", "fill")]
)
# each channel's fields, and their columns in a truth row, which step writes
PLANAR_FIELDS = ("x", "y", "psi", "u", "v", "r")
HEAVE_FIELDS = ("z", "w", "fill")
PLANAR_COLUMNS, HEAVE_COLUMNS = ([TRUTH_DTYPE.names.index(name) for name in fields]
                                 for fields in (PLANAR_FIELDS, HEAVE_FIELDS))


class VehicleError(ValueError):
    pass


@dataclass
class VehicleParams:
    mass: float = 2.7                    # kg
    propeller_separation: float = 0.06   # m
    max_thrust_per_prop: float = 0.8     # N
    motor_time_constant: float = 0.15    # s
    drag_surge: float = 4.0              # N s^2/m^2
    drag_heave: float = 20.0
    drag_yaw: float = 0.08               # N m s^2/rad^2
    yaw_inertia: float = 0.02            # kg m^2
    syringe_capacity: float = 25.0       # mL
    pump_max_rate: float = 100.0         # mL/min
    tank_depth: float = 1.3716           # m

    def step_load(self, dt: float) -> tuple[float, tuple[str, ...]]:
        """Over the channels, the largest ratio of ``dt`` to the longest step
        that holds, and that channel's fields (bounds beside ``MAX_DT``)."""
        buoyancy = GRAVITY * WATER_DENSITY * self.syringe_capacity / 2 * 1e-6  # N, syringe full
        return max(
            (dt / (2 * self.motor_time_constant), ("motor_time_constant",)),
            (dt * math.sqrt(self.drag_surge * 2 * self.max_thrust_per_prop) / self.mass,
             ("drag_surge", "max_thrust_per_prop", "mass")),
            (dt * math.sqrt(self.drag_yaw * self.max_thrust_per_prop * self.propeller_separation)
             / self.yaw_inertia,
             ("drag_yaw", "max_thrust_per_prop", "propeller_separation", "yaw_inertia")),
            (dt * math.sqrt(self.drag_heave * buoyancy) / self.mass,
             ("drag_heave", "syringe_capacity", "mass")),
        )

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
    fill: float = 12.5                   # mL, syringe
    motor_thrust_left: float = 0.0       # N, lag state
    motor_thrust_right: float = 0.0


@dataclass(frozen=True)
class ActuatorCommand:
    motor_left: float = 0.0              # normalized [-1, 1]
    motor_right: float = 0.0
    pump: int = 0                        # fill direction: +1 intake, -1 expel, 0 off


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def step(
    state: VehicleState,
    cmd: ActuatorCommand,
    dt: float,
    params: VehicleParams | None = None,
    n: int = 1,
    out: np.ndarray | None = None,
) -> VehicleState:
    """Semi-implicit Euler update over ``n`` time steps under one command.

    Velocities are advanced first and positions integrated with the new
    values.  Depth is clamped to [0, tank_depth] with heave zeroed at
    contact (surface float / bottom rest).  The planar channel (motor lag,
    ``u``, ``r``, ``psi``, ``x``, ``y``) and the heave channel (``fill``,
    ``w``, ``z``) share no variable, so each is integrated on its own.  No
    force acts on the sway ``v``, so it must be +0.0 and stays so.  Only
    what feeds back is stepped in a loop of plain floats: motor lag, ``u``
    and ``r``, and the heave channel's ``w`` and ``z``; the heading,
    position, fill and buoyancy are column passes with the same float
    operations, so ``n`` steps give the same bits as ``n`` calls.  A channel
    whose first step leaves its state's bytes unchanged is at a fixed point
    under the held command: its other steps repeat it without computing it.
    The probe runs once per call, so a channel that comes to rest later in
    the call is computed to its end.
    When ``out`` is given, an ``(n, len(TRUTH_DTYPE))`` float table (a
    slice of the truth table), its row ``i`` gets step ``i``'s pre-step
    state in every column but the time, column 0, which the caller fills.
    """
    p = params or VehicleParams()
    if not (0.0 < dt <= MAX_DT):
        raise VehicleError("dt must be in (0, %g], got %r" % (MAX_DT, dt))
    if cmd.pump not in (-1, 0, 1):
        raise VehicleError("unknown pump command %r" % cmd.pump)
    if not _same_bits((state.v,), (0.0,)):
        raise VehicleError("sway v must be +0.0, no force acts on it, got %r" % state.v)
    dfill = cmd.pump * (p.pump_max_rate / 60.0) * dt  # mL per step
    out = np.empty((n, len(TRUTH_DTYPE))) if out is None else out

    x, y, psi, u, v, r, tl, tr = _planar_steps(
        (state.x, state.y, state.psi, state.u, state.v, state.r,
         state.motor_thrust_left, state.motor_thrust_right), cmd, dt, p, n, out)
    z, w, fill = _heave_steps((state.z, state.w, state.fill), dfill, dt, p, n, out)
    return VehicleState(x, y, z, psi, u, v, w, r, fill, tl, tr)


def _planar_steps(planar, cmd, dt, p, m, out):
    """``m`` steps of the planar channel ``(x, y, psi, u, v, r, tl, tr)``;
    each pre-step ``(x, y, psi, u, v, r)`` goes to ``out``'s
    ``PLANAR_COLUMNS``.

    Only motor lag, ``u`` and ``r`` feed back, so after the first step, the
    fixed-point probe, only they are stepped one at a time; the heading and
    the position are column passes (``_pose_pass``) of up to
    ``PLANAR_BLOCK`` steps, and ``v`` is the +0.0 it started at."""
    target_l = _clamp(cmd.motor_left, -1.0, 1.0) * p.max_thrust_per_prop
    target_r = _clamp(cmd.motor_right, -1.0, 1.0) * p.max_thrust_per_prop
    k = dt / p.motor_time_constant
    mass, inertia, arm = p.mass, p.yaw_inertia, p.propeller_separation
    c_u, c_r = p.drag_surge, p.drag_yaw

    x, y, psi, u, v, r, tl, tr = planar
    us, rs = array("d", [u]), array("d", [r])
    push_u, push_r = us.append, rs.append
    for i in range(m):
        tl = tl + k * (target_l - tl)
        tr = tr + k * (target_r - tr)

        u = u + dt * (tl + tr - c_u * u * abs(u)) / mass
        r = r + dt * ((tr - tl) * arm / 2.0 - c_r * r * abs(r)) / inertia
        push_u(u)
        push_r(r)
        if not i:
            heading = psi + dt * r
            if _same_bits((x + dt * (u * math.cos(heading)), y + dt * (u * math.sin(heading)),
                           heading, u, v, r, tl, tr), planar):
                out[:, PLANAR_COLUMNS] = planar[:6]  # a fixed point: every row is its state
                return planar
    us, rs = np.frombuffer(us), np.frombuffer(rs)
    u_col, v_col, r_col = PLANAR_COLUMNS[3:]
    out[:, u_col], out[:, v_col], out[:, r_col] = us[:-1], v, rs[:-1]
    for a in range(0, m, PLANAR_BLOCK):
        rows = out[a : a + PLANAR_BLOCK]
        post = slice(a + 1, a + 1 + len(rows))
        x, y, psi = _pose_pass(x, y, psi, us[post], rs[post], dt, rows)
    return x, y, psi, u, v, r, tl, tr


def _pose_pass(x, y, psi, u, r, dt, rows):
    """Step ``(x, y, psi)`` once under each post-step ``u`` and ``r`` of
    those columns: ``psi += dt * r``, then ``x += dt * (u * c)`` and ``y +=
    dt * (u * s)``.  Each pre-step ``(x, y, psi)`` goes to the
    ``PLANAR_COLUMNS[:3]`` of ``rows``; returns the last.  The running sums
    are ``np.add.accumulate``, which adds left to right with one rounding
    per add; ``c`` and ``s`` are ``math.cos`` and ``math.sin`` of each
    heading, since numpy's round some arguments differently."""
    pose = np.empty((3, len(r) + 1))
    pose[:, 0] = x, y, psi
    np.multiply(dt, r, out=pose[2, 1:])
    heading = np.add.accumulate(pose[2], out=pose[2])[1:].tolist()
    c, s = (np.fromiter(map(f, heading), float, len(heading)) for f in (math.cos, math.sin))
    pose[0, 1:], pose[1, 1:] = dt * (u * c), dt * (u * s)
    np.add.accumulate(pose[:2], axis=1, out=pose[:2])
    rows[:, PLANAR_COLUMNS[:3]] = pose[:, :-1].T
    return pose[:, -1].tolist()


def _heave_steps(heave, dfill, dt, p, m, out):
    """``m`` steps of the heave channel ``(z, w, fill)``; each pre-step
    state goes to ``out``'s ``HEAVE_COLUMNS``.

    The fill and the buoyancy do not depend on the motion, so after the
    first step, the fixed-point probe, each is one column over the call;
    only ``w`` and ``z`` are stepped one at a time (``_motion_steps``)."""
    if m < 1:
        return heave
    capacity, neutral = p.syringe_capacity, p.neutral_fill
    g_rho = GRAVITY * WATER_DENSITY
    zs, ws = array("d"), array("d")

    fill = _clamp(heave[2] + dfill, 0.0, capacity)
    z, w = _motion_steps(heave[0], heave[1], [g_rho * (fill - neutral) * 1e-6], dt, p, zs, ws)
    if _same_bits((z, w, fill), heave):
        out[:, HEAVE_COLUMNS] = heave  # a fixed point: every row is its state
        return heave

    # each step's fill: add.accumulate adds left to right, one rounding per
    # add as ``fill += dfill``; the sums are monotone, so clamping them holds
    # the fill at a bound from the first step that passes it
    fills = np.empty(m)
    fills.fill(dfill)
    fills[0] = fill
    np.add.accumulate(fills, out=fills)
    fills.clip(0.0, capacity, out=fills)
    buoy = g_rho * (fills - neutral) * 1e-6  # N, +down; the probe took buoy[0]
    z, w = _motion_steps(z, w, memoryview(buoy)[1:], dt, p, zs, ws)
    z_col, w_col, fill_col = HEAVE_COLUMNS
    out[:, z_col], out[:, w_col] = zs, ws
    out[0, fill_col], out[1:, fill_col] = heave[2], fills[:-1]
    return z, w, float(fills[-1])


def _motion_steps(z, w, buoys, dt, p, zs, ws):
    """Step ``(z, w)`` once under each buoyancy (N) of ``buoys``, clamped
    at the surface and the bottom; each pre-step ``z`` and ``w`` is
    appended to ``zs`` and ``ws``."""
    mass, c_w, depth = p.mass, p.drag_heave, p.tank_depth
    push_z, push_w = zs.append, ws.append
    for buoy in buoys:
        push_z(z)
        push_w(w)
        w = w + dt * (buoy - c_w * w * abs(w)) / mass
        z = z + dt * w
        if z < 0.0:
            z, w = 0.0, 0.0
        elif z > depth:
            z, w = depth, 0.0
    return z, w


def _same_bits(a: tuple, b: tuple) -> bool:
    """Bytewise float equality: ``-0.0`` and ``0.0`` differ (they print
    differently), and a NaN equals its own bits."""
    return array("d", a).tobytes() == array("d", b).tobytes()


def ir_response(fill, ambient: float, params: VehicleParams | None = None) -> np.ndarray:
    """Nine-channel reflectance response to each plunger position in the
    column ``fill`` (mL): an ``(n, 9)`` array.

    Each sensor sits at normalized travel k/8 and sees a Gaussian falloff
    from the plunger plus an additive ambient term (surface-light
    disturbance hitting all channels).  The falloff is ``math.exp`` of a
    Python float per element: numpy's ``exp`` and ``**`` round some
    arguments differently.
    """
    p = params or VehicleParams()
    d = np.arange(9) / 8.0 - np.asarray(fill, dtype=float).reshape(-1, 1) / p.syringe_capacity
    falloff = [math.exp(-(x ** 2) / (2.0 * IR_SIGMA**2)) for x in d.ravel().tolist()]
    return np.clip(np.reshape(falloff, d.shape) + ambient, 0.0, 1.0)


def _flat(readings: np.ndarray) -> np.ndarray:
    """Rows whose channels all lie within ``IR_NOISE_FLOOR`` of each other."""
    return readings.max(axis=1) - readings.min(axis=1) < IR_NOISE_FLOOR


def estimate_plunger(readings: np.ndarray, params: VehicleParams | None = None) -> np.ndarray:
    """Syringe fill (mL) of each row of ``readings`` from its
    background-subtracted channel centroid.  The sums are one column add
    per channel, in channel order, so each row's sums are a loop's over its
    channels (``np.sum`` adds in another order)."""
    p = params or VehicleParams()
    if _flat(readings).any():
        raise VehicleError("all IR channels within %.2f of each other" % IR_NOISE_FLOOR)
    w = readings - readings.min(axis=1, keepdims=True)
    num = den = 0.0
    for k in range(9):
        num = num + (k / 8.0) * w[:, k]
        den = den + w[:, k]
    return p.syringe_capacity * num / den


def signal_quality(readings: np.ndarray) -> np.ndarray:
    """Per row: 'ok', 'degraded' (every channel above 0.5), or 'none'.  No
    saturation rule is needed: at ambient <= 0.5 a channel of ``ir_response``
    reads 0.999 only at a falloff of 0.499 or more, within 0.0826 of the
    plunger's normalized travel, where channels 1/8 apart fit at most two."""
    return np.where(_flat(readings), "none", np.where(readings.min(axis=1) > 0.5, "degraded", "ok"))


def depth_reading(
    z, noise_sigma: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Pressure-sensor readings of the depth column ``z``: Gaussian noise,
    one ``rng.normal(size=n)`` draw (n scalar draws), quantized to 1 mm."""
    z = np.asarray(z, dtype=float)
    if noise_sigma > 0.0:
        if rng is None:
            raise VehicleError("rng required when noise_sigma > 0")
        z = z + rng.normal(0.0, noise_sigma, size=z.shape)
    return np.rint(z * 1000.0) / 1000.0
