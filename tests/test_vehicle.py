import ast
import math
from array import array
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute_force as bf
from tanklab import vehicle
from tanklab.scenarios import ConfigError, get_scenario
from tanklab.vehicle import (
    GRAVITY,
    HEAVE_COLUMNS,
    HEAVE_FIELDS,
    PLANAR_BLOCK,
    PLANAR_FIELDS,
    TRUTH_DTYPE,
    WATER_DENSITY,
    ActuatorCommand,
    VehicleError,
    VehicleParams,
    VehicleState,
    depth_reading,
    estimate_plunger,
    ir_response,
    signal_quality,
    step,
)

DT = 1.0 / 240.0
INTAKE, EXPEL, OFF = 1, -1, 0  # ActuatorCommand.pump's fill directions


def run_steps(state, cmd, n, dt=DT, params=None):
    for _ in range(n):
        state = step(state, cmd, dt, params)
    return state


class TestParams:
    """The vehicle's settings are checked once, with the scenario's."""

    def test_defaults_valid(self):
        get_scenario("line").validate()

    def test_negative_mass(self):
        with pytest.raises(ConfigError) as exc:
            get_scenario("line", ["vehicle.mass=-1.0"]).validate()
        assert exc.value.field_name == "vehicle.mass"


class TestPump:
    """The syringe fill, through ``step``."""

    def test_rate(self):
        # 100 mL/min -> exactly 1/12 mL per 0.05 s
        s = step(VehicleState(fill=12.5), ActuatorCommand(pump=INTAKE), 0.05)
        assert s.fill == pytest.approx(12.5 + 100.0 / 1200.0, abs=1e-12)

    def test_full_stroke_duration(self):
        # 0 -> 25 mL at 100 mL/min takes exactly 15 s
        p = VehicleParams()
        s, t = VehicleState(fill=0.0), 0.0
        while s.fill < p.syringe_capacity:
            s = step(s, ActuatorCommand(pump=INTAKE), DT, p)
            t += DT
        assert t == pytest.approx(15.0, abs=2 * DT)

    def test_saturation(self):
        intake, expel = ActuatorCommand(pump=INTAKE), ActuatorCommand(pump=EXPEL)
        assert step(VehicleState(fill=24.999), intake, 0.05).fill == 25.0
        assert step(VehicleState(fill=0.001), expel, 0.05).fill == 0.0

    def test_off_is_identity(self):
        assert step(VehicleState(fill=7.0), ActuatorCommand(), 0.05).fill == 7.0

    def test_unknown_command(self):
        for pump in (2, 3):  # 2 is the wire's expel code, not a direction
            with pytest.raises(VehicleError):
                step(VehicleState(), ActuatorCommand(pump=pump), DT)


class TestStep:
    def test_rest_stays_at_rest(self):
        s = run_steps(VehicleState(), ActuatorCommand(), 100)
        assert s.u == 0.0 and s.v == 0.0 and s.w == 0.0 and s.r == 0.0
        assert s.x == 0.0 and s.y == 0.0 and s.z == 0.0

    def test_invalid_dt(self):
        with pytest.raises(VehicleError, match="dt must be in"):
            step(VehicleState(), ActuatorCommand(), 0.0)
        with pytest.raises(VehicleError, match="dt must be in"):
            step(VehicleState(), ActuatorCommand(), 0.1)

    def test_terminal_surge_speed(self):
        # steady state of m*du = (T_l + T_r) - c_u u|u|:
        # u* = sqrt(2 c T_max / c_u) with both motors at c
        p = VehicleParams()
        c = 0.5
        cmd = ActuatorCommand(c, c)
        s = run_steps(VehicleState(), cmd, 240 * 20, params=p)
        expected = math.sqrt(2 * c * p.max_thrust_per_prop / p.drag_surge)
        assert expected == pytest.approx(0.44721, abs=1e-4)
        assert s.u == pytest.approx(expected, rel=1e-3)
        assert abs(s.v) < 1e-12 and abs(s.r) < 1e-9

    def test_terminal_yaw_rate(self):
        # differential thrust torque balanced by quadratic yaw drag
        p = VehicleParams()
        cmd = ActuatorCommand(0.4, 0.6)
        s = run_steps(VehicleState(), cmd, 240 * 20, params=p)
        torque = (0.6 - 0.4) * p.max_thrust_per_prop * p.propeller_separation / 2
        expected = math.sqrt(torque / p.drag_yaw)
        assert s.r == pytest.approx(expected, rel=1e-3)

    def test_motor_lag_time_constant(self):
        # thrust reaches ~63.2% of target after one time constant
        p = VehicleParams()
        cmd = ActuatorCommand(1.0, 1.0)
        n = int(round(p.motor_time_constant / DT))
        s = run_steps(VehicleState(), cmd, n, params=p)
        frac = s.motor_thrust_left / p.max_thrust_per_prop
        assert frac == pytest.approx(1 - math.exp(-1), abs=0.01)

    def test_straight_line_track(self):
        cmd = ActuatorCommand(0.5, 0.5)
        s = run_steps(VehicleState(psi=0.3), cmd, 240 * 5)
        assert s.psi == pytest.approx(0.3, abs=1e-9)
        assert s.y / s.x == pytest.approx(math.tan(0.3), rel=1e-6)

    def test_neutral_fill_no_heave(self):
        s = run_steps(VehicleState(z=0.5), ActuatorCommand(), 240)
        assert s.z == pytest.approx(0.5, abs=1e-12)
        assert s.w == 0.0

    def test_full_syringe_sinks(self):
        s0 = VehicleState(fill=25.0)
        s = run_steps(s0, ActuatorCommand(), 240 * 2)
        assert s.z > 0.01 and s.w > 0.0

    def test_empty_syringe_rises(self):
        s0 = VehicleState(z=1.0, fill=0.0)
        s = run_steps(s0, ActuatorCommand(), 240 * 2)
        assert s.z < 1.0 and s.w < 0.0

    def test_heave_force_magnitude(self):
        # 12.5 mL of excess water: F = g * rho * 12.5e-6 ~ 0.1226 N
        f = GRAVITY * WATER_DENSITY * 12.5e-6
        assert f == pytest.approx(0.12258, abs=1e-4)
        s = step(VehicleState(fill=25.0), ActuatorCommand(), DT)
        assert s.w == pytest.approx(DT * f / VehicleParams().mass, rel=1e-9)

    def test_surface_clamp(self):
        s0 = VehicleState(z=0.001, w=-0.5, fill=0.0)
        s = step(s0, ActuatorCommand(), DT)
        assert s.z == 0.0 and s.w == 0.0

    def test_bottom_clamp(self):
        p = VehicleParams()
        s0 = VehicleState(z=p.tank_depth - 0.001, w=0.5, fill=25.0)
        s = step(s0, ActuatorCommand(), DT, p)
        assert s.z == p.tank_depth and s.w == 0.0

    def test_reverse_thrust(self):
        s = run_steps(VehicleState(), ActuatorCommand(-0.5, -0.5), 240 * 5)
        assert s.u < 0 and s.x < 0

    def test_command_clamped(self):
        s1 = run_steps(VehicleState(), ActuatorCommand(5.0, 5.0), 240)
        s2 = run_steps(VehicleState(), ActuatorCommand(1.0, 1.0), 240)
        assert s1.u == pytest.approx(s2.u, abs=1e-12)

    def test_energy_dissipates_unforced(self):
        # quadratic drag decays ~1/t, so expect a large but partial drop
        s0 = VehicleState(u=0.5, v=0.2, r=1.0)
        s = run_steps(s0, ActuatorCommand(), 240 * 10)
        assert 0 < s.u < 0.1 and 0 <= s.v < 0.05 and 0 < s.r < 0.1



TANK = VehicleParams().tank_depth
FIELDS = PLANAR_FIELDS + HEAVE_FIELDS


def reference_step(state, cmd, dt, p):
    """One plant step written out on the dataclass fields, as the reference
    for the float expressions ``step`` carries over its ``n`` steps."""
    def clamp(x, lo, hi):
        return lo if x < lo else hi if x > hi else x

    target_l = clamp(cmd.motor_left, -1.0, 1.0) * p.max_thrust_per_prop
    target_r = clamp(cmd.motor_right, -1.0, 1.0) * p.max_thrust_per_prop
    k = dt / p.motor_time_constant
    tl = state.motor_thrust_left + k * (target_l - state.motor_thrust_left)
    tr = state.motor_thrust_right + k * (target_r - state.motor_thrust_right)
    rate = p.pump_max_rate / 60.0
    dfill = {OFF: 0.0, INTAKE: rate * dt, EXPEL: -(rate * dt)}
    fill = clamp(state.fill + dfill[cmd.pump], 0.0, p.syringe_capacity)
    buoy = GRAVITY * WATER_DENSITY * (fill - p.neutral_fill) * 1e-6
    u = state.u + dt * (tl + tr - p.drag_surge * state.u * abs(state.u)) / p.mass
    v = state.v + dt * (-p.drag_sway * state.v * abs(state.v)) / p.mass
    w = state.w + dt * (buoy - p.drag_heave * state.w * abs(state.w)) / p.mass
    r = state.r + dt * ((tr - tl) * p.propeller_separation / 2.0
                        - p.drag_yaw * state.r * abs(state.r)) / p.yaw_inertia
    psi = state.psi + dt * r
    x = state.x + dt * (u * math.cos(psi) - v * math.sin(psi))
    y = state.y + dt * (u * math.sin(psi) + v * math.cos(psi))
    z = state.z + dt * w
    if z < 0.0:
        z, w = 0.0, 0.0
    elif z > p.tank_depth:
        z, w = p.tank_depth, 0.0
    return VehicleState(x, y, z, psi, u, v, w, r, fill, tl, tr)


def bits(values):
    """The bytes of a float sequence: ``-0.0`` and ``0.0`` differ."""
    return array("d", values).tobytes()


def state_rows(states):
    """The bytes of these states' truth rows without the time, column 0."""
    return bits([getattr(s, name) for s in states for name in TRUTH_DTYPE.names[1:]])


def column(out, name):
    """One field's column of a truth table that ``step`` wrote."""
    return out[:, TRUTH_DTYPE.names.index(name)]


def untouched(table):
    """Whether every cell that ``step`` does not own, column 0 and the first
    and last row, still holds the NaN that ``table`` was filled with."""
    return np.isnan(table[:, 0]).all() and np.isnan(table[[0, -1]]).all()


def near(*points):
    """A float at one of ``points``, one ulp either side of it, or within
    1e-9 or 1e-3 of it."""
    def around(c):
        return (st.sampled_from([c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)])
                | st.floats(c - 1e-9, c + 1e-9) | st.floats(c - 1e-3, c + 1e-3))
    return st.sampled_from(points).flatmap(around)


def assert_n_steps_equal_n_calls(start, cmd, n, p):
    """``step(start, cmd, n=n, out=out)`` against ``n`` single calls and
    ``n`` ``reference_step`` calls, bit for bit, in the state it returns and
    in every column of ``out`` but the time; returns ``out``."""
    out = np.full((n, len(TRUTH_DTYPE)), np.nan)
    got = step(start, cmd, DT, p, n=n, out=out)

    calls, refs = [start], [start]
    for _ in range(n):
        calls.append(step(calls[-1], cmd, DT, p))
        refs.append(reference_step(refs[-1], cmd, DT, p))
    assert bits(astuple(got)) == bits(astuple(calls[-1])) == bits(astuple(refs[-1]))
    assert out[:, 1:].tobytes() == state_rows(calls[:-1]) == state_rows(refs[:-1])
    return out


class TestStepN:
    """``step(..., n=N, out=out)`` is ``N`` single calls, bit for bit."""

    @pytest.mark.parametrize("pump, start, contact", [
        # empty syringe rising onto the surface
        (OFF, VehicleState(z=0.02, w=-0.1, fill=0.0), ("z", 0.0)),
        # filling to capacity while sinking onto the bottom
        (INTAKE, VehicleState(z=TANK - 0.02, w=0.1, fill=24.0),
         ("z", TANK)),
        (INTAKE, VehicleState(z=0.5, fill=24.0), ("fill", 25.0)),
        # emptying while rising to the surface
        (EXPEL, VehicleState(z=0.05, w=-0.05, fill=1.0), ("fill", 0.0)),
        (EXPEL, VehicleState(z=0.05, w=-0.05, fill=1.0), ("z", 0.0)),
    ], ids=[  # the pump by its wire code: 0 off, 1 intake, 2 expel
        "0-start0-contact0", "1-start1-contact1", "1-start2-contact2",
        "2-start3-contact3", "2-start4-contact4",
    ])
    def test_n_steps_equal_n_calls(self, pump, start, contact):
        cmd = ActuatorCommand(0.3, -0.7, pump)  # asymmetric: surge, sway and yaw all move
        out = assert_n_steps_equal_n_calls(start, cmd, 600, VehicleParams())
        name, value = contact
        col = column(out, name).tolist()
        assert value in col[1:] and col[0] != value  # reached during the run

    @pytest.mark.parametrize("start, cmd, resting, first_rest_row", [
        # planar at rest, heave sinking
        (VehicleState(x=1.5, y=2.0, psi=0.4, z=0.3, fill=20.0),
         ActuatorCommand(), PLANAR_FIELDS, 0),
        # heave at rest on the surface at neutral fill, planar driven
        (VehicleState(x=1.5, y=2.0, psi=0.4), ActuatorCommand(0.3, -0.7), HEAVE_FIELDS, 0),
        # both at rest
        (VehicleState(x=1.5, y=2.0, psi=0.4, z=0.7), ActuatorCommand(), FIELDS, 0),
        # a -0.0 at rest becomes +0.0 in one step: no fixed point until step 2
        (VehicleState(x=1.5, u=-0.0), ActuatorCommand(pump=INTAKE), PLANAR_FIELDS, 1),
        (VehicleState(x=1.5, r=-0.0), ActuatorCommand(pump=INTAKE), PLANAR_FIELDS, 1),
        (VehicleState(z=0.7, w=-0.0), ActuatorCommand(0.3, -0.7), HEAVE_FIELDS, 1),
        (VehicleState(x=1.5, motor_thrust_left=-0.0),
         ActuatorCommand(pump=INTAKE), PLANAR_FIELDS, 1),
        # empty syringe floating at the surface, pump still expelling
        (VehicleState(fill=0.0), ActuatorCommand(0.3, -0.7, EXPEL),
         HEAVE_FIELDS, 0),
        # full syringe resting on the bottom, pump still taking in water
        (VehicleState(z=TANK, fill=25.0),
         ActuatorCommand(0.3, -0.7, INTAKE), HEAVE_FIELDS, 0),
        # a -0.0 sway at rest: its own probe sees it become +0.0
        (VehicleState(x=1.5, v=-0.0), ActuatorCommand(pump=INTAKE), PLANAR_FIELDS, 1),
    ])
    def test_channel_at_rest(self, start, cmd, resting, first_rest_row):
        out = assert_n_steps_equal_n_calls(start, cmd, 600, VehicleParams())
        # the case holds what it says: the resting channel's columns never
        # move from its first row at rest, and the other channel moves
        still = set()
        for name in FIELDS:
            col = column(out, name)[first_rest_row:].view(np.int64)
            if (col == col[0]).all():
                still.add(name)
        assert still >= set(resting)
        assert still != set(FIELDS) or len(resting) == len(FIELDS)

    def test_motor_lag_alone_is_not_at_rest(self):
        # thrust below the resolution of u: the first step moves only the
        # motor lag states, and u follows steps later
        out = assert_n_steps_equal_n_calls(
            VehicleState(x=1.5), ActuatorCommand(1e-320, 1e-320), 600, VehicleParams())
        u = column(out, "u")
        assert u[1] == 0.0 and u[-1] > 0.0

    @pytest.mark.parametrize("n", [PLANAR_BLOCK, 2 * PLANAR_BLOCK + 7])
    def test_straddles_block_edges(self, n):
        # the heading and position passes end and start again at each block
        # edge, carrying the pose across it
        out = assert_n_steps_equal_n_calls(VehicleState(x=1.5, y=2.0, psi=0.4, v=0.05),
                                           ActuatorCommand(0.3, -0.7), n, VehicleParams())
        assert len(set(column(out, "psi").tolist())) == n

    @pytest.mark.parametrize("start, cmd", [
        (VehicleState(x=1.5, psi=3.0), ActuatorCommand(-1.0, 1.0)),
        (VehicleState(x=1.5, psi=-3.0, r=-2.0), ActuatorCommand(1.0, -1.0)),
    ], ids=["left", "right"])
    def test_heading_past_pi(self, start, cmd):
        # a fast spin: psi is unwrapped, and math.cos and math.sin take it
        # past +-pi, 3 pi and on
        p = VehicleParams(drag_yaw=0.001)
        out = assert_n_steps_equal_n_calls(start, cmd, 1500, p)
        turns = np.floor((column(out, "psi") + math.pi) / (2 * math.pi))
        assert np.count_nonzero(np.diff(turns)) >= 4

    @pytest.mark.parametrize("start, cmd, zeros", [
        # -0.0 is 0.0 after one step of a moving call
        (VehicleState(x=1.5, v=-0.0), ActuatorCommand(0.3, -0.7), ("v",)),
        # equal thrusts: r turns 0.0 and the heading stays put
        (VehicleState(x=1.5, r=-0.0), ActuatorCommand(0.5, 0.5), ("r",)),
        (VehicleState(x=1.5, v=-0.0, r=-0.0), ActuatorCommand(0.5, 0.5), ("v", "r")),
        # a sway that decays, stepped on its own
        (VehicleState(x=1.5, v=0.2), ActuatorCommand(0.3, -0.7), ()),
    ], ids=["v", "r", "v_r", "v_moving"])
    def test_signed_zero_velocities(self, start, cmd, zeros):
        out = assert_n_steps_equal_n_calls(start, cmd, 600, VehicleParams())
        for name in zeros:
            assert np.signbit(column(out, name)[:2]).tolist() == [True, False]

    def test_comes_to_rest_mid_call(self):
        # an empty syringe rises onto the surface and floats there: the heave
        # channel comes to rest after the call's first step, so it is computed
        # to the call's end
        start = VehicleState(z=0.02, w=-0.1, fill=0.0)
        cmd = ActuatorCommand(0.3, -0.7, EXPEL)
        out = assert_n_steps_equal_n_calls(start, cmd, 2 * 512 + 7, VehicleParams())
        z = column(out, "z")
        assert z[0] > 0.0 and z[-1] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5000])
    @pytest.mark.parametrize("start, cmd", [
        # planar at a fixed point, heave sinking
        (VehicleState(x=1.5, y=2.0, psi=0.4, z=0.3, fill=20.0), ActuatorCommand()),
        # heave at a fixed point on the surface, planar driven
        (VehicleState(x=1.5, y=2.0, psi=0.4), ActuatorCommand(0.3, -0.7)),
        (VehicleState(x=1.5, y=2.0, psi=0.4, z=0.7), ActuatorCommand()),
        # a -0.0 is not at a fixed point until step 2
        (VehicleState(x=1.5, u=-0.0), ActuatorCommand(pump=INTAKE)),
        (VehicleState(z=0.7, w=-0.0), ActuatorCommand(0.3, -0.7)),
        # comes to rest on the surface during the call
        (VehicleState(z=0.02, w=-0.1, fill=0.0),
         ActuatorCommand(0.3, -0.7, EXPEL)),
    ], ids=["planar", "heave", "both", "planar_-0", "heave_-0", "rest_mid_call"])
    def test_fixed_point_block(self, start, cmd, n):
        # the state broadcast at a fixed point fills only out's slice of the
        # table, with the bytes of n single calls
        table = np.full((n + 2, len(TRUTH_DTYPE)), np.nan)
        end = step(start, cmd, DT, n=n, out=table[1:-1])
        calls = [start]
        for _ in range(n):
            calls.append(step(calls[-1], cmd, DT))
        assert bits(astuple(end)) == bits(astuple(calls[-1]))
        assert untouched(table)
        assert table[1:-1, 1:].tobytes() == state_rows(calls[:-1])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(z=near(0.0, -0.0, TANK), w=st.sampled_from([0.0, -0.0]) | st.floats(-0.3, 0.3),
           fill=near(0.0, -0.0, VehicleParams().neutral_fill, VehicleParams().syringe_capacity),
           pump=st.sampled_from([OFF, INTAKE, EXPEL]),
           n=st.integers(1, 2000))
    def test_heave_matches_scalar_oracle(self, z, w, fill, pump, n):
        # the fill and buoyancy columns and the probe against a loop that
        # steps every quantity of every step in plain floats
        table = np.full((n + 2, len(TRUTH_DTYPE)), np.nan)
        start = VehicleState(z=z, w=w, fill=fill)
        end = step(start, ActuatorCommand(pump=pump), DT, n=n, out=table[1:-1])
        want_rows, want_end = bf.bf_heave_steps((z, w, fill), pump, DT, VehicleParams(), n)
        assert untouched(table)
        assert table[1:-1, HEAVE_COLUMNS].tobytes() == bits(want_rows)
        assert bits([end.z, end.w, end.fill]) == bits(want_end)

    def test_zero_steps(self):
        # the pump running: the state comes back as it was, and no row is written
        start = VehicleState(x=1.0, z=0.3, w=0.01, u=0.2, fill=10.0, motor_thrust_left=0.1)
        table = np.full((3, len(TRUTH_DTYPE)), np.nan)
        end = step(start, ActuatorCommand(0.5, 0.2, INTAKE), DT, n=0, out=table[1:1])
        assert end == start
        assert np.isnan(table).all()

    def test_rows_optional(self):
        cmd = ActuatorCommand(0.5, 0.2, INTAKE)
        assert step(VehicleState(), cmd, DT, n=50) == run_steps(VehicleState(), cmd, 50)

    def test_errors_leave_rows_unchanged(self):
        out = np.arange(5.0 * len(TRUTH_DTYPE)).reshape(5, -1)
        before = out.tobytes()
        with pytest.raises(VehicleError, match="dt must be in"):
            step(VehicleState(), ActuatorCommand(), 0.1, n=5, out=out)
        with pytest.raises(VehicleError):
            step(VehicleState(), ActuatorCommand(pump=3), DT, n=5, out=out)
        assert out.tobytes() == before

class TestIr:
    """The sensor functions take a column, one row per tick, and return one."""

    def test_nine_channels_clamped(self):
        r = ir_response([12.5, 0.0, 25.0], 0.0)
        assert r.shape == (3, 9)
        assert ((0.0 <= r) & (r <= 1.0)).all()
        assert ir_response([], 0.05).shape == (0, 9)

    def test_peak_tracks_plunger(self):
        fills = np.array([0.0, 6.25, 12.5, 18.75, 25.0])
        peaks = np.argmax(ir_response(fills, 0.0), axis=1)
        assert peaks.tolist() == [round(8 * f / 25.0) for f in fills]

    def test_round_trip_accuracy(self):
        # interior fills recover within 0.5 mL through the full chain
        fills = np.arange(2.0, 24.0)
        est = estimate_plunger(ir_response(fills, 0.05))
        assert est == pytest.approx(fills, abs=0.5)

    def test_centroid_oracle(self):
        # independent centroid computation
        r = ir_response([9.0], 0.05)[0]
        w = r - r.min()
        oracle = 25.0 * np.dot(np.arange(9) / 8.0, w) / np.sum(w)
        assert estimate_plunger(ir_response([9.0], 0.05))[0] == pytest.approx(oracle, abs=1e-12)

    def test_bits_match_scalar_formulas(self, rng):
        # per element, the response of the scalar model (math.exp of a
        # Python float, a clamp) and its channel-order centroid, bit for bit
        fills = np.concatenate([rng.uniform(0.0, 25.0, 20000), [0.0, 12.5, 25.0]])
        got = ir_response(fills, 0.05)
        want = [[min(1.0, max(0.0, math.exp(-((k / 8.0 - f / 25.0) ** 2) / (2.0 * 0.07**2))
                              + 0.05)) for k in range(9)] for f in fills.tolist()]
        assert got.tobytes() == np.array(want).tobytes()
        centroids = []
        for reading in want:
            floor, num, den = min(reading), 0.0, 0.0
            for k, c in enumerate(reading):
                num += (k / 8.0) * (c - floor)
                den += c - floor
            centroids.append(25.0 * num / den)
        assert bits(estimate_plunger(got)) == bits(centroids)

    def test_flat_reading_no_signal(self):
        readings = np.vstack([ir_response([9.0], 0.05), np.full((1, 9), 0.5)])
        with pytest.raises(VehicleError, match="IR channels within"):
            estimate_plunger(readings)
        assert estimate_plunger(np.empty((0, 9))).shape == (0,)

    def test_high_ambient_degrades(self):
        # strong surface light: the estimate must degrade or report no signal
        for ambient in (0.9, 0.95):
            assert signal_quality(ir_response([12.5], ambient))[0] in ("degraded", "none")

    def test_quality_ok_at_low_ambient(self):
        assert signal_quality(ir_response([12.5], 0.05)).tolist() == ["ok"]

    def test_quality_none_when_flat(self):
        assert signal_quality(np.full((1, 9), 0.7)).tolist() == ["none"]

    def test_quality_per_row(self):
        readings = np.vstack([ir_response([12.5], 0.05), np.full((1, 9), 0.7),
                              ir_response([12.5], 0.6)])
        assert signal_quality(readings).tolist() == ["ok", "none", "degraded"]

    def test_quality_matches_saturation_rule_on_grid(self):
        # the oracle keeps the rule "3 or more channels at 0.999 or above";
        # over the response's rows it decides nothing the floor test leaves
        fills = np.linspace(-1.0, 26.0, 1001)
        for ambient in np.linspace(-0.1, 1.1, 60).tolist():
            readings = ir_response(fills, ambient)
            want = [bf.bf_signal_quality(row) for row in readings.tolist()]
            assert signal_quality(readings).tolist() == want
            if ambient <= 0.5:
                assert np.count_nonzero(readings >= 0.999, axis=1).max() <= 2

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(fill=st.floats(-5.0, 30.0), ambient=st.floats(-0.1, 1.1),
           capacity=st.floats(5.0, 50.0))
    def test_quality_matches_saturation_rule(self, fill, ambient, capacity):
        readings = ir_response([fill], ambient, VehicleParams(syringe_capacity=capacity))
        assert signal_quality(readings).tolist() == [bf.bf_signal_quality(readings[0].tolist())]


class TestDepthReading:
    def test_noiseless_quantized(self):
        assert depth_reading([0.51234, 0.0015, -0.0004], 0.0).tolist() == [0.512, 0.002, 0.0]

    def test_noise_requires_rng(self):
        with pytest.raises(VehicleError):
            depth_reading([0.5], 0.002)

    def test_noise_statistics(self, rng):
        vals = depth_reading(np.full(2000, 0.5), 0.002, rng)
        assert np.mean(vals) == pytest.approx(0.5, abs=0.001)
        assert np.std(vals) == pytest.approx(0.002, abs=0.0005)

    def test_one_draw_is_n_scalar_draws(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        z = np.linspace(0.0, 1.3, 50)
        got = depth_reading(z, 0.002, a)
        want = [np.rint((v + b.normal(0.0, 0.002)) * 1000.0) / 1000.0 for v in z.tolist()]
        assert bits(got) == bits(want)
        assert a.bit_generator.state == b.bit_generator.state
        # the uplink's loss draws: one random(n) is n scalar random() draws
        assert bits(a.random(50)) == bits([b.random() for _ in range(50)])
        assert a.bit_generator.state == b.bit_generator.state


def reorders(node):
    """``np.exp``, ``np.power``, ``np.cos`` or ``np.sin``, called or passed
    on, or a call of ``np.sum`` or a ``.sum()`` method."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "sum"
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy") and node.attr in ("exp", "power", "cos", "sin"))


def test_no_reordering_numpy_calls():
    # np.exp, np.power, np.cos and np.sin round some arguments differently
    # from math.exp, a Python float power, math.cos and math.sin, and np.sum
    # adds in another order than the scalar model's channel loop: the sensor
    # columns and the planar heading and position keep their bits only
    # without them
    tree = ast.parse(Path(vehicle.__file__).read_text())
    assert [ast.unparse(node) for node in ast.walk(tree) if reorders(node)] == []
