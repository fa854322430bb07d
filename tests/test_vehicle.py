import math

import numpy as np
import pytest

from tanklab.vehicle import (
    GRAVITY,
    PUMP_EXPEL,
    PUMP_INTAKE,
    PUMP_OFF,
    WATER_DENSITY,
    ActuatorCommand,
    InvalidDt,
    IrReading,
    NoSignal,
    VehicleError,
    VehicleParams,
    VehicleState,
    depth_reading,
    estimate_plunger,
    ir_response,
    pump_step,
    signal_quality,
    step,
)

DT = 1.0 / 240.0


def run_steps(state, cmd, n, dt=DT, params=None):
    for _ in range(n):
        state = step(state, cmd, dt, params)
    return state


class TestParams:
    def test_defaults_valid(self):
        VehicleParams().validate()

    def test_negative_mass(self):
        p = VehicleParams(mass=-1.0)
        with pytest.raises(VehicleError):
            p.validate()


class TestPump:
    def test_rate(self):
        # 100 mL/min -> exactly 1/6 mL per 0.1 s
        fill = pump_step(12.5, PUMP_INTAKE, 0.1, VehicleParams())
        assert fill == pytest.approx(12.5 + 100.0 / 600.0, abs=1e-12)

    def test_full_stroke_duration(self):
        # 0 -> 25 mL at 100 mL/min takes exactly 15 s
        p = VehicleParams()
        fill, t = 0.0, 0.0
        while fill < p.syringe_capacity:
            fill = pump_step(fill, PUMP_INTAKE, DT, p)
            t += DT
        assert t == pytest.approx(15.0, abs=2 * DT)

    def test_saturation(self):
        p = VehicleParams()
        assert pump_step(24.999, PUMP_INTAKE, 1.0, p) == 25.0
        assert pump_step(0.001, PUMP_EXPEL, 1.0, p) == 0.0

    def test_off_is_identity(self):
        assert pump_step(7.0, PUMP_OFF, 1.0, VehicleParams()) == 7.0

    def test_unknown_command(self):
        with pytest.raises(VehicleError):
            pump_step(7.0, "purge", DT, VehicleParams())


class TestStep:
    def test_rest_stays_at_rest(self):
        s = run_steps(VehicleState(), ActuatorCommand(), 100)
        assert s.u == 0.0 and s.v == 0.0 and s.w == 0.0 and s.r == 0.0
        assert s.x == 0.0 and s.y == 0.0 and s.z == 0.0

    def test_invalid_dt(self):
        with pytest.raises(InvalidDt):
            step(VehicleState(), ActuatorCommand(), 0.0)
        with pytest.raises(InvalidDt):
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
        s0 = VehicleState(syringe_fill=25.0)
        s = run_steps(s0, ActuatorCommand(), 240 * 2)
        assert s.z > 0.01 and s.w > 0.0

    def test_empty_syringe_rises(self):
        s0 = VehicleState(z=1.0, syringe_fill=0.0)
        s = run_steps(s0, ActuatorCommand(), 240 * 2)
        assert s.z < 1.0 and s.w < 0.0

    def test_heave_force_magnitude(self):
        # 12.5 mL of excess water: F = g * rho * 12.5e-6 ~ 0.1226 N
        f = GRAVITY * WATER_DENSITY * 12.5e-6
        assert f == pytest.approx(0.12258, abs=1e-4)
        s = step(VehicleState(syringe_fill=25.0), ActuatorCommand(), DT)
        assert s.w == pytest.approx(DT * f / VehicleParams().mass, rel=1e-9)

    def test_surface_clamp(self):
        s0 = VehicleState(z=0.001, w=-0.5, syringe_fill=0.0)
        s = step(s0, ActuatorCommand(), DT)
        assert s.z == 0.0 and s.w == 0.0

    def test_bottom_clamp(self):
        p = VehicleParams()
        s0 = VehicleState(z=p.tank_depth - 0.001, w=0.5, syringe_fill=25.0)
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


class TestIr:
    def test_nine_channels_clamped(self):
        r = ir_response(12.5, 0.0)
        assert len(r.channels) == 9
        assert all(0.0 <= c <= 1.0 for c in r.channels)

    def test_peak_tracks_plunger(self):
        for fill in (0.0, 6.25, 12.5, 18.75, 25.0):
            r = ir_response(fill, 0.0)
            peak = int(np.argmax(r.channels))
            assert peak == round(8 * fill / 25.0)

    def test_round_trip_accuracy(self):
        # interior fills recover within 0.5 mL through the full chain
        for fill in range(2, 24):
            est = estimate_plunger(ir_response(float(fill), 0.05))
            assert est == pytest.approx(fill, abs=0.5)

    def test_centroid_oracle(self):
        # independent centroid computation
        r = ir_response(9.0, 0.05)
        floor = min(r.channels)
        w = np.array(r.channels) - floor
        oracle = 25.0 * np.dot(np.arange(9) / 8.0, w) / np.sum(w)
        assert estimate_plunger(r) == pytest.approx(oracle, abs=1e-12)

    def test_flat_reading_no_signal(self):
        with pytest.raises(NoSignal):
            estimate_plunger(IrReading((0.5,) * 9))

    def test_high_ambient_degrades(self):
        # strong surface light: the estimate must degrade or report no signal
        r = ir_response(12.5, 0.95)
        assert signal_quality(r) in ("degraded", "none")
        r = ir_response(12.5, 0.9)
        assert signal_quality(r) in ("degraded", "none")

    def test_quality_ok_at_low_ambient(self):
        assert signal_quality(ir_response(12.5, 0.05)) == "ok"

    def test_quality_none_when_flat(self):
        assert signal_quality(IrReading((0.7,) * 9)) == "none"


class TestDepthReading:
    def test_noiseless_quantized(self):
        assert depth_reading(VehicleState(z=0.51234), 0.0) == 0.512

    def test_noise_requires_rng(self):
        with pytest.raises(VehicleError):
            depth_reading(VehicleState(z=0.5), 0.002)

    def test_noise_statistics(self, rng):
        vals = [depth_reading(VehicleState(z=0.5), 0.002, rng) for _ in range(2000)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.001)
        assert np.std(vals) == pytest.approx(0.002, abs=0.0005)
