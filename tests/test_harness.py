import csv
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import brute_force as bf
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOOLS

from tanklab import cli
from tanklab.frames import rot_x, rot_z
from tanklab.link import (FLAG_FILL_VALID, FLAG_IR_DEGRADED, PUMP_MODE_EXPEL, PUMP_MODE_INTAKE,
                          Channel, Pump, SetMotors, StartSequence, Telemetry, decode, encode)
from tanklab.metrics import (
    MetricsError,
    NoOverlap,
    circle_fit,
    count_reversals,
    count_sign_changes,
    path_length,
    residuals,
)
from tanklab.runner import (ALIGNMENT_HEADER, TELEMETRY_HEADER, recompute_metrics, run_scenario,
                            score_run, telemetry_table, telemetry_ticks)
from tanklab.scenarios import (
    BUILTIN_SCENARIOS,
    MAX_STEPS,
    ConfigError,
    Scenario,
    apply_setting,
    get_scenario,
    parse_command,
)
from tanklab.tracking import STATE_DTYPE, read_states_csv, read_table, series
from tanklab.vehicle import (GRAVITY, TRUTH_DTYPE, WATER_DENSITY, ActuatorCommand, VehicleState,
                             step)


class TestCircleFit:
    def test_exact_circle(self):
        theta = np.linspace(0, 2 * math.pi, 50, endpoint=False)
        pts = np.column_stack([1.5 + 2.0 * np.cos(theta), -0.5 + 2.0 * np.sin(theta)])
        (cx, cy), r = circle_fit(pts)
        assert (cx, cy) == pytest.approx((1.5, -0.5), abs=1e-12)
        assert r == pytest.approx(2.0, abs=1e-12)

    def test_partial_arc(self):
        theta = np.linspace(0.2, 1.4, 30)
        pts = np.column_stack([3.0 * np.cos(theta), 3.0 * np.sin(theta)])
        (cx, cy), r = circle_fit(pts)
        assert (cx, cy) == pytest.approx((0.0, 0.0), abs=1e-9)
        assert r == pytest.approx(3.0, abs=1e-9)

    def test_noisy_circle(self, rng):
        theta = rng.uniform(0, 2 * math.pi, 500)
        radius = 1.83 + rng.normal(0, 0.01, 500)
        pts = np.column_stack([radius * np.cos(theta), 2 + radius * np.sin(theta)])
        (cx, cy), r = circle_fit(pts)
        assert (cx, cy) == pytest.approx((0.0, 2.0), abs=0.005)
        assert r == pytest.approx(1.83, abs=0.005)

    def test_collinear(self):
        pts = [[float(i), 2.0 * i] for i in range(10)]
        with pytest.raises(MetricsError, match="collinear"):
            circle_fit(pts)

    def test_too_few(self):
        with pytest.raises(MetricsError):
            circle_fit([[0, 0], [1, 1]])


def flat_truth(duration=10.0, rate=240.0, **channels):
    t = np.arange(int(duration * rate) + 1) / rate
    def get(name, default=0.0):
        val = channels.get(name, default)
        return val if isinstance(val, np.ndarray) else np.full_like(t, val)
    return series(np.column_stack([
        t, get("x"), get("y"), get("z"), get("psi"),
        get("u"), get("v"), get("w"), get("r"), get("fill", 12.5)]), TRUTH_DTYPE)


class TestAlignment:
    """``residuals`` maps truth through a segment's rotation and origin."""

    @staticmethod
    def truth_in_frame(truth, times, rotation, origin):
        """Truth at ``times`` as ``residuals`` sees it: the negated residuals
        of zero states.  A window of 1 drops one state at each edge, so the
        states are padded by one, and lags velocity truth by 0 s."""
        times = np.concatenate(([times[0] - 1.0], times, [times[-1] + 1.0]))
        res = residuals(truth, constant_states(times), rotation, origin, 1, 30.0)
        np.testing.assert_array_equal(res["t"], times[1:-1])
        return {key: -val for key, val in res.items() if key != "t"}

    def test_identity_alignment_passthrough(self):
        truth = flat_truth(u=0.4, v=0.1, r=0.2)
        out = self.truth_in_frame(truth, [1.0, 2.0], np.eye(3), np.zeros(3))
        np.testing.assert_allclose(out["u"], 0.4)
        np.testing.assert_allclose(out["v"], 0.1)
        np.testing.assert_allclose(out["r"], 0.2)

    def test_reflection_flips_v_and_r(self):
        # the recovered basis for a level overhead camera swaps x/y: a
        # planar reflection, so sway and yaw rate change sign
        rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        truth = flat_truth(u=0.4, v=0.1, r=0.2)
        out = self.truth_in_frame(truth, [1.0], rot, np.zeros(3))
        assert out["u"][0] == 0.4
        assert out["v"][0] == -0.1
        assert out["r"][0] == -0.2

    def test_rotation_preserves_v_and_r(self):
        truth = flat_truth(u=0.4, v=0.1, r=0.2)
        out = self.truth_in_frame(truth, [1.0], rot_z(0.6), np.zeros(3))
        assert out["v"][0] == 0.1
        assert out["r"][0] == 0.2

    def test_position_mapping(self):
        truth = flat_truth(x=2.0, y=1.0)
        out = self.truth_in_frame(truth, [0.0], rot_z(math.pi / 2), np.array([1.0, 1.0, 0.0]))
        # (2,1) - (1,1) = (1,0); rotated by +90 deg -> (0,1)
        assert out["x"][0] == pytest.approx(0.0, abs=1e-12)
        assert out["y"][0] == pytest.approx(1.0, abs=1e-12)


def constant_states(times, **channels):
    """A state series on ``times``; each channel a constant or an array."""
    return series(np.column_stack([times, *(np.broadcast_to(channels.get(name, 0.0), times.shape)
                                            for name in ("x", "y", "psi", "u", "v", "r"))]),
                  STATE_DTYPE)


def random_rotation(gen, reflect):
    """A random orthonormal basis; ``reflect`` flips its planar handedness,
    which the small tilts leave in place."""
    rot = rot_z(gen.uniform(-math.pi, math.pi)) @ rot_x(gen.normal(0, 0.2))
    return np.diag([1.0, -1.0, 1.0]) @ rot if reflect else rot


def random_truth(gen, duration=10.0, rate=240.0):
    """Truth whose channels all move: random walks, and a yaw that winds
    through several turns so that heading residuals wrap."""
    n = int(duration * rate) + 1

    def walk(scale):
        return np.cumsum(gen.normal(0, scale, n))

    return flat_truth(duration, rate, x=walk(0.01), y=walk(0.01), z=walk(0.001),
                      psi=walk(0.05), u=walk(0.01), v=walk(0.01), r=walk(0.02))


def random_states(gen, t0, n, rate=30.0):
    times = t0 + np.arange(n) / rate
    return series(np.column_stack([times, *(gen.normal(0, scale, n)
                                            for scale in (1, 1, 4, 0.3, 0.3, 1))]), STATE_DTYPE)


class TestResidualsOracle:
    """``residuals`` against ``bf_residuals``: every returned array bit for
    bit, and ``NoOverlap`` exactly where the oracle finds no overlap."""

    @staticmethod
    def assert_matches(truth, states, rotation, origin, window, rate=30.0):
        want = bf.bf_residuals(truth, states, rotation, origin, window, rate)
        if want is None:
            with pytest.raises(NoOverlap):
                residuals(truth, states, rotation, origin, window, rate)
            return None
        got = residuals(truth, states, rotation, origin, window, rate)
        assert list(got) == list(want)
        for key, val in want.items():
            assert got[key].dtype == val.dtype and got[key].shape == val.shape, key
            assert got[key].tobytes() == val.tobytes(), key
        return got

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_segments(self, name):
        art = run_scenario(get_scenario(name))
        window, rate = art.scenario.pipeline.smoothing_window, art.scenario.pipeline.output_rate
        ends = np.searchsorted(art.estimates.timestamp, art.alignments[:, 2], side="right")
        scored = 0
        for a, b, row in zip([0, *ends], ends, art.alignments):
            got = self.assert_matches(art.truth, art.estimates[a:b], row[6:15].reshape(3, 3),
                                      row[3:6], window, rate)
            scored += got is not None
        assert scored > 0

    @pytest.mark.parametrize("window", [1, 12])
    def test_random_rotations_and_origins(self, window):
        gen = np.random.default_rng(31 + window)
        signs = set()
        for i in range(60):
            truth = random_truth(gen)
            rot = random_rotation(gen, reflect=i % 2 == 1)
            m = rot[:2, :2]
            signs.add(np.sign(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
            # segments inside truth, and hanging over either end of it
            states = random_states(gen, gen.uniform(-1.0, 8.0), int(gen.integers(60, 150)))
            got = self.assert_matches(truth, states, rot, gen.normal(0, 2, 3), window)
            assert got is not None and np.any(np.abs(got["psi"]) > 2.5)
        assert signs == {-1.0, 1.0}
        # a camera looking along the surface: a singular planar block counts
        # as right-handed
        edge_on = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        truth = flat_truth(u=0.4, v=0.1, r=0.2)
        states = random_states(gen, 1.0, 60)
        got = self.assert_matches(truth, states, edge_on, np.zeros(3), window)
        np.testing.assert_array_equal(got["v"], states.v[window:-window] - 0.1)

    @pytest.mark.parametrize("window", [1, 12])
    def test_no_overlap(self, window):
        gen = np.random.default_rng(7)
        truth = random_truth(gen)
        rot, origin = random_rotation(gen, reflect=True), gen.normal(0, 2, 3)
        for states in (random_states(gen, 1.0, 2 * window),      # nothing past the edges
                       random_states(gen, 1.0, window),
                       random_states(gen, 1.0, 0),
                       random_states(gen, -20.0, 3 * window),    # all before truth
                       random_states(gen, 10.5, 3 * window)):    # all after truth
            assert self.assert_matches(truth, states, rot, origin, window) is None
        # compared samples that only touch truth's first or last time overlap it
        n = 3 * window
        for touch, k in ((0.0, n - window - 1), (10.0, window)):
            states = random_states(gen, 0.0, n)
            states.timestamp = touch + (np.arange(n) - k) / 30.0
            got = self.assert_matches(truth, states, rot, origin, window)
            assert got is not None and got["t"].size == window and touch in got["t"]


def score_one(truth, states, window=12, rate=30.0):
    """Score one segment seen in the truth frame: one identity alignment row."""
    t = states.timestamp
    alignment = [[0, t[0], t[-1], 0.0, 0.0, 0.0, *np.eye(3).flat]]
    return score_run(truth, states, np.array(alignment), window, rate,
                     n_detections=0, n_frames=0)


class TestComputeMetrics:
    def test_perfect_estimates_zero_rmse(self):
        truth = flat_truth(u=0.4, x=np.arange(2401) / 240 * 0.4)
        times = np.arange(0, 8, 1 / 30)
        m = score_one(truth, constant_states(times, x=0.4 * times, u=0.4))
        assert m["rmse_xy"] == pytest.approx(0.0, abs=1e-12)
        assert m["rmse_u"] == pytest.approx(0.0, abs=1e-12)
        assert m["mean_v"] == 0.0

    def test_velocity_lag_compensation(self):
        # truth u ramps linearly; an estimator lagging by (w-1)/2 samples
        # must still score ~zero after compensation
        rate, window = 30.0, 12
        t240 = np.arange(2401) / 240
        truth = flat_truth(u=0.1 * t240)
        lag = (window - 1) / 2.0 / rate
        times = np.arange(1, 7, 1 / 30)
        m = score_one(truth, constant_states(times, u=0.1 * (times - lag)), window, rate)
        assert m["rmse_u"] == pytest.approx(0.0, abs=1e-12)

    def test_known_bias(self):
        truth = flat_truth(u=0.4)
        times = np.arange(0, 8, 1 / 30)
        m = score_one(truth, constant_states(times, u=0.45, v=0.02))
        assert m["rmse_u"] == pytest.approx(0.05, abs=1e-12)
        assert m["mean_v"] == pytest.approx(0.02, abs=1e-12)

    def test_edge_samples_excluded(self):
        truth = flat_truth(u=0.4)
        times = np.arange(0, 8, 1 / 30)
        u = np.full(times.shape, 0.4)
        u[:12] = u[-12:] = 99.0
        m = score_one(truth, constant_states(times, u=u))
        assert m["rmse_u"] == pytest.approx(0.0, abs=1e-12)
        assert m["n_compared"] == len(times) - 24


class TestCounters:
    def test_path_length_straight(self):
        t = np.linspace(0, 1, 100)
        assert path_length(3 * t, 4 * t) == pytest.approx(5.0, abs=1e-12)

    def test_sign_changes_basic(self):
        r = [0.2, 0.2, -0.2, 0.2, -0.2]
        assert count_sign_changes(r, 0.05) == 3

    def test_sign_changes_ignores_wiggle(self):
        r = [0.2, 0.01, -0.01, 0.03, 0.2, -0.2]
        assert count_sign_changes(r, 0.05) == 1

    def test_sign_changes_never_crossing(self):
        assert count_sign_changes([0.2, 0.3, 0.1], 0.05) == 0

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([0.0, 0.05, 0.2]).flatmap(lambda h: st.tuples(
        st.lists(st.one_of(
            st.floats(-0.3, 0.3),
            st.sampled_from([h, -h, 0.0, -0.0, math.nan, math.inf, -math.inf])),
            max_size=60),
        st.just(h))))
    def test_sign_changes_match_every_sample_loop(self, case):
        # values exactly at +/-h, NaN, +/-inf, empty lists and h = 0
        values, h = case
        want = bf.bf_count_sign_changes(values, h)
        assert count_sign_changes(values, h) == want
        assert count_sign_changes(np.array(values, dtype=float), h) == want

    @pytest.mark.parametrize("hysteresis", [-1.0, math.nan])
    def test_sign_changes_need_nonnegative_hysteresis(self, hysteresis):
        with pytest.raises(MetricsError, match="hysteresis"):
            count_sign_changes([0.2, -0.2], hysteresis)

    def test_reversals_triangle(self):
        depth = np.concatenate([np.linspace(0, 1, 50), np.linspace(1, 0, 50),
                                np.linspace(0, 1, 50)])
        assert count_reversals(depth) == 2

    def test_reversals_ignores_noise(self):
        t = np.linspace(0, 1, 200)
        depth = t + 0.01 * np.sin(40 * t)
        assert count_reversals(depth) == 0

    def test_reversals_short_input(self):
        assert count_reversals([0.0, 1.0]) == 0

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.floats(-0.3, 0.3),
                              st.sampled_from([0.0, -0.0, 0.01, -0.01, 0.05, -0.05, 0.2, -0.2])),
                    max_size=80),
           st.booleans(), st.sampled_from([0.01, 0.05, 0.2]))
    def test_reversals_match_every_sample_loop(self, steps, rounded, min_excursion):
        # random walks; rounded, they hold plateaus and repeated values
        depth = np.cumsum(steps)
        if rounded:
            depth = np.round(depth, 2)
        assert count_reversals(depth, min_excursion) == bf.bf_count_reversals(depth, min_excursion)

    @pytest.mark.parametrize("min_excursion", [0.0, -1.0, math.nan])
    def test_reversals_need_positive_excursion(self, min_excursion):
        # at 0, the flat first step of a monotone profile would set a direction
        with pytest.raises(MetricsError):
            count_reversals([0.0, 0.0, 1.0], min_excursion)


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins_validate(self, name):
        s = get_scenario(name)
        assert s.name == name
        s.validate()

    def test_file_scenarios_validate(self, tmp_path):
        # a file without a name line, and the tree's committed scenario file
        path = tmp_path / "unnamed.scenario"
        path.write_text("command = 0.2 start\n")
        s = get_scenario(str(path))
        assert s.name == "custom"
        s.validate()
        get_scenario(str(TOOLS / "pump_test_pulses.scenario")).validate()

    def test_parse_command(self):
        t, msg = parse_command("0.3 set_motors 50 -20")
        assert t == 0.3 and msg == SetMotors(50, -20)
        t, msg = parse_command("1.0 pump intake 8000")
        assert msg == Pump(PUMP_MODE_INTAKE, 8000)
        t, msg = parse_command("0.2 start")
        assert msg == StartSequence(1)

    def test_parse_command_errors(self):
        with pytest.raises(ConfigError):
            parse_command("nope")
        with pytest.raises(ConfigError):
            parse_command("1.0 warp 9")
        with pytest.raises(ConfigError):
            parse_command("1.0 pump sideways 100")

    def test_apply_setting_top_level(self):
        s = Scenario(name="t", duration=5.0)
        apply_setting(s, "duration", "12.5")
        assert s.duration == 12.5

    def test_apply_setting_dotted(self):
        s = Scenario(name="t", duration=5.0)
        apply_setting(s, "vehicle.mass", "3.1")
        assert s.vehicle.mass == 3.1
        apply_setting(s, "camera.dropout_prob", "0.1")
        assert s.camera.dropout_prob == 0.1
        apply_setting(s, "channel.base_loss", "0.0")
        assert s.channel.base_loss == 0.0
        apply_setting(s, "pipeline.smoothing_window", "6")
        assert s.pipeline.smoothing_window == 6

    def test_apply_setting_unit_suffix(self):
        s = Scenario(name="t", duration=5.0)
        apply_setting(s, "tank_side_ft", "13.5")
        assert s.tank_side == pytest.approx(13.5 * 0.3048)
        apply_setting(s, "vehicle.propeller_separation_in", "12")
        assert s.vehicle.propeller_separation == pytest.approx(0.3048)

    def test_apply_setting_unknown(self):
        s = Scenario(name="t", duration=5.0)
        with pytest.raises(ConfigError):
            apply_setting(s, "warp_factor", "9")
        with pytest.raises(ConfigError):
            apply_setting(s, "engine.thrust", "1")
        # derived or unread values are not settings
        for key in ("vehicle.neutral_fill", "tag.size"):
            with pytest.raises(ConfigError):
                apply_setting(s, key, "1")

    def test_scenario_file_round_trip(self, tmp_path):
        path = tmp_path / "custom.scenario"
        path.write_text(
            "# custom test scenario\n"
            "name = mini\n"
            "duration = 4.0\n"
            "seed = 5\n"
            "initial_x = 1.0\n"
            "vehicle.mass = 2.9\n"
            "command = 0.2 start\n"
            "command = 0.3 set_motors 60 60\n"
        )
        s = get_scenario(path)
        assert s.name == "mini" and s.duration == 4.0 and s.seed == 5
        assert s.vehicle.mass == 2.9
        assert len(s.command_script) == 2

    def test_scenario_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("duration 4.0\n")
        with pytest.raises(ConfigError):
            get_scenario(path)

    def test_scenario_file_commands_in_time_order(self, tmp_path):
        path = tmp_path / "order.scenario"
        path.write_text("command = 0.5 set_motors 10 10\n"
                        "command = 0.2 start\n"
                        "command = 0.5 set_motors 20 20\n"
                        "command = 0.3 set_motors 30 30\n")
        assert get_scenario(path).command_script == [
            (0.2, StartSequence(1)), (0.3, SetMotors(30, 30)),
            (0.5, SetMotors(10, 10)), (0.5, SetMotors(20, 20))]

    def test_set_command_after_builtin_commands_at_its_time(self):
        s = get_scenario("line", ["command=0.3 set_motors 10 10", "command=0.25 start 2"])
        assert s.command_script == [
            (0.2, StartSequence(1)), (0.25, StartSequence(2)),
            (0.3, SetMotors(50, 50)), (0.3, SetMotors(10, 10))]

    @pytest.mark.parametrize("tau, fits", [(0.0021, True), (0.0020, False)])
    def test_validate_motor_lag_bound(self, tau, fits):
        # the motor lag holds a plant step shorter than 2 * tau: 1/240 s on circle
        s = get_scenario("circle", ["vehicle.motor_time_constant=%r" % tau])
        if fits:
            s.validate()
        else:
            with pytest.raises(ConfigError, match="motor_time_constant") as exc:
                s.validate()
            assert exc.value.field_name == "sim_rate"

    @pytest.mark.parametrize("field, power, at_one, fields", [
        # each channel's load, dt over its longest step, is a power of the
        # field, and at_one(p, dt) is the field's value at a load of 1; the
        # heave channel's force is the buoyancy of a full syringe
        ("motor_time_constant", -1, lambda p, dt: dt / 2, ("motor_time_constant",)),
        ("drag_surge", 0.5, lambda p, dt: (p.mass / dt) ** 2 / (2 * p.max_thrust_per_prop),
         ("drag_surge", "max_thrust_per_prop", "mass")),
        ("drag_yaw", 0.5,
         lambda p, dt: (p.yaw_inertia / dt) ** 2 / (p.max_thrust_per_prop * p.propeller_separation),
         ("drag_yaw", "max_thrust_per_prop", "propeller_separation", "yaw_inertia")),
        ("drag_heave", 0.5,
         lambda p, dt: (p.mass / dt) ** 2
         / (GRAVITY * WATER_DENSITY * (p.syringe_capacity - p.neutral_fill) * 1e-6),
         ("drag_heave", "syringe_capacity", "mass")),
    ], ids=["motor lag", "surge", "yaw", "heave"])
    def test_validate_step_load_boundary(self, field, power, at_one, fields):
        # a load just below 1 passes and one just above is refused, naming the
        # channel's fields: dt sqrt(c F) < M on a drag channel, dt < 2 tau
        s = get_scenario("line")
        value = at_one(s.vehicle, 1.0 / s.sim_rate)
        setattr(s.vehicle, field, value * (1 - 1e-6) ** (1 / power))
        s.validate()
        setattr(s.vehicle, field, value * (1 + 1e-6) ** (1 / power))
        with pytest.raises(ConfigError) as exc:
            s.validate()
        assert exc.value.field_name == "sim_rate"
        assert str(exc.value).endswith(" the longest that vehicle.%s allow"
                                       % ", vehicle.".join(fields))

    @pytest.mark.parametrize("duration, fits", [(0.75, False), (1.0, True)])
    def test_validate_window_bound(self, duration, fits):
        # a whole run at 4 Hz yields floor(4 * duration) + 1 states, and a
        # window of 2 needs 5: one past both smoothing edges
        s = Scenario(name="t", duration=duration)
        s.pipeline.smoothing_window, s.pipeline.output_rate = 2, 4.0
        if fits:
            s.validate()
        else:
            message = ("pipeline.smoothing_window: 2 needs 1 s of uninterrupted detections,"
                       " run is 0.75 s")
            with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
                s.validate()

    @pytest.mark.parametrize("key", ["initial_x", "initial_y"])
    def test_validate_start_inside_the_tank(self, key):
        s = get_scenario("line")
        for value in (0.0, s.tank_side):
            setattr(s, key, value)
            s.validate()
        for value in (-0.01, s.tank_side + 0.01):
            setattr(s, key, value)
            with pytest.raises(ConfigError, match="tank_side") as exc:
                s.validate()
            assert exc.value.field_name == key

    def test_validate_run_size_bound(self):
        # checked through validate only: a run at the bound would take
        # seconds and up to a gigabyte
        s = get_scenario("line", ["sim_rate=250", "duration=%r" % (MAX_STEPS / 250)])
        s.validate()
        s.duration = math.nextafter(s.duration, math.inf)
        with pytest.raises(ConfigError, match="sim_rate") as exc:
            s.validate()
        assert exc.value.field_name == "duration"

    def test_long_run_memory_per_step(self):
        # MAX_STEPS rests on a run's traced peak growing by a fixed amount a
        # step: `line` at 300 s (72,000 steps, no writes) peaks at 187 B a
        # step.  The bound, 195 B, leaves it 4% (8 B); with the planar heading
        # and position computed over a whole call, not in PLANAR_BLOCK blocks,
        # the run peaks at 210 B a step.
        run_scenario(get_scenario("line"))  # warm-up: first-use tables are not the run's
        s = get_scenario("line", ["duration=300"])
        tracemalloc.start()
        try:
            run_scenario(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (s.duration * s.sim_rate) < 195

    def test_tag_id_column_holds_the_largest_id(self, tmp_path):
        s = tiny_line()
        s.tag.tag_id = 10**12 - 1
        run_scenario(s, out_dir=str(tmp_path))
        rows = (tmp_path / "detections.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[1] for row in rows} == {"999999999999"}
        s.tag.tag_id = 10**12
        with pytest.raises(ConfigError, match="tag.tag_id"):
            s.validate()

    @pytest.mark.parametrize("value", ["a#b", "a\nb", "a\rb"])
    def test_apply_setting_refuses_a_line_break_or_comment(self, value):
        # a scenario file would cut the value there
        with pytest.raises(ConfigError, match="^name:"):
            apply_setting(get_scenario("line"), "name", value)

    def test_validate_rejects_bad_script_time(self):
        s = Scenario(name="t", duration=5.0,
                     command_script=[(9.0, StartSequence(1))])
        with pytest.raises(ConfigError):
            s.validate()

    def test_validate_rejects_a_script_out_of_order(self):
        # a script built in Python: files and --set insert commands in order
        s = Scenario(name="t", duration=5.0,
                     command_script=[(0.3, SetMotors(50, 50)), (0.2, StartSequence(1))])
        with pytest.raises(ConfigError, match="non-decreasing") as exc:
            s.validate()
        assert exc.value.field_name == "command_script"

    def test_unencodable_script_command_fails_before_the_run(self):
        # a script built in Python, not parsed from text: a ConfigError up
        # front, not a LinkError from the encoder mid-run
        s = get_scenario("line")
        s.command_script.append((1.0, SetMotors(150, 0)))
        with pytest.raises(ConfigError, match=r"time 1 SetMotors\(left=150, right=0\)") as exc:
            run_scenario(s)
        assert exc.value.field_name == "command_script"


def encode_rows(table):
    """The frame of each row of a ``telemetry_table``, which ``encode``
    range-checks against the protocol."""
    return [encode(Telemetry(row[0], tuple(row[1:10]), row[10], row[11]))
            for row in table.tolist()]


def tiny_line(duration=4.0, seed=3):
    s = get_scenario("line")
    s.duration = duration
    s.seed = seed
    s.command_script = [c for c in s.command_script if c[0] <= duration]
    return s


def per_step_loop(s):
    """The closed loop one plant step at a time, as a reference for the
    runner's event schedule and its post-loop uplink: the truth table, each
    command's ``(t_sent, status, t_applied)`` and the telemetry table."""
    dt = 1.0 / s.sim_rate
    n_steps = int(round(s.duration * s.sim_rate))
    children = np.random.SeedSequence(s.seed).spawn(5)
    rng_vehicle, rng_down, rng_up = (np.random.Generator(np.random.PCG64(children[i]))
                                     for i in (0, 3, 4))
    downlink, uplink = Channel(s.channel, rng_down), Channel(s.channel, rng_up)
    state = VehicleState(x=s.initial_x, y=s.initial_y, psi=s.initial_psi,
                         fill=s.vehicle.neutral_fill)
    script = list(s.command_script)
    started, left, right, pump, pump_until = False, 0.0, 0.0, 0, -1.0  # pump: fill direction
    due = 0.0
    log, rows, telemetry = [], [], []
    for k in range(n_steps + 1):
        t = k * dt
        rows.append((t, state.x, state.y, state.z, state.psi, state.u, state.v,
                     state.w, state.r, state.fill))
        if k == n_steps:
            break
        if t + 1e-12 >= due:  # at most one telemetry tick per step
            frame, = bf.bf_telemetry([state.fill], [state.z], s.ambient_ir,
                                     s.depth_noise_sigma, s.vehicle, rng_vehicle)
            uplink.send(frame, t, state.z)
            due += 1.0 / s.telemetry_rate
        for frame in uplink.poll(t):
            msg = decode(frame)
            telemetry.append((t, msg.depth_mm, *msg.ir, msg.fill_est_tenth_ml, msg.flags))
        while script and script[0][0] <= t:
            log.append([t, "lost", None])
            downlink.send((encode(script.pop(0)[1]), log[-1]), t, state.z)
        for frame, entry in downlink.poll(t):
            msg = decode(frame)
            if not (started or isinstance(msg, StartSequence)):
                entry[1] = "ignored"
                continue
            entry[1:] = "applied", t
            if isinstance(msg, StartSequence):
                started = True
            elif isinstance(msg, SetMotors):
                left, right = msg.left / 100.0, msg.right / 100.0
            elif isinstance(msg, Pump):
                pump = {PUMP_MODE_INTAKE: 1, PUMP_MODE_EXPEL: -1}.get(msg.mode, 0)
                pump_until = t + msg.duration_ms / 1000.0
        if pump and t >= pump_until:
            pump = 0
        state = step(state, ActuatorCommand(left, right, pump), dt, s.vehicle, n=1)
    return (np.array(rows), [tuple(entry) for entry in log],
            np.array(telemetry, dtype=float).reshape(-1, len(TELEMETRY_HEADER)))


def pump_pulses():
    """``pump_test`` with pump runs that end before the syringe saturates, so
    each cut-off shows in the truth table (``pump_test``'s own runs saturate)."""
    s = get_scenario("pump_test")
    s.duration = 12.0
    s.command_script = [(0.2, StartSequence(1)), (0.5, Pump(PUMP_MODE_INTAKE, 3000)),
                        (6.0, Pump(PUMP_MODE_EXPEL, 1234)), (9.0, Pump(PUMP_MODE_INTAKE, 1))]
    return s


class TestRunner:
    @pytest.mark.parametrize("name, override", [
        ("line", None),
        ("pump_test", None),
        ("pump_test", "channel.latency=0"),
        ("pump_test", "channel.latency=0.004166666666666667"),  # one plant step
        ("pump_test", "channel.d1=0.4"),  # commands lost at depth
        ("pump_test", "telemetry_rate=240"),  # a tick at every step
        ("pump_test", "channel.latency=0.5"),  # frames still in flight at the end
        ("line", "channel.base_loss=0.5"),
        ("pump_pulses", None),
        ("pump_pulses", "channel.latency=0"),
    ])
    def test_event_schedule_matches_per_step_loop(self, name, override):
        s = pump_pulses() if name == "pump_pulses" else get_scenario(name)
        if override is not None:
            apply_setting(s, *override.split("="))
        truth, log, telemetry = per_step_loop(s)
        art = run_scenario(s)
        assert np.array_equal(
            np.column_stack([art.truth[c] for c in art.truth.dtype.names]), truth)
        assert [(e.t_sent, e.status, e.t_applied) for e in art.command_log] == log
        assert art.telemetry.shape == telemetry.shape
        assert art.telemetry.tobytes() == telemetry.tobytes()
        assert "applied" in {status for _, status, _ in log}

    def test_event_left_undone_raises(self):
        # A downlink that holds back a command due at this very step would
        # leave the loop stepping zero steps forever (Channel.poll with `<`
        # for `<=` hung `line` at latency 0); the runner raises instead.  The
        # run is a subprocess, so a regression fails on the timeout.
        code = textwrap.dedent("""
            from tanklab import link, runner
            from tanklab.scenarios import get_scenario

            def late_poll(self, t):
                out = []
                while self._queue and self._queue[0][0] < t:
                    out.append(self._queue.popleft()[1])
                return out

            link.Channel.poll = late_poll
            runner.run_scenario(get_scenario("line", ["channel.latency=0"]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(TOOLS.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 1
        assert re.search(r"RuntimeError: step \d+: an event due at \S+ was not taken$",
                         proc.stderr.strip()), proc.stderr

    def test_line_run_basics(self):
        art = run_scenario(tiny_line())
        assert art.truth.t.size == int(4.0 * 240) + 1
        assert art.metrics["n_frames"] == 120
        assert art.metrics["detection_coverage"] > 0.9
        assert len(art.estimates) > 0
        assert art.metrics["rmse_u"] < 0.05

    def test_detections_table(self):
        # one row per detected frame, in capture order, with the configured tag id
        s = tiny_line()
        s.tag.tag_id = 5
        art = run_scenario(s)
        t = art.detections.t
        assert 0 < len(art.detections) <= art.metrics["n_frames"]
        assert np.all(np.diff(t) > 0) and t[0] >= 0.0 and t[-1] < s.duration
        np.testing.assert_array_equal(art.detections.table[:, 1], 5)

    def test_start_sequence_gates_actuation(self):
        s = tiny_line()
        s.command_script = [(0.3, SetMotors(50, 50))]  # no StartSequence
        art = run_scenario(s)
        assert art.metrics["path_length_truth"] < 0.01
        statuses = {e.status for e in art.command_log}
        assert statuses <= {"ignored", "lost"}

    def test_command_log_applied(self):
        art = run_scenario(tiny_line())
        applied = [e for e in art.command_log if e.status == "applied"]
        assert applied, "expected the shallow-water commands to land"
        for e in applied:
            assert e.t_applied is not None
            # one-way latency
            assert e.t_applied - e.t_sent >= 0.05 - 1e-9

    def test_deep_commands_lost(self):
        # vehicle sinks below the blackout depth; commands sent then must be
        # logged as lost and the motors must never engage
        s = get_scenario("pump_test")
        s.duration = 40.0
        s.command_script = [
            (0.2, StartSequence(1)),
            (0.4, StartSequence(1)),
            (0.5, Pump(PUMP_MODE_INTAKE, 15000)),
            (0.8, Pump(PUMP_MODE_INTAKE, 15000)),
        ] + [(30.0 + 0.1 * i, SetMotors(50, 50)) for i in range(10)]
        s.vehicle.tank_depth = 3.0  # deep enough to pass blackout
        art = run_scenario(s)
        deep = [e for e in art.command_log if e.depth_at_send > s.channel.d1]
        assert deep, "expected sends from below the blackout depth"
        assert all(e.status == "lost" for e in deep)
        assert np.all(np.abs(art.truth.u) < 1e-9)

    def test_telemetry_flags(self):
        art = run_scenario(tiny_line())
        assert len(art.telemetry), "expected telemetry on the surface"
        first = dict(zip(TELEMETRY_HEADER, art.telemetry[0]))
        assert int(first["flags"]) & 0x01  # fill estimate valid at low ambient
        assert abs(first["fill_est_tenth_ml"] / 10.0 - 12.5) < 0.5

    def test_telemetry_degraded_under_glare(self):
        s = tiny_line()
        s.ambient_ir = 0.95
        art = run_scenario(s)
        for flags in art.telemetry[:, TELEMETRY_HEADER.index("flags")].astype(int):
            assert not (flags & 0x01) or (flags & 0x02)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        ticks=st.lists(st.tuples(
            st.one_of(st.sampled_from([0.0, 12.5, 25.0]), st.floats(0.0, 25.0)),
            st.one_of(st.sampled_from([-0.0004, 0.0, 1.3716, 65.535, 65.5355]),
                      st.floats(-1.0, 80.0))), max_size=40),
        ambient=st.sampled_from([0.0, 0.05, 0.6, 0.95, 1.0]),
        noise_sigma=st.sampled_from([0.0, 0.002, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_telemetry_table_matches_per_tick_loop(self, ticks, ambient, noise_sigma, seed):
        # per tick: true fill at 0, capacity or between; true depth past
        # both ends of the 16-bit millimetre field
        params = get_scenario("pump_test").vehicle
        fill, z = [t[0] for t in ticks], [t[1] for t in ticks]
        rng, bf_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = telemetry_table(np.array(fill), np.array(z), ambient, noise_sigma, params, rng)
        assert encode_rows(got) == bf.bf_telemetry(fill, z, ambient, noise_sigma, params,
                                                        bf_rng)
        assert rng.bit_generator.state == bf_rng.bit_generator.state

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(sim_rate=st.sampled_from([20.0, 240.0]) | st.floats(20.0, 1000.0),
           share=st.sampled_from([1.0, 0.5, 5.0 / 240.0]) | st.floats(1e-3, 1.0),
           period=st.sampled_from([None, 1 / 7, 1 / 30]),
           duration=st.floats(1e-3, 30.0))
    def test_telemetry_ticks_match_tick_loop(self, sim_rate, share, period, duration):
        # a share of 1 is a tick at every step; 1/7 s and 1/30 s are not
        # binary fractions, so every summed due is rounded
        n_steps = int(round(duration * sim_rate))
        step_t = np.arange(n_steps) * (1.0 / sim_rate)
        period = period or 1.0 / (sim_rate * share)
        assert telemetry_ticks(step_t, period).tolist() == bf.bf_telemetry_ticks(step_t, period)

    @pytest.mark.parametrize("sim_rate, period", [(240.0, 1 / 7), (240.0, 1 / 30), (20.0, 1 / 7)])
    def test_telemetry_ticks_match_tick_loop_over_max_steps(self, sim_rate, period):
        # the longest run a scenario may take, where the summed dues have
        # drifted furthest from whole multiples of the period
        step_t = np.arange(MAX_STEPS) * (1.0 / sim_rate)
        assert telemetry_ticks(step_t, period).tolist() == bf.bf_telemetry_ticks(step_t, period)

    def test_telemetry_table_covers_every_branch(self):
        # fills at 0, capacity and between, under ambient light that gives
        # each quality, and depths past both ends of the depth field
        params = get_scenario("pump_test").vehicle
        fill = np.array([0.0, 12.5, 25.0, 12.5, 12.5, 7.3])
        z = np.array([-0.5, 0.3, 1.3716, 65.6, 0.0, 0.7])
        msgs = []
        for ambient in (0.0, 0.05, 0.6, 0.95, 1.0):
            frames = encode_rows(telemetry_table(fill, z, ambient, 0.0, params, None))
            assert frames == bf.bf_telemetry(fill, z, ambient, 0.0, params, None)
            msgs += [decode(f) for f in frames]
        assert {m.flags for m in msgs} == {0, FLAG_FILL_VALID, FLAG_FILL_VALID | FLAG_IR_DEGRADED}
        assert [m.depth_mm for m in msgs[:6]] == [0, 300, 1372, 0xFFFF, 0, 700]
        empty = telemetry_table(np.empty(0), np.empty(0), 0.05, 0.002, params,
                                np.random.default_rng(1))
        assert empty.shape == (0, 12)

    def test_seed_changes_noise(self):
        a = run_scenario(tiny_line(seed=1))
        b = run_scenario(tiny_line(seed=2))
        assert a.detections.t.tolist() != b.detections.t.tolist()

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        run_scenario(tiny_line(), out_dir=str(out))
        for name in ("truth.csv", "detections.csv", "estimates.csv", "metrics.csv",
                     "meta.csv", "alignments.csv", "command_log.csv", "telemetry.csv"):
            assert (out / name).exists(), name
        for name in ("u.csv", "v.csv", "psi.csv", "r.csv", "track_xy.csv",
                     "depth.csv", "ir.csv"):
            assert (out / "plotdata" / name).exists(), name

    @pytest.mark.parametrize("name, settings", [
        *(pytest.param(name, {}, id=name) for name in ["line", "circle", "zigzag", "pump_test"]),
        # no detections: detections, estimates and alignments are header-only
        pytest.param("line", {"camera.dropout_prob": "1.0"}, id="line_blind"),
        # a frame period longer than the run: no frame, a blind run
        pytest.param("line", {"camera.frame_rate": "0.01"}, id="line_no_frames"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_recompute_metrics_matches(self, name, settings, tmp_path):
        out = tmp_path / "run"
        s = get_scenario(name)
        for key, value in settings.items():
            apply_setting(s, key, value)
        run_scenario(s, out_dir=str(out))
        rows = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1, dtype=str)
        written = {key: float(value) for key, value in rows}
        again = recompute_metrics(str(out))
        assert set(again) == set(written)
        for key, value in written.items():
            assert again[key] == pytest.approx(value, rel=1e-9, abs=0.0), key

    def test_neutral_fill_follows_capacity(self):
        s = tiny_line()
        apply_setting(s, "vehicle.syringe_capacity", "30")
        art = run_scenario(s)
        assert np.all(art.truth["fill"] == 15.0)
        assert np.all(art.truth.z == 0.0) and np.all(art.truth.w == 0.0)

    def test_sensors_sample_truth_at_their_steps(self):
        # noiseless sensors and an instant link: frame time f sees the truth
        # of the first step k with f <= t_k + dt/2, from the camera pose the
        # rig settings give, and a telemetry row at t_k reports the truth
        # depth of step k
        noiseless = ["%s=0" % key for key in (
            "camera.translation_noise_sigma", "camera.rotation_noise_sigma",
            "camera.timestamp_jitter_sigma", "camera.dropout_prob", "depth_noise_sigma",
            "channel.latency")]
        poses = []
        for rig in ([], ["camera_height=3", "camera_tilt_y_deg=-1.5", "tank_side_ft=12"]):
            s = get_scenario("pump_test", [*noiseless, *rig])
            s.duration = 20.0
            s.command_script = [c for c in s.command_script if c[0] <= s.duration]
            art = run_scenario(s)
            truth, dt = art.truth, 1.0 / s.sim_rate
            step_t = truth.t[:-1]

            steps = np.searchsorted(step_t + 0.5 * dt, art.detections.t)
            cam = s.camera_pose()
            poses.append(cam)
            position = np.column_stack([truth.x, truth.y, truth.z])[steps]
            expected = np.array([cam.rotation.T @ (p - cam.translation) for p in position])
            assert len(art.detections) > 0
            np.testing.assert_array_equal(art.detections.q, expected)

            rows = np.searchsorted(step_t, art.telemetry[:, 0])
            np.testing.assert_array_equal(step_t[rows], art.telemetry[:, 0])
            assert len(rows) > 0
            np.testing.assert_array_equal(art.telemetry[:, 1], np.round(truth.z[rows] * 1000))
        # the moved rig moved and turned the camera
        assert not np.any(poses[0].translation == poses[1].translation)
        assert not np.array_equal(poses[0].rotation, poses[1].rotation)

    def test_paper_plot_frame_flips_yaw(self, tmp_path):
        s = tiny_line()
        out_ned = tmp_path / "ned"
        run_scenario(s, out_dir=str(out_ned))
        s2 = tiny_line()
        s2.plot_frame = "paper"
        out_paper = tmp_path / "paper"
        run_scenario(s2, out_dir=str(out_paper))
        ned = np.loadtxt(out_ned / "plotdata" / "psi.csv", delimiter=",", skiprows=1)
        pap = np.loadtxt(out_paper / "plotdata" / "psi.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(pap[:, 1], -ned[:, 1], atol=1e-12)


def test_tree_alignment_rows_are_scored(tree_dir):
    # every segment row of every run of the tree has samples to compare
    rows = 0
    for run_dir in sorted(tree_dir.iterdir()):
        with open(run_dir / "meta.csv", newline="") as fh:
            meta = dict(list(csv.reader(fh))[1:])
        truth = series(read_table(run_dir / "truth.csv", TRUTH_DTYPE.names), TRUTH_DTYPE)
        estimates = read_states_csv(run_dir / "estimates.csv")
        alignments = read_table(run_dir / "alignments.csv", ALIGNMENT_HEADER)
        ends = np.searchsorted(estimates.timestamp, alignments[:, 2], side="right")
        for a, b, row in zip([0, *ends], ends, alignments):
            res = residuals(truth, estimates[a:b], row[6:15].reshape(3, 3), row[3:6],
                            int(meta["smoothing_window"]), float(meta["output_rate"]))
            assert res["t"].size > 0, (run_dir.name, int(row[0]))
            rows += 1
    assert rows > 50


class TestCli:
    def test_list_scenarios(self, capsys):
        # each built-in's name and the first line of its file, in order
        assert cli.main(["list-scenarios"]) == 0
        assert capsys.readouterr().out == (
            "line       Straight surface run sized to cover roughly 10 ft.\n"
            "circle     Constant differential producing a turn radius of about 6 ft.\n"
            "zigzag     Two zig-zag maneuvers: five alternating differential phases.\n"
            "pump_test  Buoyancy cycling: sink toward 1 m, rise, and repeat.\n")

    def test_run_builtin(self, tmp_path, capsys):
        rc = cli.main(["run", "line", "--out", str(tmp_path / "out"),
                       "--set", "duration=3.0"])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert "rmse_u" in capsys.readouterr().out

    def test_metrics_subcommand(self, tmp_path, capsys):
        cli.main(["run", "line", "--out", str(tmp_path / "out"),
                  "--set", "duration=3.0"])
        capsys.readouterr()
        assert cli.main(["metrics", str(tmp_path / "out")]) == 0
        assert "rmse_u" in capsys.readouterr().out

    def test_unknown_scenario_exit_2(self, capsys):
        assert cli.main(["run", "no_such_scenario"]) == 2

    def test_bad_override_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run", "line", "--out", str(tmp_path / "o"),
                       "--set", "bogus_key=1"])
        assert rc == 2

    @pytest.mark.parametrize("override", [
        "duration=-5",
        "telemetry_rate=0",
        "sim_rate=10",
        "depth_noise_sigma=-1",
        "channel.latency=-1",
        "camera.frame_rate=1000",
        "telemetry_rate=1000",
        # command values the protocol cannot encode, or that do not parse
        "command=1 start x",
        "command=1 set_motors a b",
        "command=1 set_motors 500 0",
        "command=1 pump intake 99999999",
        "command=1 start 300",
        # a window no segment of an 8.35 s run can fill
        "pipeline.smoothing_window=500",
        # NaN, infinite or negative numbers
        "duration=inf",
        "camera.frame_rate=nan",
        "pipeline.output_rate=nan",
        "camera.timestamp_jitter_sigma=-1",
        "camera.translation_noise_sigma=-1",
        "camera.rotation_noise_sigma=nan",
        "pipeline.max_gap=nan",
        "pipeline.outlier_z_jump=-1",
        "vehicle.mass=inf",
        "sim_rate=inf",
        "initial_x=nan",
        # a start outside the tank's [0, tank_side] square
        "initial_x=-0.01",
        "initial_y=%r" % (get_scenario("line").tank_side + 0.01),
        "initial_y=3580",
        # geometry: a camera outside the tank or under the surface, a tag
        # hidden at every depth
        "tank_side=-1",
        "camera_height=-1",
        "camera.visibility_depth=-1",
        # a seed the generator cannot take
        "seed=-5",
        # plant steps the explicit update cannot hold
        "vehicle.motor_time_constant=0.001",
        "vehicle.mass=0.001",
        "vehicle.mass=0.008",
        "vehicle.yaw_inertia=1e-5",
        "vehicle.drag_surge=1e9",
        "vehicle.drag_yaw=1e9",
        "vehicle.drag_heave=1e9",
        "vehicle.max_thrust_per_prop=1e9",
        "vehicle.propeller_separation=1e9",
        # a unit suffix on a text or integer field, a setting without "="
        "name_ft=3",
        "seed_ft=1",
        "plot_frame_in=3",
        "pipeline.smoothing_window_ml=2",
        "camera.dropout_prob0.1",
        # a tag id the id column cannot hold exactly, text a scenario file
        # would cut at "#", a link band upside down, a pipeline grid finer
        # than the plant's, and runs of more than MAX_STEPS plant steps
        "tag.tag_id=-7",
        "tag.tag_id=1000000000000",
        "name=a#b",
        "channel.d1=0.2",
        "pipeline.output_rate=1000",
        "duration=1e9",
        "sim_rate=1e9",
        # lengths whose squares and products would overflow the plane fit
        "tank_side=1e154",
        "tank_side=1e300",
        "camera_height=1e154",
        "camera_height=1e300",
        # a spurious-z offset and a position noise that would move the tags as
        # far, when a run enables the offset or lets far detections through
        "camera.spurious_z_offset=1e200",
        "camera.spurious_z_offset=-1e200",
        "camera.translation_noise_sigma=1e154",
        "camera.translation_noise_sigma=1e200",
        # a plot frame that is neither 'ned' nor 'paper'
        "plot_frame=north",
        # settings of model concepts that no run reached, since removed
        "vehicle.drag_sway=1",
        "camera.glare_regions=x",
        "tag.mount_offset=x",
    ])
    def test_bad_override_value_exit_2(self, override, tmp_path, capsys):
        rc = cli.main(["run", "line", "--out", str(tmp_path / "o"),
                       "--set", override])
        assert rc == 2
        assert override.split("=")[0].split(".")[-1] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_set_fixes_an_invalid_scenario_file(self, tmp_path, capsys):
        # the file alone puts a command past its end; --set lengthens the run
        path = tmp_path / "short.scenario"
        path.write_text("duration = 1\ncommand = 0.2 start\ncommand = 2.0 set_motors 50 50\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "a")]) == 2
        assert "command_script" in capsys.readouterr().err
        assert cli.main(["run", str(path), "--out", str(tmp_path / "b"),
                         "--set", "duration=3"]) == 0

    def test_scenario_path_is_a_directory_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_scenario_file_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.scenario"
        path.write_bytes("name = caf\u00e9\n".encode("latin-1"))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_failed_artifact_write_exit_3(self, tmp_path, capsys):
        # a valid scenario whose output directory cannot be made is a
        # runtime failure, not a configuration error
        (tmp_path / "file").write_text("")
        assert cli.main(["run", "line", "--set", "duration=3",
                         "--out", str(tmp_path / "file" / "out")]) == 3
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["..", ".", "", "a/b", "/abs", "../up", "a/", "nul\0",
                                      "a\nb", "a\rb"])
    def test_name_outside_one_run_directory_exit_2(self, name, tmp_path, monkeypatch, capsys):
        # with no --out the run goes to runs/<name>: a name that is not one
        # directory is refused before anything is written.  A line break
        # would split meta.csv's scenario row over two lines: --set refuses
        # it in any text, and validate in a scenario built in Python
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "line", "--set", "name=" + name]) == 2
        rule = "text cannot hold" if "\n" in name or "\r" in name else "must be one path component"
        assert "name: " + rule in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        s = get_scenario("line")
        s.name = name
        with pytest.raises(ConfigError, match="^name: must be one path component on one line"):
            s.validate()

    def test_metrics_damaged_meta_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run", "line", "--out", str(out), "--set", "duration=3.0"])
        capsys.readouterr()
        meta = out / "meta.csv"
        meta.write_text(meta.read_text().replace("n_frames,", "frames,"))
        assert cli.main(["metrics", str(out)]) == 3
        assert "%s: 'n_frames' is missing" % meta in capsys.readouterr().err

    def test_metrics_missing_dir_exit_2(self, tmp_path, capsys):
        assert cli.main(["metrics", str(tmp_path / "missing")]) == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", "line", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_override(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cli.main(["run", "line", "--out", str(a), "--set", "duration=3.0",
                  "--seed", "101"])
        cli.main(["run", "line", "--out", str(b), "--set", "duration=3.0",
                  "--seed", "101"])
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()
        assert (a / "detections.csv").read_bytes() == (b / "detections.csv").read_bytes()
