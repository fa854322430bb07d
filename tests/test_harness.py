import math

import numpy as np
import pytest

from tanklab import cli
from tanklab.frames import rot_z
from tanklab.link import Pump, SetMotors, StartSequence, PUMP_MODE_INTAKE
from tanklab.metrics import (
    Collinear,
    FrameAlignment,
    MetricsError,
    circle_fit,
    count_reversals,
    count_sign_changes,
    path_length,
    truth_in_estimate_frame,
    truth_series,
)
from tanklab.runner import recompute_metrics, run_scenario, score_run
from tanklab.scenarios import (
    BUILTIN_SCENARIOS,
    ConfigError,
    Scenario,
    apply_setting,
    get_scenario,
    load_scenario_file,
    parse_command,
)
from tanklab.tracking import state_series


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
        with pytest.raises(Collinear):
            circle_fit(pts)

    def test_too_few(self):
        with pytest.raises(MetricsError):
            circle_fit([[0, 0], [1, 1]])


def flat_truth(duration=10.0, rate=240.0, **channels):
    t = np.arange(int(duration * rate) + 1) / rate
    def get(name, default=0.0):
        val = channels.get(name, default)
        return val if isinstance(val, np.ndarray) else np.full_like(t, val)
    return truth_series(np.column_stack([
        t, get("x"), get("y"), get("z"), get("psi"),
        get("u"), get("v"), get("w"), get("r"), get("fill", 12.5)]))


class TestAlignment:
    def test_identity_alignment_passthrough(self):
        truth = flat_truth(u=0.4, v=0.1, r=0.2)
        out = truth_in_estimate_frame(truth, np.array([1.0, 2.0]), FrameAlignment.identity())
        np.testing.assert_allclose(out["u"], 0.4)
        np.testing.assert_allclose(out["v"], 0.1)
        np.testing.assert_allclose(out["r"], 0.2)

    def test_reflection_flips_v_and_r(self):
        # the recovered basis for a level overhead camera swaps x/y: a
        # planar reflection, so sway and yaw rate change sign
        rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        align = FrameAlignment(rot, np.zeros(3))
        assert align.planar_sign == -1.0
        truth = flat_truth(u=0.4, v=0.1, r=0.2)
        out = truth_in_estimate_frame(truth, np.array([1.0]), align)
        assert out["u"][0] == 0.4
        assert out["v"][0] == -0.1
        assert out["r"][0] == -0.2

    def test_rotation_preserves_v_and_r(self):
        align = FrameAlignment(rot_z(0.6), np.zeros(3))
        assert align.planar_sign == 1.0

    def test_position_mapping(self):
        align = FrameAlignment(rot_z(math.pi / 2), np.array([1.0, 1.0, 0.0]))
        truth = flat_truth(x=2.0, y=1.0)
        out = truth_in_estimate_frame(truth, np.array([0.0]), align)
        # (2,1) - (1,1) = (1,0); rotated by +90 deg -> (0,1)
        assert out["x"][0] == pytest.approx(0.0, abs=1e-12)
        assert out["y"][0] == pytest.approx(1.0, abs=1e-12)


def constant_states(times, **channels):
    """A state series on ``times``; each channel a constant or an array."""
    return state_series(times, *(np.broadcast_to(channels.get(name, 0.0), times.shape)
                                 for name in ("x", "y", "psi", "u", "v", "r")))


def score_one(truth, states, window=12, rate=30.0):
    """Score one segment seen in the truth frame."""
    return score_run(truth, [states], [FrameAlignment.identity()], window, rate,
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


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins_validate(self, name):
        s = get_scenario(name)
        assert s.name == name
        s.validate()

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
        assert s.vehicle_params.mass == 3.1
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
        apply_setting(s, "vehicle.body_length_in", "12")
        assert s.vehicle_params.body_length == pytest.approx(0.3048)

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
        s = load_scenario_file(path)
        assert s.name == "mini" and s.duration == 4.0 and s.seed == 5
        assert s.vehicle_params.mass == 2.9
        assert len(s.command_script) == 2

    def test_scenario_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("duration 4.0\n")
        with pytest.raises(ConfigError):
            load_scenario_file(path)

    def test_validate_rejects_bad_script_time(self):
        s = Scenario(name="t", duration=5.0,
                     command_script=[(9.0, StartSequence(1))])
        with pytest.raises(ConfigError):
            s.validate()


def tiny_line(duration=4.0, seed=3):
    s = get_scenario("line")
    s.duration = duration
    s.seed = seed
    s.command_script = [c for c in s.command_script if c[0] <= duration]
    return s


class TestRunner:
    def test_line_run_basics(self):
        art = run_scenario(tiny_line())
        assert art.truth.t.size == int(4.0 * 240) + 1
        assert art.n_frames == 120
        assert art.metrics["detection_coverage"] > 0.9
        assert len(art.estimates) > 0
        assert art.metrics["rmse_u"] < 0.05

    def test_detections_table(self):
        # one row per detected frame, in capture order, with the configured tag id
        s = tiny_line()
        s.tag.tag_id = 5
        art = run_scenario(s)
        t = art.detections.t
        assert 0 < len(art.detections) <= art.n_frames
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
        s.vehicle_params.tank_depth = 3.0  # deep enough to pass blackout
        art = run_scenario(s)
        deep = [e for e in art.command_log if e.depth_at_send > s.channel.d1]
        assert deep, "expected sends from below the blackout depth"
        assert all(e.status == "lost" for e in deep)
        assert np.all(np.abs(art.truth.u) < 1e-9)

    def test_telemetry_flags(self):
        art = run_scenario(tiny_line())
        assert art.telemetry_log, "expected telemetry on the surface"
        t0, msg = art.telemetry_log[0]
        assert msg.flags & 0x01  # fill estimate valid at low ambient
        assert abs(msg.fill_est_tenth_ml / 10.0 - 12.5) < 0.5

    def test_telemetry_degraded_under_glare(self):
        s = tiny_line()
        s.ambient_ir = 0.95
        art = run_scenario(s)
        for _, msg in art.telemetry_log:
            assert not (msg.flags & 0x01) or (msg.flags & 0x02)

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


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_SCENARIOS:
            assert name in out

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
        # command values the protocol cannot encode, or that do not parse
        "command=1 start x",
        "command=1 set_motors a b",
        "command=1 set_motors 500 0",
        "command=1 pump intake 99999999",
        "command=1 start 300",
        # a window no segment of an 8.35 s run can fill
        "pipeline.smoothing_window=500",
    ])
    def test_bad_override_value_exit_2(self, override, tmp_path, capsys):
        rc = cli.main(["run", "line", "--out", str(tmp_path / "o"),
                       "--set", override])
        assert rc == 2
        assert override.split("=")[0].split(".")[-1] in capsys.readouterr().err

    def test_metrics_missing_dir_exit_2(self, tmp_path, capsys):
        assert cli.main(["metrics", str(tmp_path / "missing")]) == 2

    def test_seed_override(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cli.main(["run", "line", "--out", str(a), "--set", "duration=3.0",
                  "--seed", "101"])
        cli.main(["run", "line", "--out", str(b), "--set", "duration=3.0",
                  "--seed", "101"])
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()
        assert (a / "detections.csv").read_bytes() == (b / "detections.csv").read_bytes()
