"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to see the report lines.
"""

import math
import sys
import time

import numpy as np
import pytest

import brute_force as bf
from conftest import camera_pose, synthetic_detections
from tanklab import frames, link, scenarios, tracking, vehicle
from tanklab.frames import PlaneCoefficients, wrap_angle
from tanklab.metrics import circle_fit, count_sign_changes
from tanklab.runner import R_HYSTERESIS, run_scenario
from tanklab.tracking import PipelineConfig, moving_average, resample_uniform
from tanklab.vehicle import estimate_plunger, ir_response, signal_quality


def report(name: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPTANCE %-22s %s" % (name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line, file=sys.stdout, flush=True)
    assert ok, line


_RUN_CACHE: dict[str, object] = {}


def cached_run(name: str):
    if name not in _RUN_CACHE:
        _RUN_CACHE[name] = run_scenario(scenarios.get_scenario(name))
    return _RUN_CACHE[name]


def test_frames_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(1000):
        a, b = rng.uniform(-0.8, 0.8, 2)
        d = rng.uniform(-3, 3)
        r = frames.world_rotation(PlaneCoefficients(a, b, d))
        ok &= bool(np.abs(r @ r.T - np.eye(3)).max() < 1e-9)
        ok &= abs(np.linalg.det(r) - 1.0) < 1e-9
        pts = np.column_stack([
            rng.uniform(-2, 2, 20), rng.uniform(-2, 2, 20), np.zeros(20)])
        pts[:, 2] = a * pts[:, 0] + b * pts[:, 1] + d
        p = frames.fit_plane(pts)
        resid = p.a * pts[:, 0] + p.b * pts[:, 1] - pts[:, 2] + p.d
        ok &= bool(np.abs(resid).max() < 1e-9)
        xd, yd, psi = rng.uniform(-1, 1, 3)
        u, v, _ = frames.body_velocities(xd, yd, psi)
        ok &= abs(math.hypot(u, v) - math.hypot(xd, yd)) < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("frames-suite", ok, "%.2f s for 1000 planes" % elapsed)


def test_pipeline_oracle_equivalence():
    def traj(t):
        return 1.0 + 0.4 * t, 1.0 + 0.05 * math.sin(3 * t), 0.3 * t

    times = np.arange(20) / 30.0
    dets = synthetic_detections(times, traj, camera_pose(tilt_x=math.radians(2.5)))
    window, rate = 6, 30.0
    states, _ = tracking.run_pipeline_detailed(dets, PipelineConfig(smoothing_window=window))
    oracle = bf.bf_pipeline(dets.t, dets.q, dets.rot, window, rate)
    worst = 0.0
    for i, s in enumerate(states):
        worst = max(
            worst,
            abs(s.timestamp - oracle["t"][i]),
            abs(s.x - oracle["x"][i]),
            abs(s.y - oracle["y"][i]),
            abs(s.psi - wrap_angle(oracle["psi"][i])),
            abs(s.u - oracle["u"][i]),
            abs(s.v - oracle["v"][i]),
            abs(s.r - oracle["r"][i]),
        )
    report("pipeline-oracle", len(states) == len(oracle["t"]) and worst < 1e-9,
           "max field deviation %.2e" % worst)


def test_tilt_correction():
    tilt = math.radians(3.0)

    def traj(t):
        return 1.0 + 0.3 * t, 1.0 + 0.05 * math.sin(2 * t), 0.1 * t

    times = np.arange(0, 4.0, 1 / 30)
    dets = synthetic_detections(times, traj, camera_pose(tilt_x=tilt))
    q = dets.q
    plane = frames.fit_plane(q)
    normal = plane.normal / np.linalg.norm(plane.normal)
    angle_err = abs(math.acos(abs(normal[2])) - tilt)
    r = frames.world_rotation(plane)
    world = (q - q[0]) @ r.T
    z_max = np.abs(world[:, 2]).max()
    report("tilt-correction", angle_err < math.radians(0.01) and z_max < 1e-9,
           "normal err %.2e deg, |z| max %.2e" % (math.degrees(angle_err), z_max))


def test_end_to_end_line():
    t0 = time.perf_counter()
    art = cached_run("line")
    elapsed = time.perf_counter() - t0
    steady = art.truth.u[art.truth.t > 4.0]
    u_steady = float(np.mean(steady))
    rmse_u = art.metrics["rmse_u"]
    mean_v = art.metrics["mean_v"]
    path = art.metrics["path_length_truth"]
    ok = (
        rmse_u < 0.03 * u_steady
        and abs(mean_v) < 0.01
        and abs(path - 3.05) < 0.05 * 3.05
        and elapsed < 10.0
    )
    report("line", ok,
           "rmse_u %.4f (< %.4f), mean_v %.4f, path %.3f m, %.1f s"
           % (rmse_u, 0.03 * u_steady, mean_v, path, elapsed))


def test_end_to_end_circle():
    art = cached_run("circle")
    steady = art.truth.t > 10.0
    (_, _), radius_truth = circle_fit(
        np.column_stack([art.truth.x[steady], art.truth.y[steady]]))
    est = art.estimates
    t_est = np.array([s.timestamp for s in est])
    pts = np.array([[s.x, s.y] for s in est])[t_est > 10.0]
    (_, _), radius_est = circle_fit(pts)
    r_steady = art.truth.r[steady]
    r_var = float(np.max(np.abs(r_steady - np.mean(r_steady))) / np.mean(r_steady))
    ok = abs(radius_est - radius_truth) < 0.05 * radius_truth and r_var < 0.03
    report("circle", ok,
           "radius est %.3f vs truth %.3f m (~1.83), r variation %.2f%%"
           % (radius_est, radius_truth, 100 * r_var))


def test_zigzag():
    art = cached_run("zigzag")
    changes = int(art.metrics["r_sign_changes_est"])
    report("zigzag", changes == 4, "%d sign changes of estimated r" % changes)


@pytest.mark.parametrize("seed", range(20))
def test_zigzag_turns_match_truth(seed):
    # compared with truth's count, not with 4: at seed 14 the link drops the
    # first SetMotors and the vehicle turns 3 times
    s = scenarios.get_scenario("zigzag")
    s.seed = seed
    art = run_scenario(s)
    assert art.metrics["r_sign_changes_est"] == count_sign_changes(art.truth.r, R_HYSTERESIS)


@pytest.mark.parametrize("seed", range(10))
def test_line_high_dropout_completes(seed):
    # sparse detections leave 2-detection segments, which are skipped
    s = scenarios.get_scenario("line")
    s.seed = seed
    scenarios.apply_setting(s, "camera.dropout_prob", "0.9")
    art = run_scenario(s)
    assert art.metrics["n_detections"] == len(art.detections)


@pytest.mark.parametrize("seed", range(12))
def test_pump_test_depth_across_seeds(seed):
    s = scenarios.get_scenario("pump_test")
    s.seed = seed
    art = run_scenario(s)
    assert abs(art.metrics["max_depth_truth"] - 1.0) <= 0.15


@pytest.mark.parametrize("seed", range(12))
def test_line_rmse_u_across_seeds(seed):
    # test_end_to_end_line's bound at the default seed, 3% of the steady
    # surge (0.01337 m/s), rounded up
    s = scenarios.get_scenario("line")
    s.seed = seed
    art = run_scenario(s)
    assert art.metrics["rmse_u"] < 0.0134


def test_buoyancy():
    params = vehicle.VehicleParams()
    dt = 1.0 / 240.0
    state, steps = vehicle.VehicleState(fill=0.0), 0
    intake = vehicle.ActuatorCommand(pump=1)  # fill direction: intake
    while state.fill < params.syringe_capacity:
        state = vehicle.step(state, intake, dt, params)
        steps += 1
    fill_time_ok = abs(steps * dt - 15.0) <= dt + 1e-12

    art = cached_run("pump_test")
    max_depth = art.metrics["max_depth_truth"]
    reversals = int(art.metrics["depth_reversals_truth"])
    depth_ok = abs(max_depth - 1.0) <= 0.15 and reversals >= 2

    fills = np.arange(2.0, 24.0)
    ir_ok = bool((abs(estimate_plunger(ir_response(fills, 0.0, params), params) - fills)
                  <= 0.5).all())
    ambient_ok = all(
        signal_quality(ir_response([12.5], amb, params))[0] in ("degraded", "none")
        for amb in (0.9, 0.95, 1.0)
    )
    report("buoyancy", fill_time_ok and depth_ok and ir_ok and ambient_ok,
           "fill %.3f s, max depth %.3f m, %d reversals" % (steps * dt, max_depth, reversals))


def test_protocol():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100_000):
        kind = rng.integers(0, 4)
        if kind == 0:
            msg = link.SetMotors(int(rng.integers(-100, 101)), int(rng.integers(-100, 101)))
        elif kind == 1:
            msg = link.Pump(int(rng.integers(0, 3)), int(rng.integers(0, 0x10000)))
        elif kind == 2:
            msg = link.StartSequence(int(rng.integers(0, 256)))
        else:
            msg = link.Telemetry(
                int(rng.integers(0, 0x10000)),
                tuple(int(v) for v in rng.integers(0, 256, 9)),
                int(rng.integers(0, 256)),
                int(rng.integers(0, 256)),
            )
        if link.decode(link.encode(msg)) != msg:
            ok = False
            break

    for _ in range(5000):
        blob = rng.integers(0, 256, int(rng.integers(0, 40))).astype(np.uint8).tobytes()
        try:
            link.decode(blob)
        except link.LinkError:
            pass
        except Exception:
            ok = False

    frame = bytearray(link.encode(link.SetMotors(50, 50)))
    for i in range(2, len(frame)):
        for bit in range(8):
            bad = frame.copy()
            bad[i] ^= 1 << bit
            try:
                decoded = link.decode(bytes(bad))
                if decoded == link.SetMotors(50, 50):
                    ok = False
            except link.LinkError:
                pass

    worst = 0.0
    channel = link.Channel(link.ChannelConfig(), rng)
    for depth, expected in ((0.0, 0.99), (0.75, 0.495), (1.3, 0.0)):
        got = sum(channel.send(b"x", 0.0, depth) for _ in range(10_000)) / 10_000
        worst = max(worst, abs(got - expected))
        ok &= abs(got - expected) <= 0.02
    report("protocol", ok, "worst delivery-rate error %.4f" % worst)


def test_resampler_and_lag():
    t = np.sort(np.random.default_rng(3).uniform(0, 5, 200))
    t[0], t[-1] = 0.0, 5.0
    grid, _ = resample_uniform(t, t, 30.0)
    spacing_ok = bool(np.abs(np.diff(grid) - 1.0 / 30.0).max() < 1e-12)

    # trailing 12-point average of a ramp of slope m lags by 5.5 samples:
    # mean of v(t - k dt), k = 0..11 -> v(t) - m * 5.5 dt
    dt = 1.0 / 30.0
    m = 0.37
    ramp = m * np.arange(300) * dt
    smoothed = moving_average(ramp, 12)
    lag_err = np.abs(smoothed[11:] - (ramp[11:] - 5.5 * m * dt)).max()
    report("resampler", spacing_ok and lag_err < 1e-12,
           "grid spacing exact, ramp lag error %.2e" % lag_err)


def test_determinism(tmp_path):
    ok = True
    details = []
    for name in sorted(scenarios.BUILTIN_SCENARIOS):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / ("%s_%s" % (name, tag))
            run_scenario(scenarios.get_scenario(name), out_dir=str(out))
            dirs.append(out)
        same = all(
            (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
            for rel in [p.relative_to(dirs[0]) for p in dirs[0].rglob("*.csv")]
        )
        ok &= same
        details.append("%s:%s" % (name, "ok" if same else "DIFF"))
    report("determinism", ok, " ".join(details))
