"""Deterministic scenario execution: vehicle + camera + link + tracking.

One scenario is a single-threaded loop over what feeds back into the
plant: ground-station commands travel through the lossy downlink (a
submerged vehicle can miss them).  The loop runs at the steps where a
command is sent, one arrives or the pump stops, and integrates the plant
on its fixed step up to the next such step.  After it, the overhead camera
(on its own jittered clock) and the telemetry uplink sample the truth
table, and the detection stream is run through the tracking pipeline.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import link, metrics as metrics_mod, tracking, vehicle as vehicle_mod
from .camera import frame_clock, observe
from .link import (
    PUMP_MODE_EXPEL,
    PUMP_MODE_INTAKE,
    Channel,
    Pump,
    SetMotors,
    StartSequence,
    decode,
    encode,
)
from .metrics import (
    count_reversals,
    count_sign_changes,
    path_length,
    residuals,
)
from .scenarios import _DOMAINS, Scenario, _in_domain, window_error
from .tracking import (ROTATION_HEADER, STATE_DTYPE, Detections, fmt, read_table, rows_table,
                       series, write_rows, write_table)
from .vehicle import (
    TRUTH_DTYPE,
    ActuatorCommand,
    VehicleState,
    depth_reading,
    estimate_plunger,
    ir_response,
    signal_quality,
)

R_HYSTERESIS = 0.05  # rad/s, for zig-zag turn counting

# One row per scored pipeline segment, one of more than 2 * window states,
# so that some lie past both smoothing edges: index, first and last estimate
# time, then the origin and row-major rotation that map truth into the
# segment's frame (``metrics.residuals``).
ALIGNMENT_HEADER = ["segment", "t_start", "t_end", "ox", "oy", "oz", *ROTATION_HEADER]
# One row per telemetry frame received: arrival time, then the message fields.
TELEMETRY_HEADER = ["t", *(name for name, _, _ in link._WIRE[link.Telemetry][2])]


@dataclass
class CommandLogEntry:
    t_sent: float
    message: object
    status: str           # 'lost' until it arrives, then 'applied' or 'ignored'
    t_applied: float | None = None
    depth_at_send: float = 0.0


@dataclass
class RunArtifacts:
    """A run's record.  Each numeric field is the table its CSV holds."""

    scenario: Scenario
    truth: np.recarray        # TRUTH_DTYPE, one record per step
    detections: Detections
    estimates: np.recarray    # STATE_DTYPE, every segment's states in time order
    alignments: np.ndarray    # (n, 15), ALIGNMENT_HEADER, one row per segment
    telemetry: np.ndarray     # (n, 13), TELEMETRY_HEADER, one row per frame received
    metrics: dict[str, float]
    command_log: list[CommandLogEntry]


def run_scenario(scenario: Scenario, out_dir: str | None = None) -> RunArtifacts:
    scenario.validate()
    s = scenario
    dt = 1.0 / s.sim_rate
    n_steps = int(round(s.duration * s.sim_rate))

    ss = np.random.SeedSequence(s.seed)
    rng_vehicle, rng_camera, rng_clock, rng_down, rng_up = (
        np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(5)
    )

    pose = s.camera_pose()
    frame_times = frame_clock(s.camera, s.duration, rng_clock)
    downlink = Channel(s.channel, rng_down)

    params = s.vehicle
    state = VehicleState(x=s.initial_x, y=s.initial_y, psi=s.initial_psi,
                         fill=params.neutral_fill)

    script = s.command_script  # validate() has checked the order
    script_idx = 0

    started = False
    cmd = ActuatorCommand()  # what the plant is doing, from the commands applied
    pump_until = -1.0

    command_log: list[CommandLogEntry] = []
    step_t = np.arange(n_steps + 1) * dt  # t_k, bit-equal to k * dt
    table = np.empty((n_steps + 1, len(TRUTH_DTYPE)))  # truth: step fills each row but t
    table[:, 0] = step_t

    k = 0
    while k < n_steps:
        t = k * dt

        # ground station sends scripted commands
        while script_idx < len(script) and script[script_idx][0] <= t:
            msg = script[script_idx][1]
            script_idx += 1
            entry = CommandLogEntry(t_sent=t, message=msg, status="lost",
                                    depth_at_send=state.z)
            downlink.send((encode(msg), entry), t, state.z)
            command_log.append(entry)

        # commands arriving at the vehicle, each with its log entry
        for frame, entry in downlink.poll(t):
            msg = decode(frame)
            if not (started or isinstance(msg, StartSequence)):
                entry.status = "ignored"
                continue
            entry.status, entry.t_applied = "applied", t
            if isinstance(msg, StartSequence):
                started = True
            elif isinstance(msg, SetMotors):
                cmd = ActuatorCommand(msg.left / 100.0, msg.right / 100.0, cmd.pump)
            elif isinstance(msg, Pump):  # the wire's pump mode as a fill direction
                pump = {PUMP_MODE_INTAKE: 1, PUMP_MODE_EXPEL: -1}.get(msg.mode, 0)
                cmd = ActuatorCommand(cmd.motor_left, cmd.motor_right, pump)
                pump_until = t + msg.duration_ms / 1000.0

        if cmd.pump and t >= pump_until:
            cmd = ActuatorCommand(cmd.motor_left, cmd.motor_right)

        # The command holds until the next event step: the first k whose t_k
        # passes one of the three tests above, each of the form x <= t_k.
        upcoming = [pump_until] if cmd.pump else []
        if script_idx < len(script):
            upcoming.append(script[script_idx][0])
        if (due := downlink.next_due()) is not None:
            upcoming.append(due)
        nxt = min(int(np.searchsorted(step_t, min(upcoming))), n_steps) if upcoming else n_steps
        state = vehicle_mod.step(state, cmd, dt, params, n=nxt - k, out=table[k:nxt])
        k = nxt

    table[-1, 1:] = [getattr(state, name) for name in TRUTH_DTYPE.names[1:]]
    truth = series(table, TRUTH_DTYPE)
    step_t = step_t[:-1]

    # Nothing in the loop reacts to the camera or the uplink, so both sample
    # the truth table here, at the step where a per-step check would run them.
    # Frame time f: the first step k with f <= t_k + dt/2, or none past the end.
    steps = np.searchsorted(step_t + 0.5 * dt, frame_times)
    steps = steps[steps < n_steps]  # frame times increase, so a prefix
    frames = np.column_stack([frame_times[:len(steps)],
                              *(truth[c][steps] for c in ("x", "y", "z", "psi"))])
    detections = Detections(observe(frames, pose, s.camera, s.tag, rng_camera))

    ticks = telemetry_ticks(step_t, 1.0 / s.telemetry_rate)
    t, z, fill = (truth[c][ticks] for c in ("t", "z", "fill"))
    messages = telemetry_table(fill, z, s.ambient_ir, s.depth_noise_sigma, params, rng_vehicle)
    # one loss draw per tick; a frame sent arrives at the first step with
    # t_k >= its delivery time, and is lost to the record if the run ends first
    sent = rng_up.random(len(ticks)) < link.delivery_probability(z, s.channel)
    arrival = np.searchsorted(step_t, t[sent] + s.channel.latency)
    kept = arrival < n_steps
    telemetry = np.column_stack([step_t[arrival[kept]], messages[sent][kept]])

    segments = tracking.segment_stream(detections, s.pipeline)
    segment_states = [np.empty(0, dtype=STATE_DTYPE)]
    alignment_rows: list[list[float]] = []
    for seg in segments:
        try:
            states, r_oc = tracking.run_pipeline_detailed(seg, s.pipeline)
        except tracking.SegmentTooShort:
            continue
        segment_states.append(states)
        alignment_rows.append(
            _alignment(len(alignment_rows), states, truth, r_oc @ pose.rotation.T))
    estimates = np.concatenate(segment_states).view(np.recarray)
    alignments = rows_table(alignment_rows, ALIGNMENT_HEADER)

    artifacts = RunArtifacts(
        scenario=s,
        truth=truth,
        detections=detections,
        estimates=estimates,
        alignments=alignments,
        telemetry=telemetry,
        metrics=score_run(
            truth, estimates, alignments,
            s.pipeline.smoothing_window, s.pipeline.output_rate,
            len(detections), len(frame_times),
        ),
        command_log=command_log,
    )
    if out_dir is not None:
        write_artifacts(artifacts, out_dir)
    return artifacts


def telemetry_ticks(step_t: np.ndarray, period: float) -> np.ndarray:
    """The step of each telemetry tick: tick ``j``, due at ``j`` periods
    (summed one period at a time), goes at the first step after tick
    ``j - 1`` with ``t_k + 1e-12 >= due``, and ticks past the last step
    are dropped.

    That is ``k_j = max(k_{j-1} + 1, s_j)`` with ``s_j`` the first step
    the due passes, so ``k_j - j`` is the running maximum of ``s_i - i``:
    one ``searchsorted`` and one ``maximum.accumulate`` over the dues.

    Only dues ``0 .. m - 1`` are built, as the later ones send no tick.
    ``k_j >= j``, so ``m = n + 1`` would do for ``n`` steps.  And a due past
    ``a = step_t[-1] + 1e-12`` passes no step, so, as the dues never
    decrease, ``m`` is enough once due ``m`` is past ``a``.  Summed with one
    rounding per add, each at most ``u = 2**-53`` relative, due ``m`` is at
    least ``m * period * (1 - u)**m``.  ``m = int(x) + 1`` exceeds ``x``,
    ``a / period`` times ``1 + 2 (n + 4) u`` with two roundings, so with
    ``m <= n + 1`` due ``m`` is at least ``a`` times
    ``(1 + 2 (n + 4) u) (1 - u)**(n + 3) > 1``, for any ``n`` below 2**50."""
    n = len(step_t)
    after = step_t + 1e-12
    last = after[-1] if n else 0.0
    m = min(n, int(last / period * (1 + (n + 4) * 2.0**-52))) + 1
    due = np.full(m, period)
    due[0] = 0.0
    j = np.arange(m)
    k = j + np.maximum.accumulate(np.searchsorted(after, np.add.accumulate(due)) - j)
    return k[k < n]


def telemetry_table(fill, z, ambient, noise_sigma, params, rng) -> np.ndarray:
    """The ``Telemetry`` message of each tick as an ``(n, 12)`` int row
    (``TELEMETRY_HEADER`` after ``t``), from the columns of its true syringe
    fill and depth: each sensor function runs once, over every tick,
    ``rng`` draws one depth noise sample per tick, and each column is
    clipped to its ``(lo, hi)`` in ``link._WIRE``."""
    readings = ir_response(fill, ambient, params)
    quality = signal_quality(readings)
    valid = quality != "none"
    fill_tenth = np.zeros(len(readings))
    fill_tenth[valid] = np.rint(estimate_plunger(readings[valid], params) * 10)
    flags = np.where(valid, link.FLAG_FILL_VALID, 0) | np.where(
        quality == "degraded", link.FLAG_IR_DEGRADED, 0)
    depth_mm = np.rint(depth_reading(z, noise_sigma, rng) * 1000)
    lo, hi = np.array([ends for _, *ends in link._WIRE[link.Telemetry][2]]).T
    return np.clip(np.column_stack([depth_mm, np.rint(readings * 255), fill_tenth, flags]),
                   lo, hi).astype(int)


def _alignment(
    index: int, states: np.recarray, truth: np.recarray, rot: np.ndarray
) -> list[float]:
    """The ``ALIGNMENT_HEADER`` row of one segment's states: truth at its
    first state, whose time is its first detection's, is the origin, and
    ``rot``, the fitted camera-to-world basis composed with the camera
    extrinsics, is the rotation."""
    origin = [np.interp(states.timestamp[0], truth.t, truth[name]) for name in ("x", "y", "z")]
    return [index, states.timestamp[0], states.timestamp[-1], *origin, *rot.reshape(-1)]


def score_run(
    truth: np.recarray,
    estimates: np.recarray,
    alignments: np.ndarray,
    smoothing_window: int,
    output_rate: float,
    n_detections: int,
    n_frames: int,
) -> dict[str, float]:
    """Score a run: RMSE over every segment's residuals, pooled, plus counters.

    ``estimates`` holds every segment's states in time order and
    ``alignments`` one ``ALIGNMENT_HEADER`` row per segment; the states are
    split after each row's ``t_end``, and the row's rotation and origin,
    passed to ``residuals`` as they are, map truth into that segment's
    frame.  ``run_scenario`` scores its tables here and
    ``recompute_metrics`` the same tables read from a run directory.
    """
    ends = np.searchsorted(estimates.timestamp, alignments[:, 2], side="right")
    out: dict[str, float] = {}
    pooled: dict[str, list[np.ndarray]] = {}
    turns = 0
    w = smoothing_window
    for a, b, row in zip([0, *ends], ends, alignments):
        try:
            res = residuals(truth, estimates[a:b], row[6:15].reshape(3, 3), row[3:6], w,
                            output_rate)
        except metrics_mod.NoOverlap:
            continue
        for key, val in res.items():
            pooled.setdefault(key, []).append(val)
        # yaw-rate turns over the samples compared, never across a segment gap
        turns += count_sign_changes(estimates.r[a + w : b - w], R_HYSTERESIS)
    if pooled:
        merged = {key: np.concatenate(vals) for key, vals in pooled.items()}
        out["rmse_xy"] = float(np.sqrt(np.mean(merged["x"] ** 2 + merged["y"] ** 2)))
        out["rmse_psi"] = float(np.sqrt(np.mean(merged["psi"] ** 2)))
        out["rmse_u"] = float(np.sqrt(np.mean(merged["u"] ** 2)))
        out["rmse_v"] = float(np.sqrt(np.mean(merged["v"] ** 2)))
        out["rmse_r"] = float(np.sqrt(np.mean(merged["r"] ** 2)))
        out["mean_v"] = float(np.mean(merged["v"]))
        out["n_compared"] = float(merged["t"].size)

    out["n_segments"] = float(len(alignments))
    out["n_detections"] = float(n_detections)
    out["n_frames"] = float(n_frames)
    out["detection_coverage"] = n_detections / n_frames if n_frames else 0.0
    out["path_length_truth"] = path_length(truth.x, truth.y)
    out["max_depth_truth"] = float(np.max(truth.z))
    out["depth_reversals_truth"] = float(count_reversals(truth.z))
    if len(alignments):
        out["r_sign_changes_est"] = float(turns)
    return out


# ---------------------------------------------------------------------------
# artifact persistence


def write_artifacts(art: RunArtifacts, out_dir: str) -> None:
    def path(*names):
        return os.path.join(out_dir, *names)

    os.makedirs(path("plotdata"), exist_ok=True)
    estimates, telemetry = art.estimates, art.telemetry

    write_table(path("truth.csv"), TRUTH_DTYPE.names, art.truth)
    tracking.write_detections_csv(path("detections.csv"), art.detections)
    tracking.write_states_csv(path("estimates.csv"), estimates)
    write_rows(
        path("metrics.csv"), ["name", "value"],
        ([name, fmt(val)] for name, val in sorted(art.metrics.items())),
    )
    write_rows(
        path("meta.csv"), ["key", "value"],
        [
            ["scenario", art.scenario.name],
            ["seed", str(art.scenario.seed)],
            ["duration", fmt(art.scenario.duration)],
            ["n_frames", "%d" % art.metrics["n_frames"]],
            ["n_detections", str(len(art.detections))],
            ["smoothing_window", str(art.scenario.pipeline.smoothing_window)],
            ["output_rate", fmt(art.scenario.pipeline.output_rate)],
            ["plot_frame", art.scenario.plot_frame],
        ],
    )
    write_table(path("alignments.csv"), ALIGNMENT_HEADER, art.alignments)
    write_rows(
        path("command_log.csv"),
        ["t_sent", "message", "status", "t_applied", "depth_at_send"],
        (
            [fmt(e.t_sent), repr(e.message), e.status,
             "" if e.t_applied is None else fmt(e.t_applied), fmt(e.depth_at_send)]
            for e in art.command_log
        ),
    )
    write_table(path("telemetry.csv"), TELEMETRY_HEADER, telemetry)

    sign = -1.0 if art.scenario.plot_frame == "paper" else 1.0
    for name, factor in (("u", 1.0), ("v", 1.0), ("psi", sign), ("r", sign)):
        write_table(path("plotdata", "%s.csv" % name), ["t", name],
                    np.column_stack([estimates.timestamp, factor * estimates[name]]))
    write_table(path("plotdata", "track_xy.csv"), ["x", "y"],
                np.column_stack([estimates.x, estimates.y]))
    write_table(path("plotdata", "depth.csv"), ["t", "depth_m"],
                np.column_stack([telemetry[:, 0], telemetry[:, 1] / 1000.0]))
    write_table(path("plotdata", "ir.csv"), ["t", *("ch%d" % i for i in range(9))],
                np.column_stack([telemetry[:, 0], telemetry[:, 2:11] / 255.0]))


def recompute_metrics(run_dir: str) -> dict[str, float]:
    """Re-score a run directory: ``score_run`` on the tables it holds, once
    each ``meta.csv`` key it reads is there once with a value a run writes,
    the run's ``duration`` leaves room for its smoothing window
    (``window_error``, as ``Scenario.validate`` checks), truth has rows,
    and the times of truth and estimates increase."""
    def path(name):
        return os.path.join(run_dir, name)

    def refuse(name, what, *args):
        return tracking.TrackingError("%s: %s" % (path(name), what % args))

    with open(path("meta.csv"), newline="") as fh:
        rows = list(csv.reader(fh)) or [[]]
    meta = {}  # key -> (line, value), the header's too
    for line, row in enumerate(rows, 1):
        if len(row) != 2 or line == 1 and row != ["key", "value"]:
            raise refuse("meta.csv", "line %d is %r, not %s", line, ",".join(row),
                         "key,value" if line == 1 else "two cells")
        if row[0] in meta:
            raise refuse("meta.csv", "line %d repeats %r of line %d", line, row[0], meta[row[0]][0])
        meta[row[0]] = line, row[1]
    domains = {key: domain for domain, keys in _DOMAINS.items() for key in keys}
    settings = {}  # score_run's keyword arguments, and the duration
    for key, kind in (("smoothing_window", int), ("output_rate", float),
                      ("n_frames", int), ("n_detections", int), ("duration", float)):
        if key not in meta:
            raise refuse("meta.csv", "%r is missing", key)
        line, text = meta[key]
        # the counts have no setting: whole numbers, no more detections than frames
        domain = domains.get(key) or domains.get("pipeline." + key) or "an int in [0, %s" % (
            "%d]" % settings["n_frames"] if "n_frames" in settings else "inf)")
        try:
            settings[key] = kind(text)
        except ValueError:
            settings[key] = math.nan
        if not _in_domain(domain, settings[key]):
            raise refuse("meta.csv", "%r is %r on line %d, not %s", key, text, line, domain)
    duration = settings.pop("duration")
    if why := window_error(settings["smoothing_window"], duration, settings["output_rate"]):
        line, text = meta["smoothing_window"]
        raise refuse("meta.csv", "'smoothing_window' is %r on line %d: %s", text, line, why)

    truth = series(read_table(path("truth.csv"), TRUTH_DTYPE.names), TRUTH_DTYPE)
    estimates = tracking.read_states_csv(path("estimates.csv"))
    if not len(truth):
        raise refuse("truth.csv", "no rows")
    for name, t in (("truth.csv", truth.t), ("estimates.csv", estimates.timestamp)):
        if (stuck := np.flatnonzero(np.diff(t) <= 0)).size:  # np.interp needs increasing times
            i = stuck[0] + 1
            raise refuse(name, "line %d: time %s does not increase", i + 2, fmt(t[i]))
    return score_run(truth, estimates, read_table(path("alignments.csv"), ALIGNMENT_HEADER),
                     **settings)
