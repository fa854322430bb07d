"""Deterministic scenario execution: vehicle + camera + link + tracking.

One scenario is a single-threaded fixed-step loop.  Ground-station
commands travel through the lossy downlink (a submerged vehicle can miss
them), telemetry returns over the uplink, the overhead camera samples on
its own jittered clock, and the detection stream is run through the
tracking pipeline after the loop finishes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import link, metrics as metrics_mod, tracking, vehicle as vehicle_mod
from .camera import frame_clock, observe
from .link import (
    Channel,
    Pump,
    SetMotors,
    StartSequence,
    Telemetry,
    decode,
    encode,
)
from .metrics import (
    TRUTH_DTYPE,
    FrameAlignment,
    count_reversals,
    count_sign_changes,
    metrics_from_residuals,
    path_length,
    residuals,
    truth_series,
)
from .scenarios import Scenario
from .tracking import (STATE_DTYPE, Detections, PipelineDiagnostics, fmt, read_table,
                       rows_table, write_rows, write_table)
from .vehicle import (
    ActuatorCommand,
    PUMP_OFF,
    PUMP_EXPEL,
    PUMP_INTAKE,
    VehicleState,
    depth_reading,
    estimate_plunger,
    ir_response,
    signal_quality,
)

_PUMP_MODE_NAMES = {
    link.PUMP_MODE_OFF: PUMP_OFF,
    link.PUMP_MODE_INTAKE: PUMP_INTAKE,
    link.PUMP_MODE_EXPEL: PUMP_EXPEL,
}

R_HYSTERESIS = 0.05  # rad/s, for zig-zag turn counting


@dataclass
class CommandLogEntry:
    t_sent: float
    message: object
    status: str           # 'applied', 'lost', or 'ignored'
    t_applied: float | None = None
    depth_at_send: float = 0.0


@dataclass
class RunArtifacts:
    scenario: Scenario
    truth: np.recarray                     # TRUTH_DTYPE, one record per step
    detections: Detections
    estimate_segments: list[np.recarray]   # one state series per segment
    alignments: list[FrameAlignment]
    metrics: dict[str, float]
    command_log: list[CommandLogEntry]
    telemetry_log: list[tuple[float, Telemetry]]
    n_frames: int

    @property
    def estimates(self) -> np.recarray:
        """Every segment's states, in time order, as one state series."""
        empty = np.empty(0, dtype=STATE_DTYPE)
        return np.concatenate([empty, *self.estimate_segments]).view(np.recarray)


def run_scenario(scenario: Scenario, out_dir: str | None = None) -> RunArtifacts:
    scenario.validate()
    s = scenario
    dt = 1.0 / s.sim_rate
    n_steps = int(round(s.duration * s.sim_rate))

    ss = np.random.SeedSequence(s.seed)
    rng_vehicle, rng_camera, rng_clock, rng_down, rng_up = (
        np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(5)
    )

    cam = s.build_camera()
    frame_times = frame_clock(cam, s.duration, rng_clock)
    downlink = Channel(s.channel, rng_down)
    uplink = Channel(s.channel, rng_up)

    params = s.vehicle_params
    state = VehicleState(x=s.initial_x, y=s.initial_y, psi=s.initial_psi,
                         syringe_fill=params.neutral_fill)

    script = s.command_script  # validate() has checked the order
    script_idx = 0

    started = False
    motor_left = 0.0
    motor_right = 0.0
    pump_mode = PUMP_OFF
    pump_until = -1.0

    command_log: list[CommandLogEntry] = []
    telemetry_log: list[tuple[float, Telemetry]] = []
    detection_rows: list[tuple] = []
    truth_rows: list[tuple] = []
    frame_idx = 0
    telemetry_period = 1.0 / s.telemetry_rate
    next_telemetry = 0.0
    seq = 0
    inflight: dict[int, CommandLogEntry] = {}

    for k in range(n_steps + 1):
        t = k * dt
        truth_rows.append(
            (t, state.x, state.y, state.z, state.psi, state.u, state.v,
             state.w, state.r, state.syringe_fill)
        )
        if k == n_steps:
            break

        # overhead camera frames due at this step
        while frame_idx < len(frame_times) and frame_times[frame_idx] <= t + 0.5 * dt:
            pose = observe(state, cam, s.tag, rng_camera)
            if pose is not None:
                detection_rows.append((frame_times[frame_idx], s.tag.tag_id,
                                       *pose.translation, *pose.rotation.flat))
            frame_idx += 1

        # ground station sends scripted commands
        while script_idx < len(script) and script[script_idx][0] <= t:
            t_cmd, msg = script[script_idx]
            script_idx += 1
            entry = CommandLogEntry(t_sent=t, message=msg, status="lost",
                                    depth_at_send=state.z)
            frame = encode(msg) + seq.to_bytes(4, "big")  # trailer tags the log entry
            if downlink.send(frame, t, state.z):
                entry.status = "pending"
                inflight[seq] = entry
            command_log.append(entry)
            seq += 1

        # commands arriving at the vehicle
        for frame in downlink.poll(t):
            tag_id = int.from_bytes(frame[-4:], "big")
            msg = decode(frame[:-4])
            entry = inflight.pop(tag_id, None)
            applied = True
            if isinstance(msg, StartSequence):
                started = True
            elif not started:
                applied = False
            elif isinstance(msg, SetMotors):
                motor_left = msg.left / 100.0
                motor_right = msg.right / 100.0
            elif isinstance(msg, Pump):
                pump_mode = _PUMP_MODE_NAMES[msg.mode]
                pump_until = t + msg.duration_ms / 1000.0
            if entry is not None:
                entry.status = "applied" if applied else "ignored"
                entry.t_applied = t if applied else None

        # vehicle telemetry uplink
        if t + 1e-12 >= next_telemetry:
            next_telemetry += telemetry_period
            reading = ir_response(state.syringe_fill, s.ambient_ir, params)
            flags = 0
            fill_tenth = 0
            quality = signal_quality(reading)
            if quality != "none":
                est = estimate_plunger(reading, params)
                fill_tenth = max(0, min(255, round(est * 10)))
                flags |= link.FLAG_FILL_VALID
            if quality == "degraded":
                flags |= link.FLAG_IR_DEGRADED
            depth = depth_reading(state, s.depth_noise_sigma, rng_vehicle)
            msg = Telemetry(
                depth_mm=max(0, min(0xFFFF, round(depth * 1000))),
                ir=tuple(max(0, min(255, round(c * 255))) for c in reading.channels),
                fill_est_tenth_ml=fill_tenth,
                flags=flags,
            )
            uplink.send(encode(msg), t, state.z)
        for frame in uplink.poll(t):
            telemetry_log.append((t, decode(frame)))

        if pump_mode != PUMP_OFF and t >= pump_until:
            pump_mode = PUMP_OFF
        cmd = ActuatorCommand(motor_left, motor_right, pump_mode)
        state = vehicle_mod.step(state, cmd, dt, params)

    for entry in inflight.values():
        entry.status = "lost"  # still in the air when the run ended

    truth = truth_series(truth_rows)
    detections = Detections.from_rows(detection_rows)

    segments = tracking.segment_stream(detections, s.pipeline) if detections else []
    estimate_segments: list[np.recarray] = []
    alignments: list[FrameAlignment] = []
    for seg in segments:
        try:
            states, diag = tracking.run_pipeline_detailed(seg, s.pipeline)
        except tracking.SegmentTooShort:
            continue
        estimate_segments.append(states)
        alignments.append(_alignment(truth, diag, cam.pose.rotation))

    run_metrics = score_run(
        truth, estimate_segments, alignments,
        s.pipeline.smoothing_window, s.pipeline.output_rate,
        len(detections), len(frame_times),
    )

    artifacts = RunArtifacts(
        scenario=s,
        truth=truth,
        detections=detections,
        estimate_segments=estimate_segments,
        alignments=alignments,
        metrics=run_metrics,
        command_log=command_log,
        telemetry_log=telemetry_log,
        n_frames=len(frame_times),
    )
    if out_dir is not None:
        write_artifacts(artifacts, out_dir)
    return artifacts


def _alignment(
    truth: np.recarray, diag: PipelineDiagnostics, cam_rotation: np.ndarray
) -> FrameAlignment:
    rot = diag.rotation @ cam_rotation.T
    t0 = diag.first_timestamp
    origin = np.array(
        [np.interp(t0, truth.t, truth[name]) for name in ("x", "y", "z")]
    )
    return FrameAlignment(rotation=rot, origin_xyz=origin)


def score_run(
    truth: np.recarray,
    segments: list[np.recarray],
    alignments: list[FrameAlignment],
    smoothing_window: int,
    output_rate: float,
    n_detections: int,
    n_frames: int,
) -> dict[str, float]:
    """Score a run: RMSE over every segment's residuals, pooled, plus counters.

    ``segments`` are the pipeline's state series, one per detection segment,
    and ``alignments`` map truth into each one's frame.  ``run_scenario``
    scores its in-memory segments here and ``recompute_metrics`` the ones
    it loads from a run directory, so both give the same keys.
    """
    out: dict[str, float] = {}
    pooled: dict[str, list[np.ndarray]] = {}
    for states, align in zip(segments, alignments):
        try:
            res = residuals(truth, states, align, smoothing_window, output_rate)
        except metrics_mod.NoOverlap:
            continue
        for key, val in res.items():
            pooled.setdefault(key, []).append(val)
    if pooled:
        merged = {key: np.concatenate(vals) for key, vals in pooled.items()}
        out.update(metrics_from_residuals(merged))

    out["n_segments"] = float(len(segments))
    out["n_detections"] = float(n_detections)
    out["n_frames"] = float(n_frames)
    out["detection_coverage"] = n_detections / n_frames if n_frames else 0.0
    out["path_length_truth"] = path_length(truth.x, truth.y)
    out["max_depth_truth"] = float(np.max(truth.z))
    out["depth_reversals_truth"] = float(count_reversals(truth.z))
    if segments:
        r = np.concatenate([states.r for states in segments])
        out["r_sign_changes_est"] = float(count_sign_changes(r.tolist(), R_HYSTERESIS))
    return out


# ---------------------------------------------------------------------------
# artifact persistence

ALIGNMENT_HEADER = ["segment", "t_start", "t_end", "ox", "oy", "oz",
                    "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33"]
TELEMETRY_HEADER = ["t", "depth_mm", *("ir%d" % i for i in range(9)),
                    "fill_est_tenth_ml", "flags"]


def write_artifacts(art: RunArtifacts, out_dir: str) -> None:
    def path(*names):
        return os.path.join(out_dir, *names)

    os.makedirs(path("plotdata"), exist_ok=True)
    truth = art.truth
    estimates = art.estimates

    write_table(path("truth.csv"), TRUTH_DTYPE.names,
                (truth[name] for name in TRUTH_DTYPE.names))
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
            ["n_frames", str(art.n_frames)],
            ["smoothing_window", str(art.scenario.pipeline.smoothing_window)],
            ["output_rate", fmt(art.scenario.pipeline.output_rate)],
            ["plot_frame", art.scenario.plot_frame],
        ],
    )
    alignments = rows_table(
        [[i, states.timestamp[0], states.timestamp[-1], *align.origin_xyz,
          *align.rotation.reshape(-1)]
         for i, (states, align) in enumerate(zip(art.estimate_segments, art.alignments))],
        ALIGNMENT_HEADER,
    )
    write_table(path("alignments.csv"), ALIGNMENT_HEADER, alignments.T)
    write_rows(
        path("command_log.csv"),
        ["t_sent", "message", "status", "t_applied", "depth_at_send"],
        (
            [fmt(e.t_sent), repr(e.message), e.status,
             "" if e.t_applied is None else fmt(e.t_applied), fmt(e.depth_at_send)]
            for e in art.command_log
        ),
    )
    telemetry = rows_table(
        [[t, msg.depth_mm, *msg.ir, msg.fill_est_tenth_ml, msg.flags]
         for t, msg in art.telemetry_log],
        TELEMETRY_HEADER,
    )
    write_table(path("telemetry.csv"), TELEMETRY_HEADER, telemetry.T)

    sign = -1.0 if art.scenario.plot_frame == "paper" else 1.0
    for name in ("u", "v", "psi", "r"):
        factor = sign if name in ("psi", "r") else 1.0
        write_table(path("plotdata", "%s.csv" % name), ["t", name],
                    [estimates.timestamp, factor * estimates[name]])
    write_table(path("plotdata", "track_xy.csv"), ["x", "y"],
                [estimates.x, estimates.y])
    t_tel = telemetry[:, 0]
    write_table(path("plotdata", "depth.csv"), ["t", "depth_m"],
                [t_tel, telemetry[:, 1] / 1000.0])
    write_table(path("plotdata", "ir.csv"), ["t", *("ch%d" % i for i in range(9))],
                [t_tel, *(telemetry[:, 2:11] / 255.0).T])


def recompute_metrics(run_dir: str) -> dict[str, float]:
    """Re-score a run directory's CSV artifacts with ``score_run``.

    ``estimates.csv`` holds every segment's states in time order; it is
    split after each segment's ``t_end`` in ``alignments.csv``.
    """
    def path(name):
        return os.path.join(run_dir, name)

    with open(path("meta.csv"), newline="") as fh:
        meta = dict(list(csv.reader(fh))[1:])
    n_detections = len(read_table(path("detections.csv"), tracking.DETECTION_CSV_HEADER))
    rows = read_table(path("alignments.csv"), ALIGNMENT_HEADER)
    truth = truth_series(read_table(path("truth.csv"), TRUTH_DTYPE.names))
    estimates = tracking.read_states_csv(path("estimates.csv"))

    ends = np.searchsorted(estimates.timestamp, rows[:, 2], side="right")
    segments = [estimates[a:b] for a, b in zip([0, *ends], ends)]
    alignments = [FrameAlignment(row[6:15].reshape(3, 3), row[3:6]) for row in rows]
    return score_run(
        truth, segments, alignments,
        int(meta["smoothing_window"]), float(meta["output_rate"]),
        n_detections, int(meta["n_frames"]),
    )
