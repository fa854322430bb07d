#!/usr/bin/env python3
"""tanklab benchmark: the ``surface``, ``dive`` and ``replay`` workloads.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  One process and one thread drive a closed loop: each
op starts when the previous one ends.  Every scenario seed is derived from
``--seed``; tanklab only receives the resulting ``Scenario`` objects and run
directories.

``--trace 0`` times untraced ops for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes over the
workload's ops for ``--seconds`` and prints the per-layer metrics, counted
per pass (see ``tracer.py``).  Human-readable lines come first; the last
line is one JSON object for machines.  Exit status 0 means the run finished,
whether or not every op passed its checks (``correct``, ``failed``); any
other status means it could not run, and no result line is printed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("surface", "dive", "replay")
SURFACE = ("line", "circle", "zigzag")
DERIVED_SEEDS = 4
SETUP_REPS = 9
METRICS_RTOL = 1e-8
ESTIMATES_ATOL = 1e-8
P90_MIN_BEYOND = 10
SETUP_TIMEOUT_S = 150

# Set-up runs in a fresh interpreter, so that the import of tanklab and of
# everything it imports is paid again on each repetition.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tanklab import runner, scenarios
for name, seed, out_dir in json.loads(sys.argv[2]):
    s = scenarios.get_scenario(name)
    s.seed = seed
    if out_dir is not None:
        runner.run_scenario(s, out_dir=out_dir)
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


class OpFailed(Exception):
    """An op ran but its output failed a check."""


@dataclass
class Op:
    name: str           # built-in scenario name
    seed: int
    out_dir: Path
    scenario: object = None
    sim_s: float = 0.0

    @property
    def key(self) -> str:
        return "%s-%d" % (self.name, self.seed)


@dataclass
class Run:
    """State of one benchmark run: its ops and what they produced."""

    workload: str
    groups: list[list[Op]]
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # first bytes seen per op
    missing_keys: set[str] = field(default_factory=set)
    tk: object = None             # the tanklab package, once imported
    summary: dict = field(default_factory=dict)   # op time quantiles
    passes: int = 0               # traced passes
    absent: list[str] = field(default_factory=list)
    unreached: list[str] = field(default_factory=list)
    check_errors: int = 0         # failures of checks that are not ops
    setup_times: list[float] = field(default_factory=list)

    @property
    def ops(self) -> list[Op]:
        return [op for group in self.groups for op in group]


def derived_seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random("%s:%d" % (workload, seed))
    return [rng.randrange(2**31) for _ in range(n)]


def plan(workload: str, seed: int, work_dir: Path) -> list[list[Op]]:
    """Ops grouped so that whole groups keep the workload's op mix fixed.

    ``surface`` groups one seed of each surface scenario and ``dive`` is one
    ``pump_test`` per group.  ``replay`` is a single group of five run
    directories, three surface and two ``pump_test``, so that its median op
    lies inside one scenario's cluster of op times, not between two.
    """
    def op(name, s):
        return Op(name, s, work_dir / ("%s-%d" % (name, s)))

    if workload == "surface":
        return [[op(n, s) for n in SURFACE] for s in derived_seeds(workload, seed, DERIVED_SEEDS)]
    if workload == "dive":
        return [[op("pump_test", s)] for s in derived_seeds(workload, seed, DERIVED_SEEDS)]
    if workload == "replay":
        a, b = derived_seeds(workload, seed, 2)
        return [[op(n, a) for n in SURFACE] + [op("pump_test", a), op("pump_test", b)]]
    raise BenchError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def setup(run: Run, suffix: str = "") -> None:
    """One set-up in a fresh interpreter, its wall time appended to
    ``run.setup_times``: import of tanklab plus scenario construction, and
    for ``replay`` writing its run directories.  With ``suffix`` they are
    written beside the op directories and removed afterwards."""
    dirs = [Path(str(op.out_dir) + suffix) for op in run.ops]
    writes = run.workload == "replay"
    spec = json.dumps([[op.name, op.seed, str(d) if writes else None] for op, d in zip(run.ops, dirs)])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), spec],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
    finally:
        if suffix:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("set-up failed:\n" + proc.stderr.strip())
    run.setup_times.append(float(proc.stdout.strip().splitlines()[-1]))


def load_tanklab():
    sys.path.insert(0, str(SRC))
    import tanklab

    if Path(tanklab.__file__).resolve() != (SRC / "tanklab" / "__init__.py").resolve():
        raise BenchError("imported tanklab from %s, not from %s" % (tanklab.__file__, SRC))
    return tanklab


def dir_digest(run_dir: Path) -> str:
    """sha256 over every CSV in a run directory, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(run_dir.rglob("*.csv")):
        data = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.relative_to(run_dir).as_posix().encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def workload_digest(run: Run) -> str:
    h = hashlib.sha256()
    for op in run.ops:
        h.update(b"%s\0%s\0" % (op.key.encode(), run.digests.get(op.key, "none").encode()))
    return h.hexdigest()


def read_metrics_csv(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: float(value) for name, value in rows[1:]}


# ---------------------------------------------------------------------------
# ops


def simulate(run: Run, op: Op) -> tuple[float, object]:
    """``surface`` / ``dive`` op: what ``tanklab run`` does, in-process."""
    clock = time.perf_counter
    t0 = clock()
    art = run.tk.runner.run_scenario(op.scenario, out_dir=str(op.out_dir))
    wall = clock() - t0
    if not any(key.startswith("rmse_") for key in art.metrics):
        raise OpFailed("no rmse_* metric: every segment was skipped")
    digest = dir_digest(op.out_dir)
    first = run.digests.setdefault(op.key, digest)
    if digest != first:
        raise OpFailed("wrote different CSV bytes than the first run of this scenario and seed")
    return wall, art


def replay(run: Run, op: Op) -> tuple[float, object]:
    """``replay`` op: re-score a run directory, then re-estimate offline."""
    tk = run.tk
    clock = time.perf_counter
    cfg = op.scenario.pipeline
    t0 = clock()
    got = tk.runner.recompute_metrics(str(op.out_dir))
    dets = tk.tracking.read_detections_csv(str(op.out_dir / "detections.csv"))
    states = []
    if dets:
        for seg in tk.tracking.segment_stream(dets, cfg):
            try:
                seg_states, _ = tk.tracking.run_pipeline_detailed(seg, cfg)
            except tk.tracking.SegmentTooShort:
                continue
            states.extend(seg_states)
    wall = clock() - t0

    expected = read_metrics_csv(op.out_dir / "metrics.csv")
    run.missing_keys |= set(expected) - set(got)
    for key in sorted(set(expected) & set(got)):
        if not math.isclose(got[key], expected[key], rel_tol=METRICS_RTOL, abs_tol=0.0):
            raise OpFailed("recompute_metrics %s = %r, metrics.csv has %r"
                           % (key, got[key], expected[key]))
    want = np.loadtxt(op.out_dir / "estimates.csv", delimiter=",", skiprows=1, ndmin=2)
    have = np.array([(s.timestamp, s.x, s.y, s.psi, s.u, s.v, s.r) for s in states])
    have = have.reshape(-1, 7)
    if have.shape != want.shape:
        raise OpFailed("offline re-estimation gave %d states, estimates.csv has %d"
                       % (have.shape[0], want.shape[0]))
    worst = float(np.max(np.abs(have - want), initial=0.0))
    if worst > ESTIMATES_ATOL:
        raise OpFailed("offline re-estimation differs from estimates.csv by %.3g" % worst)
    return wall, None


def note_error(run: Run, what: str, exc: Exception) -> None:
    if len(run.errors) < 5:
        run.errors.append("%s: %s: %s" % (what, type(exc).__name__, exc))


def note_missing_keys(run: Run, op: Op) -> None:
    """Record the in-run metric keys that ``recompute_metrics`` leaves out of
    a run directory; not an op, so it is not counted in ``attempted``."""
    try:
        written = read_metrics_csv(op.out_dir / "metrics.csv")
        run.missing_keys |= set(written) - set(run.tk.runner.recompute_metrics(str(op.out_dir)))
    except Exception as exc:  # the program failed; the result must not read correct
        run.check_errors += 1
        note_error(run, "missing-keys check on " + op.key, exc)


def attempt(run: Run, op: Op):
    """Run one op and its checks; returns (wall_s, artifacts), or None if it failed."""
    run.attempted += 1
    do = replay if run.workload == "replay" else simulate
    try:
        return do(run, op)
    except Exception as exc:  # any failure of the program or a check is a failed op
        run.failed += 1
        note_error(run, op.key, exc)
        return None


# ---------------------------------------------------------------------------
# the two kinds of run


def prepare(workload: str, seed: int, work_dir: Path) -> Run:
    if not (SRC / "tanklab" / "__init__.py").is_file():
        raise BenchError("tanklab sources not found under %s" % SRC)
    run = Run(workload, plan(workload, seed, work_dir))
    setup(run)
    run.tk = load_tanklab()
    for op in run.ops:
        op.scenario = run.tk.scenarios.get_scenario(op.name)
        op.scenario.seed = op.seed
        op.sim_s = op.scenario.duration
    if workload == "replay":
        for op in run.ops:
            run.digests[op.key] = dir_digest(op.out_dir)
    return run


def warm_up(run: Run) -> None:
    """One untimed pass over the first group.  ``replay`` ops record the keys
    ``recompute_metrics`` leaves out; elsewhere a separate check does."""
    for op in run.groups[0]:
        if attempt(run, op) is not None and run.workload != "replay":
            note_missing_keys(run, op)


def quantile_summary(walls: list[float]) -> dict:
    ms = [w * 1e3 for w in walls]
    out = {"n": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 2:
        p90 = statistics.quantiles(ms, n=10)[8]
        beyond = sum(1 for m in ms if m > p90)
        if beyond >= P90_MIN_BEYOND:
            out["p90"], out["beyond_p90"] = p90, beyond
    return out


def end_to_end(run: Run, seconds: float, setup_reps: int = SETUP_REPS) -> dict:
    """Untraced closed loop over whole groups for ``seconds``, with at least
    one pass over every group.

    Set-up is repeated until ``setup_reps`` have run, spaced evenly through
    the loop: back to back they would share one phase of host speed, and
    their median would follow it.  ``setup_s`` is their median.

    Each op repeats identical work, so its fastest run is its cost with the
    least host interference: host speed on a shared 2-vCPU machine drifts by
    half or more for seconds at a time, which moves the median of all op
    times by more than the bounds.  ``op_ms_p50`` is therefore the median
    over distinct ops of each op's fastest run, and ``sim_s_per_s`` divides
    their simulated seconds by the sum of those fastest runs.  The median and
    p90 over all timed ops are printed beside them.
    """
    walls, best = [], {}
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < len(run.groups) or clock() - start < seconds:
        for op in run.groups[i % len(run.groups)]:
            res = attempt(run, op)
            if res is not None:
                walls.append(res[0])
                best[op.key] = min(res[0], best.get(op.key, math.inf))
        i += 1
        done = len(run.setup_times)
        if done < setup_reps and done * seconds <= setup_reps * (clock() - start):
            setup(run, ".setup")
    while len(run.setup_times) < setup_reps:
        setup(run, ".setup")
    # the tracer must not change what the program writes or computes
    with Tracer().installed():
        attempt(run, run.groups[0][0])
    if not walls:
        raise BenchError("every timed op failed")
    q = quantile_summary(walls)
    q["distinct"] = len(best)
    run.summary = q
    sim = {op.key: op.sim_s for op in run.ops}
    return {
        "op_ms_p50": (statistics.median(best.values()) * 1e3, "ms"),
        "sim_s_per_s": (sum(sim[k] for k in best) / sum(best.values()), "s/s"),
        "setup_s": (statistics.median(run.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _sum(tr: Tracer, names, attr="self_s"):
    present = tr.present(names)
    if not present:
        return None
    return sum(getattr(tr.stats[n], attr) for n in present)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


SENSORS = ("vehicle.ir_response", "vehicle.estimate_plunger",
           "vehicle.signal_quality", "vehicle.depth_reading")
LINK = ("link.send", "link.poll", "link.encode", "link.decode")
CSV_WRITE = ("tracking.write_detections_csv", "tracking.write_states_csv")
CSV_READ = ("tracking.read_detections_csv", "tracking.read_states_csv")

# Targets that every traced pass of a workload calls at this commit.  A
# present target that a pass never calls has most likely lost its caller
# (the caller now looks the function up elsewhere), so it is reported as
# absent rather than as 0.  ``frames.body_velocities`` is left out: ROADMAP
# item 2 takes its calls to 0 on purpose.
SIMULATE_REACHES = (
    "vehicle.step", *SENSORS, "camera.observe", *LINK,
    "runner.run_scenario", "runner.write_artifacts", *CSV_WRITE,
    "metrics.residuals", "metrics.count_reversals",
    "tracking.segment_stream", "tracking.run_pipeline_detailed",
)
MUST_REACH = {
    "surface": SIMULATE_REACHES,
    "dive": SIMULATE_REACHES,
    "replay": ("runner.recompute_metrics", *CSV_READ, "tracking.segment_stream",
               "tracking.run_pipeline_detailed", "metrics.residuals"),
}


def layer_metrics(tr: Tracer, extra: dict) -> dict:
    """Per-layer metrics; ``None`` marks one whose targets are all absent."""
    s = tr.stats

    def count(name, key):
        return None if name in tr.absent else s[name].counts[key]

    def calls(name):
        return _sum(tr, [name], "calls")

    def self_s(*names):
        return _sum(tr, names)

    return {
        "vehicle.step.calls": (calls("vehicle.step"), "count"),
        "vehicle.step.self_s": (self_s("vehicle.step"), "s"),
        "vehicle.sensors.self_s": (self_s(*SENSORS), "s"),
        "camera.observe.calls": (calls("camera.observe"), "count"),
        "camera.observe.self_s": (self_s("camera.observe"), "s"),
        "camera.detect_ratio": (_ratio(count("camera.observe", "detected"), calls("camera.observe")), "ratio"),
        "link.send.calls": (calls("link.send"), "count"),
        "link.poll.calls": (calls("link.poll"), "count"),
        "link.self_s": (self_s(*LINK), "s"),
        "link.delivery_ratio": (_ratio(count("link.poll", "frames"), calls("link.send")), "ratio"),
        "link.commands_applied_ratio": (_ratio(extra["commands_applied"], extra["commands"]), "ratio"),
        "runner.loop.self_s": (self_s("runner.run_scenario"), "s"),
        "runner.write_artifacts.self_s": (self_s("runner.write_artifacts"), "s"),
        "runner.bytes_written": (extra["bytes_written"], "bytes"),
        "runner.recompute_metrics.self_s": (self_s("runner.recompute_metrics"), "s"),
        "runner.recompute_missing_keys": (extra["missing_keys"], "count"),
        "tracking.segment_stream.self_s": (self_s("tracking.segment_stream"), "s"),
        "tracking.kept_ratio": (_ratio(count("tracking.segment_stream", "kept"),
                                       count("tracking.segment_stream", "detections")), "ratio"),
        "tracking.run_pipeline_detailed.calls": (calls("tracking.run_pipeline_detailed"), "count"),
        "tracking.run_pipeline_detailed.self_s": (self_s("tracking.run_pipeline_detailed"), "s"),
        "tracking.segments_too_short": (
            None if "tracking.run_pipeline_detailed" in tr.absent
            else s["tracking.run_pipeline_detailed"].raised["SegmentTooShort"], "count"),
        "tracking.csv_write.self_s": (self_s(*CSV_WRITE), "s"),
        "tracking.csv_read.self_s": (self_s(*CSV_READ), "s"),
        "frames.body_velocities.calls": (calls("frames.body_velocities"), "count"),
        "frames.body_velocities.self_s": (self_s("frames.body_velocities"), "s"),
        "metrics.residuals.calls": (calls("metrics.residuals"), "count"),
        "metrics.residuals.self_s": (self_s("metrics.residuals"), "s"),
        "metrics.count_reversals.self_s": (self_s("metrics.count_reversals"), "s"),
        "metrics.no_overlap": (
            None if "metrics.residuals" in tr.absent
            else s["metrics.residuals"].raised["NoOverlap"], "count"),
        "metrics.compared_ratio": (_ratio(count("metrics.residuals", "compared"),
                                          count("metrics.residuals", "estimates")), "ratio"),
        "trace.op_s": (extra["traced_s"], "s"),
        "trace.overhead_ratio": (extra["traced_s"] / extra["untraced_s"] - 1.0, "ratio"),
    }


# shares of traced op time printed as the per-layer split
SPLIT = (
    "vehicle.step.self_s", "vehicle.sensors.self_s", "camera.observe.self_s",
    "link.self_s", "runner.loop.self_s", "runner.write_artifacts.self_s",
    "tracking.csv_write.self_s", "tracking.csv_read.self_s",
    "tracking.segment_stream.self_s", "tracking.run_pipeline_detailed.self_s",
    "frames.body_velocities.self_s", "metrics.residuals.self_s",
    "metrics.count_reversals.self_s", "runner.recompute_metrics.self_s",
)


def per_layer(run: Run, seconds: float, tracer: Tracer | None = None) -> dict:
    """Alternate untraced and traced passes over every op for ``seconds``
    (at least one pair); times and counts are per traced pass."""
    tr = tracer or Tracer()
    untraced_s = traced_s = 0.0
    bytes_written = commands = applied = 0
    passes = 0
    clock = time.perf_counter
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for op in run.ops:
            res = attempt(run, op)
            if res is not None:
                untraced_s += res[0]
        with tr.installed():
            for op in run.ops:
                res = attempt(run, op)
                if res is None:
                    continue
                wall, art = res
                traced_s += wall
                if art is not None:
                    bytes_written += sum(p.stat().st_size for p in op.out_dir.rglob("*") if p.is_file())
                    commands += len(art.command_log)
                    applied += sum(1 for e in art.command_log if e.status == "applied")
        passes += 1
    if not traced_s or not untraced_s:
        raise BenchError("every traced or untraced op failed")
    run.unreached = [n for n in tr.present(MUST_REACH[run.workload]) if tr.stats[n].calls == 0]
    run.absent = sorted(tr.absent)
    tr.absent.update(run.unreached)

    for stat in tr.stats.values():
        stat.calls /= passes
        stat.total_s /= passes
        stat.self_s /= passes
        for c in (stat.raised, stat.counts):
            for key in c:
                c[key] /= passes
    extra = {
        "bytes_written": bytes_written / passes,
        "commands": commands, "commands_applied": applied,
        "missing_keys": len(run.missing_keys),
        "traced_s": traced_s / passes, "untraced_s": untraced_s / passes,
    }
    run.passes = passes
    return layer_metrics(tr, extra)


# ---------------------------------------------------------------------------
# command line


def _number(x):
    return int(x) if isinstance(x, float) and x.is_integer() and abs(x) < 2**53 else x


def report(run: Run, metrics: dict, trace: bool) -> dict:
    print("workload %s: %d ops attempted, %d failed, fail_ratio %.6g"
          % (run.workload, run.attempted, run.failed, run.failed / run.attempted))
    for err in run.errors:
        print("  failed op: %s" % err)
    out = {}
    for name, (value, unit) in metrics.items():
        if value is None:
            continue
        out[name] = {"value": _number(value), "unit": unit}
        print("%-40s %.6g %s" % (name, value, unit))
    if trace:
        print("traced passes: %d; per-layer figures are per pass" % run.passes)
        total = metrics["trace.op_s"][0]
        for name in SPLIT:
            value = metrics[name][0]
            if value is not None:
                print("split %-36s %5.1f%%" % (name, 100.0 * value / total))
        absent = [name for name, (value, _) in metrics.items() if value is None]
        print("absent trace targets: %s" % (", ".join(run.absent) or "none"))
        print("trace targets never called, reported as absent: %s"
              % (", ".join(run.unreached) or "none"))
        print("absent per-layer metrics: %s" % (", ".join(absent) or "none"))
    else:
        q = run.summary
        print("op count %d over %d distinct ops; op_ms_p50 is the median of "
              "each distinct op's fastest run" % (q["n"], q["distinct"]))
        print("over all timed ops: median %.4f ms" % q["p50"])
        if "p90" in q:
            print("over all timed ops: op_ms_p90 %.4f ms (%d ops beyond it)"
                  % (q["p90"], q["beyond_p90"]))
        else:
            print("op_ms_p90 omitted: fewer than %d ops beyond it" % P90_MIN_BEYOND)
    print("recompute_metrics omits in-run keys: %s" % (", ".join(sorted(run.missing_keys)) or "none"))
    print("csv sha256 %s" % workload_digest(run))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    work_dir = WORK / ("%s-%d" % (args.workload, os.getpid()))
    try:
        run = prepare(args.workload, args.seed, work_dir)
        warm_up(run)
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
        out = report(run, metrics, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": run.failed == 0 and run.check_errors == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
