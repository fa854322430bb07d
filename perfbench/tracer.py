"""Outside-in tracer for tanklab.

Each traced function is wrapped at the attribute its caller looks it up by
(``runner`` imports ``observe`` by name, so ``camera.observe`` is traced at
``tanklab.runner.observe``), so nothing under ``src/`` changes.  Spans are
aggregated in memory per target: calls, total time, self time (total minus
the time covered by traced children), exceptions by type, and a few
counters read from arguments and results.  Every original is put back when
the ``installed()`` block ends.  A target that no longer exists is recorded
in ``absent`` and left alone.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

RAISED = object()  # result seen by a counter hook when the call raised


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_detected(stat, args, kwargs, result):
    if result is not None and result is not RAISED:
        stat.counts["detected"] += 1


def _count_frames(stat, args, kwargs, result):
    if result is not RAISED:
        stat.counts["frames"] += len(result)


def _count_kept(stat, args, kwargs, result):
    stat.counts["detections"] += len(_arg(args, kwargs, 0, "detections"))
    if result is not RAISED:
        stat.counts["kept"] += sum(len(seg) for seg in result)


def _count_compared(stat, args, kwargs, result):
    stat.counts["estimates"] += len(_arg(args, kwargs, 1, "estimates"))
    if result is not RAISED:
        stat.counts["compared"] += int(result["t"].size)


# span name -> (module, attribute path at the caller's lookup site, counter hook)
TARGETS = {
    "vehicle.step": ("tanklab.vehicle", "step", None),
    "vehicle.ir_response": ("tanklab.runner", "ir_response", None),
    "vehicle.estimate_plunger": ("tanklab.runner", "estimate_plunger", None),
    "vehicle.signal_quality": ("tanklab.runner", "signal_quality", None),
    "vehicle.depth_reading": ("tanklab.runner", "depth_reading", None),
    "camera.observe": ("tanklab.runner", "observe", _count_detected),
    "link.encode": ("tanklab.runner", "encode", None),
    "link.decode": ("tanklab.runner", "decode", None),
    "link.send": ("tanklab.link", "Channel.send", None),
    "link.poll": ("tanklab.link", "Channel.poll", _count_frames),
    "runner.run_scenario": ("tanklab.runner", "run_scenario", None),
    "runner.write_artifacts": ("tanklab.runner", "write_artifacts", None),
    "runner.recompute_metrics": ("tanklab.runner", "recompute_metrics", None),
    "tracking.segment_stream": ("tanklab.tracking", "segment_stream", _count_kept),
    "tracking.run_pipeline_detailed": ("tanklab.tracking", "run_pipeline_detailed", None),
    "tracking.write_detections_csv": ("tanklab.tracking", "write_detections_csv", None),
    "tracking.write_states_csv": ("tanklab.tracking", "write_states_csv", None),
    "tracking.read_detections_csv": ("tanklab.tracking", "read_detections_csv", None),
    "tracking.read_states_csv": ("tanklab.tracking", "read_states_csv", None),
    "frames.body_velocities": ("tanklab.frames", "body_velocities", None),
    "metrics.residuals": ("tanklab.runner", "residuals", _count_compared),
    "metrics.count_reversals": ("tanklab.runner", "count_reversals", None),
}


class Tracer:
    def __init__(self, targets: dict | None = None):
        self.targets = TARGETS if targets is None else targets
        self.stats = {name: SpanStats() for name in self.targets}
        self.absent: set[str] = set()
        self._stack: list[float] = []  # child time of each open span

    def _wrap(self, stat: SpanStats, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = RAISED
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if hook is not None:
                    hook(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _resolve(self, module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not callable(getattr(owner, attr, None)):
            return None
        return owner, attr

    @contextmanager
    def installed(self):
        """Wrap every present target for the duration of the block."""
        patches = []
        try:
            for name, (module_name, path, hook) in self.targets.items():
                site = self._resolve(module_name, path)
                if site is None:
                    self.absent.add(name)
                    continue
                owner, attr = site
                own = vars(owner).get(attr)  # None when inherited or via __getattr__
                patches.append((owner, attr, own))
                setattr(owner, attr, self._wrap(self.stats[name], getattr(owner, attr), hook))
            yield self
        finally:
            for owner, attr, own in reversed(patches):
                if own is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def present(self, names) -> list[str]:
        return [n for n in names if n not in self.absent]
