"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import sys
import types

import pytest

import run
import tracer

TK = run.load_tanklab()


def tiny_run(workload: str, work_dir, groups: int = 1) -> run.Run:
    """A run over the first ``groups`` groups of a workload, set up in-process."""
    r = run.Run(workload, run.plan(workload, 7, work_dir)[:groups], tk=TK)
    for op in r.ops:
        op.scenario = TK.scenarios.get_scenario(op.name)
        op.scenario.seed = op.seed
        op.sim_s = op.scenario.duration
        if workload == "replay":
            TK.runner.run_scenario(op.scenario, out_dir=str(op.out_dir))
            r.digests[op.key] = run.dir_digest(op.out_dir)
    run.warm_up(r)
    return r


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_has_no_failures(workload, tmp_path):
    r = tiny_run(workload, tmp_path)
    metrics = run.end_to_end(r, 0.0, setup_reps=1)
    assert r.attempted >= len(r.ops) and r.failed == 0, r.errors
    assert metrics["op_ms_p50"][0] > 0 and metrics["setup_s"][0] > 0
    layers = run.per_layer(r, 0.0)
    assert r.failed == 0 and r.check_errors == 0, r.errors
    assert r.absent == [] and r.unreached == []
    assert all(v is not None for v, _ in layers.values())
    assert layers["runner.recompute_missing_keys"][0] == 3
    if workload == "replay":
        for name in ("vehicle.step.calls", "camera.observe.calls", "link.send.calls",
                     "runner.write_artifacts.self_s"):
            assert layers[name][0] == 0, name
        assert layers["runner.recompute_metrics.self_s"][0] > 0
    else:
        assert layers["runner.write_artifacts.self_s"][0] > 0
        assert layers["runner.recompute_metrics.self_s"][0] == 0


def test_flipped_byte_in_estimates_fails_replay(tmp_path):
    r = tiny_run("replay", tmp_path / "runs")
    op = r.ops[0]
    path = op.out_dir / "estimates.csv"
    data = bytearray(path.read_bytes())
    second_line = data.index(b"\n") + 1
    x_field = data.index(b",", second_line) + 1  # leading digit of the x column
    assert chr(data[x_field]).isdigit() or data[x_field] == ord("-")
    if data[x_field] == ord("-"):
        x_field += 1
    data[x_field] ^= 0x01
    path.write_bytes(bytes(data))
    assert run.attempt(r, op) is None
    assert r.failed == 1 and "estimates.csv" in r.errors[-1]


def test_changed_csv_bytes_fail_a_simulation_op(tmp_path):
    r = tiny_run("surface", tmp_path)
    op = r.ops[0]
    r.digests[op.key] = "0" * 64  # as if an earlier run had written other bytes
    assert run.attempt(r, op) is None
    assert "different CSV bytes" in r.errors[-1]


def test_removed_target_is_reported_absent(tmp_path):
    targets = dict(tracer.TARGETS)
    targets["frames.body_velocities"] = ("tanklab.frames", "body_velocities_gone", None)
    r = tiny_run("replay", tmp_path)
    layers = run.per_layer(r, 0.0, tracer.Tracer(targets))
    assert r.failed == 0 and r.absent == ["frames.body_velocities"]
    assert layers["frames.body_velocities.calls"][0] is None
    assert layers["frames.body_velocities.self_s"][0] is None
    assert layers["tracking.run_pipeline_detailed.calls"][0] > 0


def test_target_nothing_calls_is_reported_absent(tmp_path):
    # as if the runner had stopped calling camera.observe through its own
    # import: the attribute is still there, but no op reaches it
    targets = dict(tracer.TARGETS)
    targets["camera.observe"] = ("tanklab.camera", "observe", None)
    r = tiny_run("surface", tmp_path)
    layers = run.per_layer(r, 0.0, tracer.Tracer(targets))
    assert r.failed == 0 and r.absent == [] and r.unreached == ["camera.observe"]
    for name in ("camera.observe.calls", "camera.observe.self_s", "camera.detect_ratio"):
        assert layers[name][0] is None, name
    assert layers["vehicle.step.calls"][0] > 0


def test_originals_are_restored():
    before = {name: tracer.Tracer()._resolve(mod, path) for name, (mod, path, _) in tracer.TARGETS.items()}
    originals = {name: getattr(*site) for name, site in before.items()}
    tr = tracer.Tracer()
    with tr.installed():
        assert TK.vehicle.step is not originals["vehicle.step"]
        assert TK.link.Channel.send is not originals["link.send"]
    for name, site in before.items():
        assert getattr(*site) is originals[name], name
    assert "send" in vars(TK.link.Channel)


def test_self_time_excludes_children():
    mod = types.ModuleType("perfbench_fake")
    exec("def inner():\n    return 1\n\ndef outer():\n    return inner() + 1\n", vars(mod))
    sys.modules[mod.__name__] = mod
    try:
        tr = tracer.Tracer({"outer": (mod.__name__, "outer", None),
                            "inner": (mod.__name__, "inner", None),
                            "gone": (mod.__name__, "missing", None)})
        with tr.installed():
            assert mod.outer() == 2
    finally:
        del sys.modules[mod.__name__]
    outer, inner = tr.stats["outer"], tr.stats["inner"]
    assert (outer.calls, inner.calls) == (1, 1)
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert tr.absent == {"gone"}
