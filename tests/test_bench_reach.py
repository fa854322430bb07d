"""The benchmark's traced passes still call every name they must reach.

``tests/test_trace_targets.py`` checks that each tracer target resolves.
A change that keeps a name but stops calling it shows only in a traced
``perfbench/run.py`` pass, as a "never called" target.  This test runs
what a ``surface`` pass and a ``replay`` pass run, under the harness's own
``Tracer``, and checks the call counts.  It reads ``perfbench/`` and
changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

from tanklab import runner
from tanklab.scenarios import get_scenario

ROOT = Path(__file__).resolve().parent.parent


def load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # for its `from tracer import Tracer`
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_every_reach_target_is_called(tmp_path, monkeypatch):
    bench = load_bench(monkeypatch)
    tracer = bench.Tracer()
    with tracer.installed():
        runner.run_scenario(get_scenario("line"), out_dir=str(tmp_path))
        runner.recompute_metrics(str(tmp_path))
    reaches = [*bench.SIMULATE_REACHES,
               "runner.recompute_metrics", "tracking.read_states_csv", "metrics.residuals"]
    assert not tracer.absent
    assert [name for name in reaches if tracer.stats[name].calls == 0] == []
