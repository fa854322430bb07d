"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` wraps each target at the attribute its caller looks
it up by, and reports a missing one as absent rather than failing; this
test fails instead, so a change under ``src/`` cannot drop or rename a name
the benchmark's per-layer metrics read.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves_in_src(name):
    module_name, path, _ = TARGETS[name]
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), module.__file__
    assert callable(functools.reduce(getattr, path.split("."), module)), (name, path)
