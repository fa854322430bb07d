"""The built-in experiments ship with the package: setuptools' ``build_py``
copies ``experiments/*.scenario`` into the built package, which reads them."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from tanklab.scenarios import BUILTIN_SCENARIOS, get_scenario

ROOT = Path(__file__).resolve().parents[1]


def test_build_ships_the_experiments(tmp_path):
    # build_py writes src/tanklab.egg-info beside the sources, so it builds a copy
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    lib = tmp_path / "lib"
    subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                    "build_py", "--build-lib", str(lib)],
                   cwd=tmp_path, check=True, capture_output=True, timeout=120)
    shipped = sorted(path.name for path in (lib / "tanklab" / "experiments").iterdir())
    assert shipped == sorted(path.name for path in BUILTIN_SCENARIOS.values())
    code = ("import tanklab.scenarios as s; print(s.__file__); "
            "print(repr(s.get_scenario('pump_test')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(lib)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    where, _, scenario = proc.stdout.partition("\n")
    assert Path(where).is_relative_to(lib)
    assert scenario == repr(get_scenario("pump_test")) + "\n"
