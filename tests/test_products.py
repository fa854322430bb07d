"""No product on the CSV path goes through BLAS.

OpenBLAS picks its kernel at run time, and its kernels differ in fused
multiply-adds and in summation order, so a product taken with ``@``,
``np.dot`` or ``np.linalg`` gives the CSV bytes of whichever kernel the host
picks.  ``frames.mm`` and in-order plain sums give the same bits on every
kernel.  The first test walks ``src/tanklab`` for any BLAS product; the
second writes ``tools/run_tree.py``'s tree in child processes under another
OpenBLAS kernel and with numpy's AVX2 and AVX-512 loops off, and checks each
tree against ``tests/tree.sha256``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TOOLS, load_tool

SRC = Path(__file__).resolve().parent.parent / "src" / "tanklab"
BLAS_CALLS = {"np.dot", "np.matmul", "np.einsum", "np.inner", "np.vdot", "np.tensordot"}
# no CSV reads the circle fit, so its least squares may keep LAPACK's bits
ALLOWED = {("metrics.py", "circle_fit", "np.linalg.lstsq")}


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append("np" if node.id == "numpy" else node.id)
    return ".".join(reversed(parts))


def blas_sites(root: Path) -> list[tuple[str, str, str]]:
    """``(file, function, product)`` of each ``@``, ``@=`` or BLAS-backed
    numpy call under ``root``."""
    sites = []  # in file and source order
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for child in ast.walk(node):
                    scopes[child] = node.name  # walk order: the innermost is last
        found = []
        for node in ast.walk(tree):
            what = None
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                what = "@"
            elif isinstance(node, ast.Call) and (name := _dotted(node.func)):
                if name in BLAS_CALLS or name.startswith("np.linalg."):
                    what = name
            if what:
                found.append((node.lineno, node.col_offset, scopes.get(node, "<module>"), what))
        sites += [(path.relative_to(root).as_posix(), scope, what)
                  for _, _, scope, what in sorted(found)]
    return sites


def test_no_blas_product_in_src():
    sites = blas_sites(SRC)
    assert ALLOWED <= set(sites), "an allowed site is gone; drop it from ALLOWED"
    assert [s for s in sites if s not in ALLOWED] == []


def test_walk_finds_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import numpy\nimport numpy as np\n"
        "x = a @ b\n"
        "def f(a, b):\n    a @= b\n    return np.dot(a, b) + numpy.linalg.norm(a)\n"
        "class C:\n    def g(self):\n        return np.einsum('ij,jk', a, b), np.linalg.det(a)\n"
        "def h(a):\n    return np.sum(a * a), np.cross(a, a), np.linalg\n")
    assert blas_sites(tmp_path) == [
        ("m.py", "<module>", "@"),
        ("m.py", "f", "@"),
        ("m.py", "f", "np.dot"),
        ("m.py", "f", "np.linalg.norm"),
        ("m.py", "g", "np.einsum"),
        ("m.py", "g", "np.linalg.det"),
    ]


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4,X86_V3"},
], ids=["openblas-prescott", "numpy-no-avx2-avx512"])
def test_tree_bytes_do_not_depend_on_the_kernel(env, tmp_path):
    child_env = {**os.environ, **env,
                 "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                             os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(TOOLS / "run_tree.py"), str(tmp_path)],
                   env=child_env, check=True, timeout=300)
    run_tree = load_tool("run_tree")
    want = dict(reversed(line.split("  ", 1))
                for line in run_tree.MANIFEST.read_text().splitlines()
                if not line.startswith("#"))
    got = run_tree.digests(tmp_path)
    assert got.keys() == want.keys()
    differ = sorted(name for name in want if got[name] != want[name])
    assert differ == [], "%d of %d CSVs differ under %s" % (len(differ), len(want), env)
