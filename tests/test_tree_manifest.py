"""Byte identity of every CSV of ``tools/run_tree.py``'s tree against the
committed ``tests/tree.sha256``.

A change that alters output on purpose rewrites the manifest with
``PYTHONPATH=src python tools/run_tree.py --manifest``; its diff is the
record of which files changed.  The bytes depend on the numpy/BLAS build
(fused multiply-adds in small products), so a mismatch prints the build
that wrote the manifest beside this one; it is never skipped.
"""

from conftest import load_tool


def test_tree_matches_manifest(tree_dir):
    run_tree = load_tool("run_tree")
    header, want = [], {}
    for line in run_tree.MANIFEST.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            digest, name = line.split("  ", 1)
            want[name] = digest

    got = run_tree.digests(tree_dir)

    problems = [
        *("missing: " + name for name in sorted(want.keys() - got.keys())),
        *("extra: " + name for name in sorted(got.keys() - want.keys())),
        *("differs: " + name for name in sorted(want.keys() & got.keys())
          if want[name] != got[name]),
    ]
    assert not problems, "\n".join([
        "%d of %d CSVs differ from %s" % (len(problems), len(want), run_tree.MANIFEST.name),
        *problems,
        "manifest header:",
        *header,
        "this build: " + run_tree.numpy_build(),
    ])
