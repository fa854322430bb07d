"""Compare two trees of CSVs cell by cell, and say how large each change is.

    python tools/tree_diff.py OLD NEW

Each CSV under either tree, by its path relative to the tree, is one of:

- ``identical``: the same bytes;
- ``shape``: only in one tree, or its header, row count or a row's cell
  count changed;
- ``text``: a cell that is not a number on both sides changed (a number
  turned NaN counts as text);
- ``numeric``: only numbers changed.  Per changed column it gives the
  changed-cell count, the max |d|, the max relative d (|d| over the larger
  magnitude) and the max distance in ULPs between the values as parsed
  from the text, which holds the writer's ``%.12g``.

One line per file, then a one-line summary.  The exit status is 1 when any
file changed shape or text, 0 otherwise (2 on a usage error), so a change
that only rounds numbers differently passes.
"""

from __future__ import annotations

import csv
import math
import struct
import sys
from pathlib import Path

CLASSES = ("identical", "numeric", "text", "shape")


def ordered(value: float) -> int:
    """The float's place in the order of all doubles, so that two values'
    distance in ULPs is the difference of their places; -0.0 and 0.0 share
    place 0."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare(old: Path, new: Path) -> tuple[str, str]:
    """One file's class and what changed in it."""
    if old.read_bytes() == new.read_bytes():
        return "identical", ""
    with open(old, newline="") as fa, open(new, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if a[:1] != b[:1]:
        return "shape", "header %s -> %s" % (",".join(a[0] if a else []),
                                             ",".join(b[0] if b else []))
    if len(a) != len(b):
        return "shape", "rows %d -> %d" % (len(a) - 1, len(b) - 1)
    header, texts, columns = a[0], 0, {}
    for line, (ra, rb) in enumerate(zip(a[1:], b[1:]), 2):
        if len(ra) != len(rb):
            return "shape", "line %d: cells %d -> %d" % (line, len(ra), len(rb))
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            u, v = number(x), number(y)
            if u is None or v is None or math.isnan(u) != math.isnan(v):
                texts += 1
                continue
            d = abs(u - v)
            rel = d / max(abs(u), abs(v)) if d else 0.0
            ulps = abs(ordered(u) - ordered(v))
            name = header[j] if j < len(header) else "#%d" % j
            n, dmax, rmax, umax = columns.get(name, (0, 0.0, 0.0, 0))
            columns[name] = n + 1, max(dmax, d), max(rmax, rel), max(umax, ulps)
    numeric = "; ".join("%s: %d cells, max |d| %.3g, max rel %.3g, max %d ulp" % (name, *stats)
                        for name, stats in columns.items())
    if texts:
        return "text", "; ".join(filter(None, ["%d text cells" % texts, numeric]))
    return "numeric", numeric


def diff_trees(old: Path, new: Path) -> list[tuple[str, str, str]]:
    """(path, class, detail) of each CSV under either tree, in path order."""
    paths = {p.relative_to(root).as_posix() for root in (old, new) for p in root.rglob("*.csv")}
    rows = []
    for name in sorted(paths):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            rows.append((name, "shape", "only in %s" % ("OLD" if a.exists() else "NEW")))
        else:
            rows.append((name, *compare(a, b)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: tree_diff.py OLD NEW (two directories)", file=sys.stderr)
        return 2
    rows = diff_trees(Path(argv[0]), Path(argv[1]))
    for name, kind, detail in rows:
        print("%-9s %s%s" % (kind, name, "  " + detail if detail else ""))
    counts = {kind: sum(row[1] == kind for row in rows) for kind in CLASSES}
    print("%d CSVs: %s" % (len(rows), ", ".join("%d %s" % (counts[k], k) for k in CLASSES)))
    return 1 if counts["text"] or counts["shape"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
