"""``tools/tree_diff.py`` on small synthetic trees of CSVs."""

import math

import pytest

from conftest import load_tool

tree_diff = load_tool("tree_diff")

TRUTH = "t,x,status\n0,0.1,ok\n0.5,2,ok\n"


def trees(tmp_path, old, new):
    """Two trees, each ``{relative path: text}``; returns their roots."""
    roots = []
    for side, files in (("old", old), ("new", new)):
        root = tmp_path / side
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        root.mkdir(exist_ok=True)
        roots.append(root)
    return roots


def run(tmp_path, capsys, old, new):
    """The exit status, each file's class line, and the summary."""
    status = tree_diff.main([str(root) for root in trees(tmp_path, old, new)])
    *lines, summary = capsys.readouterr().out.splitlines()
    return status, lines, summary


def test_identical(tmp_path, capsys):
    files = {"a/truth.csv": TRUTH, "a/plotdata/u.csv": "t,u\n0,1\n", "b/meta.csv": "key,value\n"}
    status, lines, summary = run(tmp_path, capsys, files, files)
    assert status == 0
    assert [line.split()[0] for line in lines] == ["identical"] * 3
    assert summary == "3 CSVs: 3 identical, 0 numeric, 0 text, 0 shape"


def test_one_ulp_apart(tmp_path, capsys):
    moved = "t,x,status\n0,%r,ok\n0.5,2,ok\n" % math.nextafter(0.1, 1.0)
    status, lines, summary = run(tmp_path, capsys, {"truth.csv": TRUTH}, {"truth.csv": moved})
    assert status == 0
    assert lines == ["numeric   truth.csv  x: 1 cells, max |d| 1.39e-17, max rel 1.39e-16,"
                     " max 1 ulp"]
    assert summary == "1 CSVs: 0 identical, 1 numeric, 0 text, 0 shape"


@pytest.mark.parametrize("a, b, ulps", [
    (0.0, -0.0, 0), (-1.0, -math.nextafter(1.0, 2.0), 1), (-5e-324, 5e-324, 2),
    (1.0, 2.0, 1 << 52)])
def test_ulp_distance(a, b, ulps):
    assert abs(tree_diff.ordered(a) - tree_diff.ordered(b)) == ulps


@pytest.mark.parametrize("new, detail", [
    ("t,x,state\n0,0.1,ok\n0.5,2,ok\n", "header t,x,status -> t,x,state"),
    (TRUTH + "1,3,ok\n", "rows 2 -> 3"),
    ("t,x,status\n0,0.1,ok\n0.5,2\n", "line 3: cells 3 -> 2"),
], ids=["header", "row_added", "cell_missing"])
def test_shape_changed(tmp_path, capsys, new, detail):
    status, lines, _ = run(tmp_path, capsys, {"truth.csv": TRUTH}, {"truth.csv": new})
    assert status == 1
    assert lines == ["shape     truth.csv  " + detail]


def test_file_in_one_tree(tmp_path, capsys):
    status, lines, summary = run(tmp_path, capsys, {"truth.csv": TRUTH},
                                 {"truth.csv": TRUTH, "extra.csv": "t\n"})
    assert status == 1
    assert lines == ["shape     extra.csv  only in NEW", "identical truth.csv"]
    assert summary == "2 CSVs: 1 identical, 0 numeric, 0 text, 1 shape"


@pytest.mark.parametrize("new, detail", [
    ("t,x,status\n0,0.1,lost\n0.5,2,ok\n", "1 text cells"),
    ("t,x,status\n0,nan,ok\n0.5,3,ok\n", "1 text cells; x: 1 cells, max |d| 1, max rel 0.333,"
                                          " max 2251799813685248 ulp"),
], ids=["word", "number_to_nan"])
def test_text_changed(tmp_path, capsys, new, detail):
    status, lines, _ = run(tmp_path, capsys, {"truth.csv": TRUTH}, {"truth.csv": new})
    assert status == 1
    assert lines == ["text      truth.csv  " + detail]


def test_usage(tmp_path, capsys):
    assert tree_diff.main([str(tmp_path)]) == 2
    assert tree_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err
