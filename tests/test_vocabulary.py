"""Each quantity has one name from the plant to its table.

The plant takes the pump as a fill direction, not as the radio protocol's
mode code, so ``vehicle`` needs nothing from ``link``; the state's fields
are the truth table's columns; and the nine rotation columns are named
once, in ``tracking``.
"""

import ast
from dataclasses import fields
from pathlib import Path

from tanklab import tracking, vehicle
from tanklab.runner import ALIGNMENT_HEADER
from tanklab.vehicle import (HEAVE_COLUMNS, HEAVE_FIELDS, PLANAR_COLUMNS, PLANAR_FIELDS,
                             TRUTH_DTYPE, VehicleState)

SRC = Path(vehicle.__file__).resolve().parent


def imported_names(tree):
    """Every dotted-name part that a module's imports mention."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_vehicle_imports_nothing_from_link():
    tree = ast.parse((SRC / "vehicle.py").read_text())
    assert "link" not in set(imported_names(tree))


def test_state_fields_are_truth_columns():
    names = [f.name for f in fields(VehicleState)]
    assert names[:9] == list(TRUTH_DTYPE.names[1:])


def test_channel_fields_are_truth_columns():
    # step's two channels write truth columns 1-9, each once, and each by
    # its field's name; column 0, the time, is the caller's
    columns = PLANAR_COLUMNS + HEAVE_COLUMNS
    assert sorted(columns) == list(range(1, len(TRUTH_DTYPE)))
    assert [TRUTH_DTYPE.names[c] for c in columns] == list(PLANAR_FIELDS + HEAVE_FIELDS)


def test_rotation_columns_named_once():
    rotation = ["r%d%d" % (i, j) for i in (1, 2, 3) for j in (1, 2, 3)]  # row-major
    assert tracking.ROTATION_HEADER == rotation
    assert tracking.DETECTION_CSV_HEADER[-9:] == rotation == ALIGNMENT_HEADER[-9:]
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tracking.py":
            strings = {node.value for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)}
            assert not strings & set(rotation), path.name
