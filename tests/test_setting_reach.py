"""Every setting of a scenario reaches some output of a run.

A field that no run can move is a model concept without a caller.  Each
field of ``Scenario`` and of its sub-configs is either in ``MOVES``, with a
built-in base run, extra settings, and a value that changes some byte of
that run's ``RunArtifacts``, or in ``ALLOWED``, with the reason it is not.
The runs write no files.
"""

import functools
import hashlib
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from tanklab.runner import run_scenario
from tanklab.scenarios import Scenario, get_scenario

SPURIOUS = ("camera.spurious_z_prob=0.1",)  # detections the z gate must judge

# key: (built-in base, extra settings on the base, value)
MOVES = {
    "duration": ("line", (), "9"),
    "vehicle.mass": ("line", (), "3"),
    "vehicle.propeller_separation": ("circle", (), "0.07"),
    "vehicle.max_thrust_per_prop": ("line", (), "0.9"),
    "vehicle.motor_time_constant": ("line", (), "0.2"),
    "vehicle.drag_surge": ("line", (), "4.5"),
    "vehicle.drag_heave": ("pump_test", (), "22"),
    "vehicle.drag_yaw": ("circle", (), "0.09"),
    "vehicle.yaw_inertia": ("circle", (), "0.022"),
    "vehicle.syringe_capacity": ("line", (), "27.5"),
    "vehicle.pump_max_rate": ("pump_test", (), "110"),
    "vehicle.tank_depth": ("pump_test", (), "0.8"),  # shallower than the dive
    "camera.frame_rate": ("line", (), "33"),
    "camera.timestamp_jitter_sigma": ("line", (), "0.004"),
    "camera.translation_noise_sigma": ("line", (), "0.004"),
    "camera.rotation_noise_sigma": ("line", (), "0.02"),
    "camera.dropout_prob": ("line", (), "0.2"),
    "camera.spurious_z_prob": ("line", (), "0.1"),
    "camera.spurious_z_offset": ("line", SPURIOUS, "0.3"),
    "camera.visibility_depth": ("pump_test", (), "0.06"),
    "channel.d0": ("pump_test", (), "0.27"),
    "channel.d1": ("pump_test", (), "1"),
    "channel.base_loss": ("line", (), "0.5"),
    "channel.latency": ("line", (), "0.1"),
    "pipeline.smoothing_window": ("line", (), "13"),
    "pipeline.output_rate": ("line", (), "33"),
    "pipeline.max_gap": ("pump_test", (), "0.05"),  # shorter than the gaps of a dive
    "pipeline.outlier_z_jump": ("line", SPURIOUS, "0.3"),
    "tag.tag_id": ("line", (), "1"),
    "seed": ("line", (), "12"),
    "tank_side": ("line", (), "4.5"),
    "initial_x": ("line", (), "0.6"),
    "initial_y": ("line", (), "2"),
    "initial_psi": ("line", (), "0.1"),
    "camera_height": ("line", (), "2.6"),
    "camera_tilt_x_deg": ("line", (), "3"),
    "camera_tilt_y_deg": ("line", (), "1"),
    "ambient_ir": ("line", (), "0.1"),
    "telemetry_rate": ("line", (), "6"),
    "depth_noise_sigma": ("line", (), "0.003"),
    "sim_rate": ("line", (), "300"),
}

ALLOWED = {
    "name": "names the run and its default output directory, both outside the tables",
    "plot_frame": "acts only on the written plotdata/ files",
    "command_script": "set by every built-in, by its command lines, not by one value",
}


def setting_keys():
    """Every field of a scenario by its dotted key; a sub-config's fields
    stand for the sub-config."""
    scenario = Scenario(name="walk", duration=1.0)
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if is_dataclass(value):
            yield from (f.name + "." + g.name for g in fields(value))
        else:
            yield f.name


def digest(artifacts):
    """A hash of every table, metric and logged command of a run."""
    h = hashlib.sha256()
    for table in (artifacts.truth, artifacts.detections.table, artifacts.estimates,
                  artifacts.alignments, artifacts.telemetry):
        h.update(np.ascontiguousarray(table).tobytes())
    h.update(repr(sorted(artifacts.metrics.items())).encode())
    h.update(repr(artifacts.command_log).encode())
    return h.hexdigest()


@functools.cache
def base_digest(name, extras):
    return digest(run_scenario(get_scenario(name, extras)))


def test_every_field_is_listed_once():
    keys = list(setting_keys())
    assert not MOVES.keys() & ALLOWED.keys()
    assert sorted(keys) == sorted([*MOVES, *ALLOWED])


@pytest.mark.parametrize("key", sorted(MOVES))
def test_setting_moves_an_output(key):
    name, extras, value = MOVES[key]
    moved = run_scenario(get_scenario(name, [*extras, "%s=%s" % (key, value)]))
    assert digest(moved) != base_digest(name, extras)
