"""Write the reference and edge run directories into OUT.

The reference runs are the four built-in scenarios (line, circle, zigzag,
pump_test), each at its own default seed and at seeds 3 and 101, written to
``OUT/<scenario>_<seed>/``.  The edge runs are ``line`` and ``pump_test`` at
their default seeds under one override each, written to
``OUT/<scenario>_<override>/``; each override moves a sensor sample, a link
delivery or the step grid onto a step boundary, loses commands on the
downlink, or takes a branch the defaults skip: spurious-z outliers, no
rotation noise, degraded and absent IR signal, segments too short to score,
and the level-plane fallback of a noiseless collinear track.  One more edge
run, ``OUT/pump_test_pulses/``, is the scenario file ``PULSES``:
``src/tanklab/experiments/pump_test.scenario`` with shorter pump runs that
stop mid-stroke (each of ``pump_test``'s own runs lasts until the syringe
saturates), so the tree holds pump cut-off steps, and the hull sinks, rises
and comes to rest afloat mid-run.  The
``tanklab`` imported is whichever is first on ``PYTHONPATH``, so two trees
from two source checkouts compare with ``diff -r``:

    PYTHONPATH=<old>/src python tools/run_tree.py /tmp/old
    PYTHONPATH=src python tools/run_tree.py /tmp/new
    diff -r /tmp/old /tmp/new

``tests/tree.sha256`` holds the sha256 of each CSV of the tree, under a
header naming the numpy and BLAS build that wrote it; a tier-1 test
compares a fresh tree against it.  A change that alters output on purpose
rewrites it, writing the tree into a temporary directory:

    PYTHONPATH=src python tools/run_tree.py --manifest
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from tanklab.runner import run_scenario
from tanklab.scenarios import BUILTIN_SCENARIOS, get_scenario

SEEDS = (None, 3, 101)  # None keeps the scenario's own seed
EDGE_SCENARIOS = ("line", "pump_test")
EDGE_OVERRIDES = (
    "channel.latency=0",
    "channel.latency=0.5",
    "camera.frame_rate=240",
    "telemetry_rate=240",
    "sim_rate=37",
    "camera.timestamp_jitter_sigma=0.05",
    "channel.latency=0.004166666666666667",  # one plant step at 240 Hz
    "channel.d1=0.4",  # commands lost at depth
    "channel.base_loss=0.5",
    "camera.spurious_z_prob=0.1",  # the spurious-z draw and its offset
    "camera.rotation_noise_sigma=0",  # the rotation draws skipped
    "ambient_ir=0.6",  # IR signal quality "degraded": the IR-degraded flag
    "ambient_ir=1",  # IR signal quality "none": no fill estimate
    "pipeline.max_gap=0.05",  # segments too short to score, skipped
    "camera.translation_noise_sigma=0",  # a collinear track: the level-plane fallback
)
PULSES = Path(__file__).resolve().parent / "pump_test_pulses.scenario"
MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "tree.sha256"


def write_tree(out: str) -> None:
    for name in BUILTIN_SCENARIOS:
        for seed in SEEDS:
            scenario = get_scenario(name, [] if seed is None else ["seed=%d" % seed])
            run_scenario(scenario, out_dir=os.path.join(
                out, "%s_%s" % (name, "default" if seed is None else seed)))
    for name in EDGE_SCENARIOS:
        for override in EDGE_OVERRIDES:
            scenario = get_scenario(name, [override])
            run_scenario(scenario, out_dir=os.path.join(out, "%s_%s" % (name, override)))
    run_scenario(get_scenario(str(PULSES)), out_dir=os.path.join(out, "pump_test_pulses"))


def numpy_build() -> str:
    """The numpy and BLAS build, whose arithmetic the CSV bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "numpy %s, BLAS %s %s" % (np.__version__, blas["name"], blas["version"])


def digests(out) -> dict[str, str]:
    """The sha256 of each CSV under ``out``, by path relative to it."""
    root = Path(out)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*.csv")}


def main(argv: list[str]) -> int:
    if argv == ["--manifest"]:
        with tempfile.TemporaryDirectory(prefix="tanklab-tree-") as out:
            write_tree(out)
            lines = ["# sha256 of each CSV of tools/run_tree.py's tree",
                     "# build: " + numpy_build(),
                     *("%s  %s" % (digest, name) for name, digest in sorted(digests(out).items()))]
        MANIFEST.write_text("\n".join(lines) + "\n")
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: run_tree.py OUT | --manifest", file=sys.stderr)
        return 2
    write_tree(argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
