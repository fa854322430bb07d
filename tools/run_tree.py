"""Write the 12 reference run directories into OUT.

The reference runs are the four built-in scenarios (line, circle, zigzag,
pump_test), each at its own default seed and at seeds 3 and 101, written to
``OUT/<scenario>_<seed>/``.  The ``tanklab`` imported is whichever is first
on ``PYTHONPATH``, so two trees from two source checkouts compare with
``diff -r``:

    PYTHONPATH=<old>/src python tools/run_tree.py /tmp/old
    PYTHONPATH=src python tools/run_tree.py /tmp/new
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import os
import sys

from tanklab.runner import run_scenario
from tanklab.scenarios import BUILTIN_SCENARIOS, get_scenario

SEEDS = (None, 3, 101)  # None keeps the scenario's own seed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: run_tree.py OUT", file=sys.stderr)
        return 2
    for name in BUILTIN_SCENARIOS:
        for seed in SEEDS:
            scenario = get_scenario(name)
            if seed is not None:
                scenario.seed = seed
            run_scenario(scenario, out_dir=os.path.join(
                argv[0], "%s_%s" % (name, "default" if seed is None else seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
