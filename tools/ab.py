"""Paired A/B timing of this checkout's ``tanklab`` against a base revision.

    python tools/ab.py --base HEAD~1 --pairs 12

The base revision's ``src/`` is extracted with a local ``git archive`` into
a temporary directory, and both ``tanklab`` trees are imported into one
process; before each op the ``tanklab*`` entries of ``sys.modules`` are
swapped to the tree that runs it.  The ops are the four built-in scenarios
run with artifacts at ``--seed``, and a ``replay`` of each of their run
directories, as ``perfbench/run.py``'s ``replay`` op times it without its
checks: ``recompute_metrics``, then the offline re-estimation from
``detections.csv`` (``segment_stream``, and ``run_pipeline_detailed`` on
each segment).  Each pair times one op on both trees back to back, the
tree that goes first alternating from pair to pair, after one untimed
warm-up pass per tree; building the scenario is not timed.

Printed per op: the median time on each tree, the median change/base ratio
with a seeded bootstrap 95% interval, and whether the two trees wrote the
same CSV bytes.  The last line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("line", "circle", "zigzag", "pump_test")
BOOTSTRAP = 2000


def load(src: Path) -> dict:
    """Import the ``tanklab`` under ``src`` and return its ``sys.modules`` entries."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "tanklab"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        runner = importlib.import_module("tanklab.runner")
    finally:
        sys.path.remove(str(src))
    if Path(runner.__file__).resolve().parent != (src / "tanklab").resolve():
        raise SystemExit("imported tanklab from %s, not from %s" % (runner.__file__, src))
    return {m: mod for m, mod in sys.modules.items() if m.partition(".")[0] == "tanklab"}


def csv_bytes(run_dir: Path) -> dict[str, bytes]:
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in sorted(run_dir.rglob("*.csv"))}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1, help="scenario seed of every op")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    def git(*cmd, **kw):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                              capture_output=True, **kw).stdout

    base_sha = git("rev-parse", "--verify", args.base + "^{commit}", text=True).strip()
    with tempfile.TemporaryDirectory(prefix="tanklab-ab-") as tmp:
        tmp = Path(tmp)
        subprocess.run(["tar", "-x", "-C", str(tmp)], check=True,
                       input=git("archive", "--format=tar", base_sha, "src"))
        trees = {"base": load(tmp / "src"), "change": load(ROOT / "src")}

        def run_op(side: str, op: str) -> float:
            sys.modules.update(trees[side])
            tk = trees[side]
            name = op.split(":")[-1]
            run_dir = tmp / side / name
            tracking = tk["tanklab.tracking"]
            scenario = tk["tanklab.scenarios"].get_scenario(name)
            scenario.seed = args.seed
            t0 = time.perf_counter()
            if op.startswith("replay:"):
                tk["tanklab.runner"].recompute_metrics(str(run_dir))
                dets = tracking.read_detections_csv(str(run_dir / "detections.csv"))
                for segment in tracking.segment_stream(dets, scenario.pipeline):
                    try:
                        tracking.run_pipeline_detailed(segment, scenario.pipeline)
                    except tracking.SegmentTooShort:
                        pass
            else:
                tk["tanklab.runner"].run_scenario(scenario, out_dir=str(run_dir))
            return time.perf_counter() - t0

        ops = [*SCENARIOS, *("replay:%s" % name for name in SCENARIOS)]
        for side in trees:
            for op in ops:
                run_op(side, op)
        same = {name: csv_bytes(tmp / "base" / name) == csv_bytes(tmp / "change" / name)
                for name in SCENARIOS}

        times = {op: {"base": [], "change": []} for op in ops}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for op in ops:
                for side in order:
                    times[op][side].append(run_op(side, op))

    rng = np.random.default_rng(args.seed)
    result = {
        "base": base_sha,
        "change": "src/ of the working tree at %s%s" % (
            git("rev-parse", "HEAD", text=True).strip(),
            ", with edits" if git("status", "--porcelain", "src", text=True) else ""),
        "pairs": args.pairs, "seed": args.seed, "ops": {},
    }
    print("%-20s %10s %10s %7s  %-15s %s" % ("op", "base_ms", "change_ms", "ratio", "95% interval",
                                             "same_csv"))
    for op in ops:
        base, change = np.array(times[op]["base"]), np.array(times[op]["change"])
        ratios = change / base
        boot = np.median(rng.choice(ratios, (BOOTSTRAP, ratios.size)), axis=1)
        lo, hi = np.percentile(boot, [2.5, 97.5])
        row = {
            "base_ms": 1e3 * float(np.median(base)),
            "change_ms": 1e3 * float(np.median(change)),
            "ratio": float(np.median(ratios)),
            "ratio_lo": float(lo),
            "ratio_hi": float(hi),
            "change_faster": int(np.sum(ratios < 1.0)),
            "same_csv": same[op.split(":")[-1]],
        }
        result["ops"][op] = row
        print("%-20s %10.2f %10.2f %7.3f  [%.3f, %.3f]  %s" % (
            op, row["base_ms"], row["change_ms"], row["ratio"], lo, hi,
            "yes" if row["same_csv"] else "NO"))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
