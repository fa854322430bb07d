#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how much it spreads.

    python3 perfbench/spread.py --first-seed 1 [--out perfbench/baseline.json]

Each workload in ``BENCHMARK.json`` runs ten times, with seeds from
``--first-seed`` on, each run the benchmark's command in a fresh process with
its ``run_seconds``.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, their
distance as a share of the median, next to the metric's bound, and at the end
the largest spread as a share of its bound, with ``setup_s`` (whose spread
the bound does not limit) apart from the rest.  With
``--out`` it also makes one ``--trace 1`` run per workload and writes the
medians, the per-layer split and the environment as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(lines[-1]), lines[:-1]


def line_value(lines: list[str], prefix: str) -> str:
    return next(line[len(prefix):].strip() for line in lines if line.startswith(prefix))


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write a baseline file here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    baseline = {"environment": environment(), "run_seconds": SPEC["run_seconds"],
                "seeds": seeds, "workloads": {}}
    worst = worst_setup = 0.0
    for workload in SPEC["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        digests = {}
        for seed in seeds:
            result, lines = bench(name, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            digests[seed] = line_value(lines, "csv sha256")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        print("%s: %d runs, %d ops attempted, %d failed" % (name, len(seeds), attempted, failed))
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if metric == "setup_s":
                worst_setup = max(worst_setup, spread / bounds[metric])
            else:
                worst = max(worst, spread / bounds[metric])
            summary[metric] = {"unit": units[metric], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bounds[metric], "values": vals}
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  bound %.2f"
                  % (metric, med, q1, q3, spread, bounds[metric]))
        entry = {"why": workload["why"], "attempted": attempted, "failed": failed,
                 "fail_ratio": failed / attempted, "end_to_end": summary,
                 "csv_sha256_by_seed": digests}
        if args.out:
            result, lines = bench(name, seeds[0], 1)
            layers = {k: m["value"] for k, m in result["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: {"value": v, "unit": result["metrics"][k]["unit"]}
                                  for k, v in layers.items()}
            entry["split_of_traced_op_time"] = {
                k: round(v / layers["trace.op_s"], 4)
                for k, v in layers.items() if k.endswith(".self_s")
            }
        baseline["workloads"][name] = entry
    print("largest spread as a share of its bound: %.3f; of setup_s: %.3f" % (worst, worst_setup))
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
