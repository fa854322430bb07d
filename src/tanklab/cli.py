"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .runner import recompute_metrics, run_scenario
from .scenarios import BUILTIN_SCENARIOS, ConfigError, get_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanklab",
        description="Water-tank testbed simulator: run scenarios and score "
        "tracking estimates against ground truth.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a built-in or file-defined scenario")
    run.add_argument("scenario", help="built-in name (%s) or a scenario file"
                     % ", ".join(BUILTIN_SCENARIOS))
    run.add_argument("--out", default=None, help="output directory (default: runs/<name>)")
    run.add_argument("--seed", type=int, default=None, help="the scenario seed, as --set seed=N")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a scenario setting")

    sub.add_parser("list-scenarios", help="list built-in scenarios")

    met = sub.add_parser("metrics", help="recompute metrics from a run directory")
    met.add_argument("run_dir")
    return parser


def _cmd_run(args) -> int:
    seed = [] if args.seed is None else ["seed=%d" % args.seed]
    scenario = get_scenario(args.scenario, [*args.overrides, *seed])
    out_dir = args.out or ("runs/%s" % scenario.name)
    artifacts = run_scenario(scenario, out_dir=out_dir)
    print("scenario %s: %d truth samples, %d detections, %d estimates -> %s"
          % (scenario.name, artifacts.truth.t.size, len(artifacts.detections),
             len(artifacts.estimates), out_dir))
    for name, value in sorted(artifacts.metrics.items()):
        print("  %-24s %.6g" % (name, value))
    return EXIT_OK


def _cmd_list() -> int:
    for name, path in BUILTIN_SCENARIOS.items():
        with open(path, encoding="utf-8") as fh:
            print("%-10s %s" % (name, fh.readline().removeprefix("# ").rstrip()))
    return EXIT_OK


def _cmd_metrics(args) -> int:
    for name, value in sorted(recompute_metrics(args.run_dir).items()):
        print("%-24s %.6g" % (name, value))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "list-scenarios":
            return _cmd_list()
        return _cmd_metrics(args)
    except (ConfigError, FileNotFoundError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure, distinct exit code
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
