"""Command-line front end: run, validate and demo subcommands."""

from __future__ import annotations

import argparse
import sys

from . import scenario

EXIT_OK = 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamowlab",
        description=(
            "Scenario-driven simulations of non-unitary observable dynamics: "
            "channel iterations, resonance evolutions and projector-lattice checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and write CSV/report outputs")
    run.add_argument("scenario", help="path to the scenario JSON file")
    run.add_argument("--out", required=True, help="output directory (created if missing)")

    validate = sub.add_parser("validate", help="check a scenario file without running it")
    validate.add_argument("scenario", help="path to the scenario JSON file")

    demo = sub.add_parser("demo", help="write the three worked example scenario files")
    demo.add_argument("--out", required=True, help="directory for the demo scenario files")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return scenario.run_file(args.scenario, args.out)
    if args.command == "validate":
        diagnostics = scenario.validate_file(args.scenario)
        if diagnostics:
            return scenario.report_invalid(diagnostics)
        print("scenario is valid")
        return EXIT_OK
    written = scenario.write_demo_files(args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
