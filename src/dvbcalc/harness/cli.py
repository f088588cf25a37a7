"""Command line entry point.

``dvbcalc verify`` reads a JSON problem description (or the built-in demo),
runs the requested suites and emits a deterministic JSON report.  Exit code
0 means every check passed, 1 means at least one failed, 2 means the
problem description could not be used or the report could not be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

import numpy as np

from .problem import ProblemSpec, SpecError, demo_spec_dict
from .report import build_report, check_lines, render_json
from .suites import SUITES, resolve_run, run_suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvbcalc",
        description="Numerical verification for double vector bundle calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites against a problem spec")
    verify.add_argument("spec", nargs="?", help="path to a JSON problem spec")
    verify.add_argument("--demo", action="store_true", help="use the built-in demo spec")
    verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="run only this suite (repeatable; default: all)",
    )
    verify.add_argument("--samples", type=int, help="override the sample count")
    verify.add_argument("--seed", type=int, help="override the random seed")
    verify.add_argument("--tol", type=float, help="override the tolerance")
    verify.add_argument("--json-out", metavar="PATH", help="write the JSON report to PATH")
    verify.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    return parser


def _load_spec(args) -> ProblemSpec:
    if args.demo:
        if args.spec is not None:
            raise SpecError("give either a spec path or --demo, not both")
        return ProblemSpec.from_dict(demo_spec_dict())
    if args.spec is None:
        raise SpecError("a spec path or --demo is required")
    return ProblemSpec.from_file(args.spec)


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write the report: {exc}", file=sys.stderr)
    return 2


def run_verify(args) -> int:
    try:
        spec = _load_spec(args)
        run = resolve_run(spec, args.suite, args.samples, args.seed, args.tol)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2

    # The report path is probed before any suite runs, so an unwritable path
    # costs no run; opening it to append changes nothing in an existing file.
    # Only the probe and the final write count as write errors; an OSError
    # raised inside a suite propagates like any other crash.
    created = False
    if args.json_out:
        created = not os.path.exists(args.json_out)
        try:
            open(args.json_out, "a", encoding="utf-8").close()
        except OSError as exc:
            return _cannot_write(exc)
    try:
        # Non-finite values fail their checks, so numpy's warnings about
        # them would only add noise on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            checks = run_suites(spec, *run)
        report = build_report(checks, run._asdict())
        text = render_json(report)
    except BaseException:
        # Only a finished run writes a report: a crash leaves an existing
        # file as it was and removes the one the probe made.
        if created:
            os.remove(args.json_out)
        raise
    if not args.quiet:
        for line in check_lines(checks):
            print(line)
        print(f"overall: {report['overall']}")
    try:
        with open(args.json_out, "w", encoding="utf-8") if args.json_out else nullcontext(sys.stdout) as out:
            out.write(text)
            out.flush()
    except OSError as exc:
        return _cannot_write(exc)

    return 0 if report["overall"] == "pass" else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return run_verify(args)
    parser.error(f"unknown command: {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
