"""Command line entry point.

``dvbcalc verify`` reads a JSON problem description (or the built-in demo),
runs the requested suites and emits a deterministic JSON report.  Exit code
0 means every check passed, 1 means at least one failed, 2 means the
problem description could not be used.
"""

from __future__ import annotations

import argparse
import sys

from .problem import ProblemSpec, SpecError, check_tolerance, demo_spec_dict
from .report import build_report, check_lines, render_json
from .suites import SUITES, run_suites


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


def run_verify(args) -> int:
    try:
        spec = _load_spec(args)
        if args.samples is not None and args.samples <= 0:
            raise SpecError("samples must be positive")
        if args.tol is not None:
            check_tolerance(args.tol)
        checks = run_suites(
            spec,
            suite_names=args.suite,
            samples=args.samples,
            seed=args.seed,
            tolerance=args.tol,
        )
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2

    config = {
        "suites": sorted(args.suite, key=lambda n: SUITES[n][0]) if args.suite else sorted(SUITES, key=lambda n: SUITES[n][0]),
        "samples": spec.samples if args.samples is None else args.samples,
        "seed": spec.seed if args.seed is None else args.seed,
        "tolerance": spec.tolerance if args.tol is None else args.tol,
    }
    report = build_report(checks, config)
    rendered = render_json(report)

    if not args.quiet:
        for line in check_lines(checks):
            print(line)
        print(f"overall: {report['overall']}")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)

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
