"""Command line entry point.

``dvbcalc verify`` reads a JSON problem description (or the built-in demo),
runs the requested suites and emits a deterministic JSON report.  Exit code
0 means every check passed, 1 means at least one failed, 2 means the
problem description could not be used or the report could not be written.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import stat
import sys
import tempfile
from contextlib import suppress

import numpy as np

from .problem import ProblemSpec, SpecError, demo_spec_dict
from .report import build_report, check_lines, render_json
from .suites import SUITES, resolve_run, run_suites


def build_parser() -> argparse.ArgumentParser:
    """A new parser, which a caller may extend; ``main`` builds one and keeps it."""
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


def _cannot_write(path: str | None, exc: OSError) -> int:
    # The reason, then the report's path: the file exc names may be a probe or temporary file.
    reason = f"[Errno {exc.errno}] {exc.strerror}" if exc.strerror else exc
    print(f"error: cannot write the report: {reason}" + (f": {path!r}" if path else ""), file=sys.stderr)
    return 2


def _replaced(path: str) -> str:
    """The file a report to path replaces: a symlink's target, else path itself."""
    return os.path.realpath(path) if os.path.islink(path) else path


def _probe_report(path: str) -> None:
    """Raise OSError where the report could not be written to path; change nothing there."""
    if os.path.exists(path) and not stat.S_ISFIFO(os.stat(path).st_mode):  # a FIFO's open waits for a reader
        open(path, "a", encoding="utf-8").close()
    directory = os.path.dirname(_replaced(path)) or os.curdir
    if (not os.path.exists(path) or os.path.isfile(path)) and not os.access(directory, os.W_OK | os.X_OK):
        # The report is written to a new file beside it; making one raises the reason.
        tempfile.TemporaryFile(dir=directory).close()


def _write_report(path: str, text: str) -> None:
    """Write the report to path, a symlink followed.  A regular file, or no
    file yet, is replaced by a complete new one with the mode open(path, "w")
    would give it, so a failed write leaves the path as it was; anything
    else, such as a FIFO or /dev/null, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        return
    target = _replaced(path)
    temp = f"{target}.{os.urandom(8).hex()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8",
                  opener=lambda name, flags: os.open(name, flags | os.O_EXCL, 0o666)) as out:
            out.write(text)
        if os.path.exists(target):
            shutil.copymode(target, temp)
        os.replace(temp, target)
    finally:
        with suppress(FileNotFoundError):  # gone once it has replaced the target
            os.remove(temp)


def run_verify(args) -> int:
    try:
        spec = _load_spec(args)
        run = resolve_run(spec, args.suite, args.samples, args.seed, args.tol)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2

    # The report path is probed before any suite runs, so an unwritable path
    # costs no run.  Only the probe and the final write count as write errors;
    # an OSError raised inside a suite propagates like any other crash.
    if args.json_out:
        try:
            _probe_report(args.json_out)
        except OSError as exc:
            return _cannot_write(args.json_out, exc)
    # Non-finite values fail their checks, so numpy's warnings about
    # them would only add noise on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        checks = run_suites(spec, *run)
    report = build_report(checks, run._asdict())
    text = render_json(report)
    if not args.quiet:
        for line in check_lines(checks):
            print(line)
        print(f"overall: {report['overall']}")
    try:
        if args.json_out:
            _write_report(args.json_out, text)
        else:
            print(text, end="", flush=True)
    except OSError as exc:
        return _cannot_write(args.json_out, exc)

    return 0 if report["overall"] == "pass" else 1


# Built on the first call, not at import, and reused by every later one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    return run_verify(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
