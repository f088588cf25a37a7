"""Benchmark of ``dvbcalc verify`` on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run times verify calls for S seconds and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
calls and reports the per-layer metrics.  Every call passes the gate in
``workloads.gate`` or is not timed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import os

# One thread for the numeric libraries, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import refkernel
from layertrace import ELEMENT_INITS, Tracer
from workloads import ALL_SUITES, WORKLOADS, Verdict, Workload, expected_checks, gate

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

SETUP_PROBES = 12

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "expressions.calls": "count",
    "expressions.nodes": "count",
    "expressions.self_s": "s",
    "jets.created": "count",
    "jets.derivative_calls": "count",
    "jets.self_s": "s",
    "jets.domain_errors": "count",
    "smoothmaps.map_evals": "count",
    "smoothmaps.jacobians": "count",
    "smoothmaps.lie_bracket_us": "us",
    "smoothmaps.self_s": "s",
    "dvb.elements_built": "count",
    "dvb.pairings": "count",
    "dvb.core_differences": "count",
    "dvb.elements_per_core_difference": "ratio",
    "dvb.self_s": "s",
    "sections.warps": "count",
    "sections.warp_us": "us",
    "sections.squarecaps": "count",
    "sections.self_s": "s",
    "tangent.grids_built": "count",
    "tangent.self_s": "s",
    "cotangent.flips": "count",
    "cotangent.self_s": "s",
    "charts.nabla_calls": "count",
    "charts.self_s": "s",
    **{f"harness.suites.{suite}.s": "s" for suite in ALL_SUITES},
    "harness.suites.self_s": "s",
    "harness.problem.load_s": "s",
    "harness.report.render_s": "s",
    "trace.overhead": "ratio",
}

# Run in a fresh interpreter: import the package and load the spec.  The
# package's own first import is numpy, timed on its own as the probe's unit.
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
from dvbcalc.harness.problem import ProblemSpec, demo_spec_dict
if sys.argv[2] == "-":
    ProblemSpec.from_dict(demo_spec_dict())
else:
    ProblemSpec.from_file(sys.argv[2])
print(repr(time.perf_counter() - start), repr(numpy_s))
"""
# setup_s is reported in units of numpy's import time in the same probe,
# converted to seconds on a machine where that import takes 0.1 s.  On a
# shared machine the raw median moved by about 25% between quiet and busy
# spells; the ratio to numpy's import (about 1.37) by about 1%.
NUMPY_IMPORT_S = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_verify():
    """``dvbcalc.harness.cli.main`` imported from this checkout's sources."""
    if not (SRC / "dvbcalc" / "__init__.py").is_file():
        raise BenchError(f"no dvbcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from dvbcalc.harness import cli

    if Path(cli.__file__).resolve().parents[2] != SRC.resolve():
        raise BenchError(f"dvbcalc was imported from {cli.__file__}, not from {SRC}")
    return cli.main


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            threads = next((int(line.split()[1]) for line in handle if line.startswith("Threads:")), None)
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dvbcalc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": threads,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def call_verify(main, argv: list[str], out: Path) -> tuple[int | None, bytes | None, float]:
    """One verify call: exit code (None if it raised), report bytes, wall seconds."""
    out.unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    try:
        rc = main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - start
    report = out.read_bytes() if out.exists() else None
    return rc, report, wall


class Tally:
    """Checks attempted and failed over every call of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, verdict: Verdict) -> bool:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        for reason in verdict.reasons:
            print(f"gate: {reason}", file=sys.stderr)
        self.reasons += verdict.reasons
        return verdict.ok


def setup_time(workload: Workload) -> tuple[float, float]:
    """Seconds to import the package and load the spec in a fresh interpreter,
    and the part of them spent importing numpy."""
    spec = "-" if workload.spec is None else str(HERE / workload.spec)
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), spec],
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise BenchError(f"setup probe failed: {done.stderr.strip()}")
    setup, numpy_s = map(float, done.stdout.split())
    return setup, numpy_s


def reference_time() -> float:
    """Seconds of one run of the reference kernel."""
    start = time.perf_counter()
    refkernel.run()
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_run(main, workload: Workload, seed: int, seconds: float, out: Path):
    """Time verify calls for ``seconds``; return the tally and the metrics."""
    expected = expected_checks(workload.name)
    argv = workload.verify_argv(seed, str(out))
    tally = Tally()
    rc, reference, _ = call_verify(main, argv, out)  # warm-up, not timed
    tally.add(gate(rc, reference, expected, None))
    setup_time(workload)  # warm-up: bytecode caches and the file cache fill
    walls, ratios, setups = [], [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        # Setup probes are spread over the run, so they see the same mix of
        # fast and slow spells as the verify calls.
        if len(setups) < SETUP_PROBES * elapsed / seconds:
            setups.append(setup_time(workload))
            continue
        kernel = reference_time()
        rc, report, wall = call_verify(main, argv, out)
        if tally.add(gate(rc, report, expected, reference)):
            walls.append(wall)
            ratios.append(wall / kernel)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_time(workload))
    samples = workload.samples * len(workload.suites)
    if not walls:
        return tally, {}
    q1, median, q3 = quartiles([samples / wall for wall in walls])
    print(f"samples_per_s wall-clock median={median:.6g} q1={q1:.6g} q3={q3:.6g} calls={len(walls)}")
    raw_setup = statistics.median(setup for setup, _ in setups)
    print(f"setup_s wall-clock median={raw_setup:.6g} probes={len(setups)}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Verify calls are timed in units of the reference kernel run just before
    # each of them, converted to seconds on the reference machine (refkernel.py).
    return tally, {
        "samples_per_s": samples / (refkernel.REFERENCE_S * statistics.median(ratios)),
        "setup_s": NUMPY_IMPORT_S * statistics.median(s / n for s, n in setups),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def traced_run(main, workload: Workload, seed: int, seconds: float, out: Path):
    """Alternate untraced and traced calls for ``seconds``; return the tally and metrics."""
    expected = expected_checks(workload.name)
    argv = workload.verify_argv(seed, str(out))
    tally = Tally()
    rc, reference, _ = call_verify(main, argv, out)  # warm-up, not timed
    tally.add(gate(rc, reference, expected, None))
    tracer = Tracer()
    traces, ratios = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rc, report, wall = call_verify(main, argv, out)
        untraced_ok = tally.add(gate(rc, report, expected, reference))
        trace = []
        tracer.install()
        try:
            rc, report, _ = call_verify(lambda a: _traced_call(tracer, main, a, trace), argv, out)
        finally:
            tracer.uninstall()
        if tally.add(gate(rc, report, expected, reference)):
            traces += trace
            if untraced_ok:
                ratios.append(trace[0].wall_s / wall)
    if not traces or not ratios:
        return tally, {}
    print(f"traced calls={len(traces)} pairs={len(ratios)}")
    metrics = layer_metrics(traces)
    # Each traced call is compared with the untraced call just before it,
    # so the machine's drift cancels within a pair.
    metrics["trace.overhead"] = statistics.median(ratios)
    return tally, metrics


def _traced_call(tracer, main, argv, sink: list):
    rc, trace = tracer.run(main, argv)
    sink.append(trace)
    return rc


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one verify call, as medians over the traced calls."""

    def median(fn):
        return statistics.median(fn(t) for t in traces)

    def calls(*keys):
        return median(lambda t: sum(t.calls.get(k, 0) for k in keys))

    def entries(*keys):
        return median(lambda t: sum(t.entries.get(k, 0) for k in keys))

    def self_s(layer):
        return median(lambda t: t.layer_self_s[layer])

    def mean_us(key):
        return median(lambda t: 1e6 * t.timed_s[key] / t.calls[key] if t.calls.get(key) else 0.0)

    core = "dvb.core_difference"
    metrics = {
        "expressions.calls": median(lambda t: t.layer_spans["expressions"]),
        "expressions.nodes": calls("expressions.evaluate"),
        "expressions.self_s": self_s("expressions"),
        "jets.created": calls("jets.Jet.__init__"),
        "jets.derivative_calls": entries(
            "jets.generic_jacobian", "jets.jet_jacobian", "jets.jet_gradient", "jets.jet_directional"
        ),
        "jets.self_s": self_s("jets"),
        "jets.domain_errors": median(lambda t: t.domain_errors),
        "smoothmaps.map_evals": calls("smoothmaps.SmoothMap.eval_generic"),
        "smoothmaps.jacobians": calls("smoothmaps.jacobian"),
        "smoothmaps.lie_bracket_us": mean_us("smoothmaps.lie_bracket"),
        "smoothmaps.self_s": self_s("smoothmaps"),
        "dvb.elements_built": calls(*ELEMENT_INITS),
        "dvb.pairings": calls(
            "dvb.pair_a", "dvb.pair_b", "dvb.pair_cstar_a", "dvb.pair_cstar_b",
            "dvb.pair_duals_ab", "dvb.pair_duals_ba",
        ),
        "dvb.core_differences": calls(core),
        "dvb.elements_per_core_difference": median(
            lambda t: t.timed_elements[core] / t.calls[core] if t.calls.get(core) else 0.0
        ),
        "dvb.self_s": self_s("dvb"),
        "sections.warps": calls("sections.warp"),
        "sections.warp_us": mean_us("sections.warp"),
        "sections.squarecaps": calls("sections.squarecap_a", "sections.squarecap_b"),
        "sections.self_s": self_s("sections"),
        "tangent.grids_built": calls(
            "tangent.double_tangent_grid",
            "tangent.connection_grid",
            "tangent.linear_vector_field_operator.<locals>.apply",
        ),
        "tangent.self_s": self_s("tangent"),
        "cotangent.flips": calls("cotangent.cotangent_flip", "cotangent.flip_coords"),
        "cotangent.self_s": self_s("cotangent"),
        "charts.nabla_calls": calls("charts.Connection.nabla", "charts.Connection.dual_nabla"),
        "charts.self_s": self_s("charts"),
    }
    for suite in ALL_SUITES:
        key = f"harness.suites.{suite}"
        metrics[f"{key}.s"] = median(lambda t: t.timed_s.get(key, 0.0))
    metrics["harness.suites.self_s"] = self_s("harness.suites")
    metrics["harness.problem.load_s"] = median(lambda t: t.layer_incl_s["harness.problem"])
    metrics["harness.report.render_s"] = median(lambda t: t.layer_incl_s["harness.report"])
    return metrics


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    main = import_verify()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if env["threads"] is not None and env["nproc"] and env["threads"] > env["nproc"]:
        raise BenchError(f"{env['threads']} threads exceed nproc={env['nproc']}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=CHECKOUT))
    try:
        runner = traced_run if args.trace else timed_run
        tally, values = runner(main, workload, args.seed, args.seconds, workdir / "report.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    correct = tally.failed == 0 and not tally.reasons and set(values) == set(units)
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one line per workload and metric."""
    status = 0
    print(f"{'workload':<12} {'metric':<14} {'value':>12}  unit")
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180 + args.seconds,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            print(f"{name:<12} failed (exit {done.returncode}): {done.stderr.strip()[-500:]}")
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:<12} {metric:<14} {entry['value']:>12.6g}  {entry['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<12} {'fail_ratio':<14} {ratio:>12.6g}  {result['failed']}/{result['attempted']} checks")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("seed must be non-negative and seconds positive", file=sys.stderr)
        return 2
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
