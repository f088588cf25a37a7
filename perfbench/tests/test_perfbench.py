"""Tests of the benchmark itself: names, determinism, tracing and the gate.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, expected_checks, gate  # noqa: E402

VERIFY = run.import_verify()


def _report(workload, seed, tmp_path, name="report.json"):
    out = tmp_path / name
    rc, report, _ = run.call_verify(VERIFY, workload.verify_argv(seed, str(out)), out)
    return rc, report


def test_names_match_benchmark_json():
    config = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER
    assert config["paths"] == [BENCH.name]
    pinned = json.loads((BENCH / "expected_checks.json").read_text())
    assert list(pinned) == list(WORKLOADS)


def test_seeded_run_reproduces_report_bytes(tmp_path):
    small = dataclasses.replace(WORKLOADS["calculus"], samples=6)
    rc1, first = _report(small, 7, tmp_path)
    rc2, second = _report(small, 7, tmp_path)
    rc3, other = _report(small, 8, tmp_path)
    assert (rc1, rc2, rc3) == (0, 0, 0)
    assert first == second
    assert first != other


def test_traced_call_keeps_report_bytes_and_restores_bindings(tmp_path):
    from dvbcalc import dvb, jets, sections
    from dvbcalc.harness import suites

    small = dataclasses.replace(WORKLOADS["algebra"], samples=6)
    rc, untraced = _report(small, 3, tmp_path)
    originals = (dvb.pair_a, sections.pair_a, suites.lie_bracket, jets.Jet.__radd__)
    tracer = Tracer()
    tracer.install()
    try:
        # Every binding of a wrapped function is replaced, aliases included.
        assert sections.pair_a is dvb.pair_a is not originals[0]
        assert suites.lie_bracket is not originals[2]
        assert jets.Jet.__radd__ is jets.Jet.__add__ is not originals[3]
        out = tmp_path / "traced.json"
        traced_rc, trace = tracer.run(VERIFY, small.verify_argv(3, str(out)))
    finally:
        tracer.uninstall()
    assert (dvb.pair_a, sections.pair_a, suites.lie_bracket, jets.Jet.__radd__) == originals
    assert traced_rc == rc == 0
    assert out.read_bytes() == untraced

    metrics = run.layer_metrics([trace])
    assert metrics["jets.created"] == 0  # the algebra uses no jets
    assert metrics["dvb.elements_built"] > 0
    assert metrics["expressions.nodes"] > metrics["expressions.calls"] > 0
    assert metrics["harness.suites.warp-pairing.s"] > 0
    assert set(trace.layer_self_s) == set(LAYERS) | {"harness.cli"}
    # Self times partition the root span.
    assert sum(trace.layer_self_s.values()) == pytest.approx(trace.wall_s, rel=1e-9)


@pytest.fixture(scope="module")
def algebra_report(tmp_path_factory):
    rc, report = _report(WORKLOADS["algebra"], 42, tmp_path_factory.mktemp("gate"))
    assert rc == 0
    return report


def _tamper(report: bytes, edit) -> bytes:
    parsed = json.loads(report)
    edit(parsed)
    return json.dumps(parsed).encode()


def test_gate_accepts_the_pinned_report(algebra_report):
    expected = expected_checks("algebra")
    verdict = gate(0, algebra_report, expected, algebra_report)
    assert verdict.ok and verdict.failed == 0 and verdict.attempted == len(expected)


def test_gate_rejects_a_dropped_check(algebra_report):
    report = _tamper(algebra_report, lambda r: r["checks"].pop(3))
    verdict = gate(0, report, expected_checks("algebra"), None)
    assert not verdict.ok and verdict.failed == 1


def test_gate_rejects_a_changed_sample_count(algebra_report):
    def fewer(r):
        r["checks"][0]["samples"] -= 1

    verdict = gate(0, _tamper(algebra_report, fewer), expected_checks("algebra"), None)
    assert not verdict.ok and verdict.failed >= 1


def test_gate_rejects_a_failing_check(algebra_report):
    def fail(r):
        r["checks"][1]["passed"] = False
        r["overall"] = "fail"

    verdict = gate(1, _tamper(algebra_report, fail), expected_checks("algebra"), None)
    assert not verdict.ok and verdict.failed == 1


def test_gate_rejects_changed_bytes_and_crashes(algebra_report):
    expected = expected_checks("algebra")
    reordered = _tamper(algebra_report, lambda r: r)  # same content, other bytes
    verdict = gate(0, reordered, expected, algebra_report)
    assert not verdict.ok and verdict.failed == len(expected)
    crashed = gate(None, None, expected, algebra_report)
    assert not crashed.ok and crashed.failed == len(expected)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
