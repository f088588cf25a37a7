"""Each benchmark workload's own command line, run in process, passes the benchmark's gate.

``perfbench/expected_checks.json`` pins the (suite, check, samples) set of
every workload's report, and the benchmark refuses a report that differs
from it; a changed sample count on any workload shows here.  These tests
only read ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

from dvbcalc.harness import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, expected_checks, gate  # noqa: E402


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_report_passes_the_benchmark_gate(tmp_path, name, seed):
    out = tmp_path / "report.json"
    rc = cli.main(WORKLOADS[name].verify_argv(seed, str(out)))
    verdict = gate(rc, out.read_bytes(), expected_checks(name), None)
    assert verdict.ok, verdict.reasons
