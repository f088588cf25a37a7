"""The benchmark's workloads and the correctness gate on their reports.

Each workload is one ``dvbcalc verify`` command line: a spec, a list of
suites and a sample count.  ``algebra`` and ``calculus`` together are the
eight suites of ``verify --demo``; ``named-maps`` runs the six calculus
suites on the committed spec ``named_maps.json``.  README.md says why each
was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

ALGEBRA_SUITES = ("duality-solve", "warp-pairing")
CALCULUS_SUITES = (
    "bracket",
    "connection",
    "cotangent-duality",
    "duality-diagram",
    "bracket-pairing",
    "connection-pairing",
)
ALL_SUITES = ALGEBRA_SUITES + CALCULUS_SUITES


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str | None  # a spec file in this directory; None is the built-in demo spec
    suites: tuple[str, ...]
    samples: int

    def verify_argv(self, seed: int, json_out: str) -> list[str]:
        argv = ["verify"]
        argv += ["--demo"] if self.spec is None else [str(HERE / self.spec)]
        for suite in self.suites:
            argv += ["--suite", suite]
        argv += ["--samples", str(self.samples), "--seed", str(seed)]
        return argv + ["--json-out", json_out, "--quiet"]


# Sample counts keep one verify call near 0.1-0.35 s, so a run times a
# hundred calls or more, each paired with a run of the reference kernel
# that tracks the machine's drift.  At these counts the work of a call
# varies by at most 1.3% (interquartile range of traced call counts) between
# seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("algebra", None, ALGEBRA_SUITES, 10),
        Workload("calculus", None, CALCULUS_SUITES, 24),
        Workload("named-maps", "named_maps.json", CALCULUS_SUITES, 12),
    )
}

Check = tuple[str, str, int]  # (suite, check name, samples)


def expected_checks(name: str) -> frozenset[Check]:
    """The pinned (suite, check, samples) set of a workload's report."""
    pinned = json.loads((HERE / "expected_checks.json").read_text(encoding="utf-8"))
    return frozenset((suite, check, samples) for suite, check, samples in pinned[name])


@dataclass
class Verdict:
    """Gate outcome of one verify call; a call with reasons is never timed."""

    attempted: int
    failed: int
    reasons: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def gate(
    rc: int | None,
    report: bytes | None,
    expected: frozenset[Check],
    reference: bytes | None,
) -> Verdict:
    """Check one verify call against the pinned checks and the reference bytes.

    ``rc`` is None when the call raised.  A crash, an exit code other than
    0 or 1, or an unreadable report counts every expected check as failed.
    Otherwise each failing check (a ``domain-error`` check included), each
    expected check that is missing or ran a different number of samples,
    and each unexpected check counts as one failure.  A report whose bytes
    differ from ``reference``, the first report of the same seed, counts
    every check as failed.
    """
    if rc not in (0, 1) or report is None:
        return Verdict(len(expected), len(expected), [f"verify exited with {rc!r}"])
    try:
        parsed = json.loads(report)
        got = {(c["suite"], c["name"], c["samples"]): c["passed"] for c in parsed["checks"]}
        overall = parsed["overall"]
    except (ValueError, KeyError, TypeError) as err:
        return Verdict(len(expected), len(expected), [f"unreadable report: {err}"])

    reasons = []
    missing = expected - got.keys()
    extra = got.keys() - expected
    failing = sorted(check for check, passed in got.items() if passed is not True)
    if missing:
        reasons.append(f"missing or resampled checks: {sorted(missing)}")
    if extra:
        reasons.append(f"unexpected checks: {sorted(extra)}")
    if failing:
        reasons.append(f"failing checks: {failing}")
    if (rc, overall) != (0, "pass"):
        reasons.append(f"exit code {rc} with overall {overall!r}")
    attempted = len(expected | got.keys())
    failed = len(missing) + len(extra) + len(set(failing) - extra)
    if reference is not None and report != reference:
        reasons.append("report bytes differ from the first report of this seed")
        failed = attempted
    if reasons and failed == 0:
        failed = attempted
    return Verdict(attempted, failed, reasons)
