"""Verification harness: problem specs, suites and deterministic reports."""

from .problem import ProblemSpec, SpecError, demo_spec_dict
from .report import build_report, check_lines, render_json
from .suites import SUITES, run_suites

__all__ = [
    "ProblemSpec",
    "SUITES",
    "SpecError",
    "build_report",
    "check_lines",
    "demo_spec_dict",
    "render_json",
    "run_suites",
]
