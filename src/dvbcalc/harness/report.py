"""Deterministic report assembly and rendering.

Reports carry no timestamps; the same spec and seed produce byte-identical
output.  The standard JSON encoder writes each float as the shortest text
that reads back to the same double; non-finite floats, which JSON cannot
express, render as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckResult:
    name: str
    suite: str
    description: str
    samples: int
    max_residual: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "suite": self.suite,
            "description": self.description,
            "samples": self.samples,
            "max_residual": float(self.max_residual),
            "passed": self.passed,
        }
        if self.details:
            out["details"] = self.details
        return out


def build_report(checks: list[CheckResult], config: dict) -> dict:
    return {
        "checks": [c.as_dict() for c in checks],
        "overall": "pass" if all(c.passed for c in checks) else "fail",
        "config_echo": config,
    }


def _finite(value):
    """``value`` with each non-finite float replaced by None and each key a str."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(key): _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def render_json(report: dict) -> str:
    return json.dumps(_finite(report), allow_nan=False) + "\n"


def check_lines(checks: list[CheckResult]) -> list[str]:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.suite}/{c.name}  samples={c.samples}  "
            f"max_residual={format(c.max_residual, '.3e')}"
        )
    return lines
