"""Deterministic report assembly and rendering.

Reports carry no timestamps; the same spec and seed produce byte-identical
output.  Floats are rendered with 17 significant digits so residuals
round-trip exactly; non-finite floats, which JSON cannot express, render
as null.
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


def _render(value, pieces: list[str]) -> None:
    if isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        pieces.append(format(value, ".17g") if math.isfinite(value) else "null")
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif value is None:
        pieces.append("null")
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            _render(str(key), pieces)
            pieces.append(": ")
            _render(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(", ")
            _render(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_json(report: dict) -> str:
    pieces: list[str] = []
    _render(report, pieces)
    pieces.append("\n")
    return "".join(pieces)


def check_lines(checks: list[CheckResult]) -> list[str]:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.suite}/{c.name}  samples={c.samples}  "
            f"max_residual={format(c.max_residual, '.3e')}"
        )
    return lines
