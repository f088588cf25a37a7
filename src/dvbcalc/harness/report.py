"""Deterministic report assembly and rendering.

Reports carry no timestamps; the same spec and seed produce byte-identical
output.  The standard JSON encoder writes each float as the shortest text
that reads back to the same double; non-finite floats, which JSON cannot
express, render as null.  A check is its report entry, the dict that
``suites.run_suites`` returns for it.
"""

from __future__ import annotations

import json
import math


def build_report(checks: list[dict], config: dict) -> dict:
    return {
        "checks": checks,
        "overall": "pass" if all(c["passed"] for c in checks) else "fail",
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


def check_lines(checks: list[dict]) -> list[str]:
    lines = []
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(
            f"{status}  {c['suite']}/{c['name']}  samples={c['samples']}  "
            f"max_residual={format(c['max_residual'], '.3e')}"
        )
    return lines
