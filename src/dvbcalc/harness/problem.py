"""Problem specifications for the verification harness.

A spec is a JSON object with keys "chart", "fields", "sections",
"connection", "dvb_shapes", "samples", "seed", "tolerance".  Only "chart"
is required.  All expressions are parsed against the declared chart
dimension at load time so malformed input fails before any suite runs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from ..charts import Chart, Connection, TrivialBundle
from ..dvb import DvbShape
from ..expressions import ParseError
from ..smoothmaps import DimensionMismatch, SmoothMap

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42
DEFAULT_TOLERANCE = 1e-9

DEFAULT_SHAPES = (
    DvbShape(1, 1, 1, 0),
    DvbShape(2, 1, 2, 1),
    DvbShape(1, 3, 2, 2),
    DvbShape(3, 2, 4, 1),
    DvbShape(4, 4, 3, 3),
    DvbShape(2, 4, 1, 2),
)


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    chart: Chart
    fields: dict[str, SmoothMap] = field(default_factory=dict)
    sections: dict[str, SmoothMap] = field(default_factory=dict)
    connection: Connection | None = None
    dvb_shapes: tuple[DvbShape, ...] = DEFAULT_SHAPES
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        # The rules for a run's settings, whether they come from a spec file
        # or from command line overrides (see suites.resolve_run).
        if not _is_int(self.samples) or self.samples < 1:
            raise SpecError("samples must be a positive integer")
        if not _is_int(self.seed) or self.seed < 0:
            raise SpecError("seed must be a non-negative integer")
        object.__setattr__(self, "tolerance", check_tolerance(self.tolerance))

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise SpecError("spec must be a JSON object")
        known = {
            "chart", "fields", "sections", "connection",
            "dvb_shapes", "samples", "seed", "tolerance",
        }
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")

        chart = _load_chart(data.get("chart"))
        fields = _load_maps(data.get("fields", {}), chart.dim, "fields")
        for name, m in fields.items():
            if m.codomain_dim != chart.dim:
                raise SpecError(
                    f"fields.{name}: a vector field needs {chart.dim} components, got {m.codomain_dim}"
                )
        sections = _load_maps(data.get("sections", {}), chart.dim, "sections")
        connection = _load_connection(data.get("connection"), chart)
        shapes = _load_shapes(data.get("dvb_shapes"))

        return cls(
            chart=chart,
            fields=fields,
            sections=sections,
            connection=connection,
            dvb_shapes=shapes,
            samples=data.get("samples", DEFAULT_SAMPLES),
            seed=data.get("seed", DEFAULT_SEED),
            tolerance=data.get("tolerance", DEFAULT_TOLERANCE),
        )

    @classmethod
    def from_file(cls, path: str) -> "ProblemSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as err:
            raise SpecError(f"cannot read spec file: {err}") from err
        except UnicodeDecodeError as err:
            raise SpecError(f"spec is not UTF-8 text: {err}") from err
        except json.JSONDecodeError as err:
            raise SpecError(f"spec is not valid JSON: {err}") from err
        except RecursionError as err:
            raise SpecError("spec JSON is nested too deeply") from err
        return cls.from_dict(data)


def check_tolerance(value) -> float:
    """The one rule for a tolerance, from a spec or the command line: finite and > 0."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0 < value <= sys.float_info.max
    ):
        raise SpecError("tolerance must be a finite positive number")
    return float(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load_chart(data) -> Chart:
    if data is None:
        raise SpecError("spec requires a chart")
    if not isinstance(data, dict) or "dim" not in data:
        raise SpecError("chart must be an object with a dim")
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise SpecError("chart.dim must be a positive integer")
    box = data.get("box", [])
    try:
        return Chart(dim, tuple(tuple(pair) for pair in box))
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"chart.box: {err}") from err


def _load_maps(data, dim: int, label: str) -> dict[str, SmoothMap]:
    if not isinstance(data, dict):
        raise SpecError(f"{label} must map names to component lists")
    out: dict[str, SmoothMap] = {}
    for name, comps in data.items():
        if not isinstance(comps, list) or not comps or not all(isinstance(c, str) for c in comps):
            raise SpecError(f"{label}.{name} must be a non-empty list of expressions")
        try:
            out[name] = SmoothMap.parse(comps, dim)
        except (ParseError, DimensionMismatch) as err:
            raise SpecError(f"{label}.{name}: {err}") from err
    return out


def _load_connection(data, chart: Chart) -> Connection | None:
    if data is None:
        return None
    if not isinstance(data, dict) or "forms" not in data:
        raise SpecError("connection must be an object with forms")
    forms = data["forms"]
    n = chart.dim
    if not isinstance(forms, list) or len(forms) != n:
        raise SpecError(f"connection.forms must list one matrix per chart direction ({n})")
    k = data.get("fiber_dim")
    if k is None:
        k = len(forms[0]) if forms and isinstance(forms[0], list) else 0
    if not _is_int(k) or k < 1:
        raise SpecError("connection.fiber_dim must be a positive integer")
    flat: list[str] = []
    for j, matrix in enumerate(forms):
        if not isinstance(matrix, list) or len(matrix) != k:
            raise SpecError(f"connection.forms[{j}] must be a {k}x{k} matrix")
        for row in matrix:
            if not isinstance(row, list) or len(row) != k or not all(isinstance(e, str) for e in row):
                raise SpecError(f"connection.forms[{j}] must be a {k}x{k} matrix of expressions")
            flat.extend(row)
    try:
        coeff_map = SmoothMap.parse(flat, n)
    except (ParseError, DimensionMismatch) as err:
        raise SpecError(f"connection.forms: {err}") from err
    bundle = TrivialBundle(chart, k)
    return Connection.from_smooth_map(bundle, coeff_map)


def _load_shapes(data) -> tuple[DvbShape, ...]:
    if data is None:
        return DEFAULT_SHAPES
    if not isinstance(data, list) or not data:
        raise SpecError("dvb_shapes must be a non-empty list of [dim_a, dim_b, dim_c, base_dim]")
    shapes = []
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 4
            or not all(_is_int(v) for v in entry)
        ):
            raise SpecError(f"dvb_shapes[{i}] must be four integers")
        try:
            shapes.append(DvbShape(*entry))
        except ValueError as err:
            raise SpecError(f"dvb_shapes[{i}]: {err}") from err
    return tuple(shapes)


def demo_spec_dict() -> dict:
    """A small built-in spec exercising every suite on a 2-chart."""
    return {
        "chart": {"dim": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]]},
        "fields": {
            "X": ["1", "0"],
            "Y": ["0", "x0"],
        },
        "sections": {
            "mu": ["x1", "x0*x1"],
        },
        "connection": {
            "fiber_dim": 2,
            "forms": [
                [["0.1", "x1"], ["0", "0.2"]],
                [["x0", "0"], ["0.3", "0.1*x0"]],
            ],
        },
        "samples": 50,
        "seed": 42,
        "tolerance": 1e-9,
    }
