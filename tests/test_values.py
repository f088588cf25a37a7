"""The library's value classes: equality, hashing, repr, immutability, ``_replace``, copies, import cost."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dvbcalc
from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.dvb import DvbShape
from dvbcalc.harness.problem import ProblemSpec, SpecError, demo_spec_dict
from dvbcalc.sections import Grid, LinearSectionA, LinearSectionB
from dvbcalc.smoothmaps import MatrixMap, PolyFamily, SmoothMap, jacobian

SRC = Path(dvbcalc.__file__).resolve().parents[1]


def _zeros(p):
    return np.zeros((len(p), 1, 1))


def _ones(p):
    return np.ones((len(p), 1, 1))


def _cases():
    """(value, an equal value built apart, values that differ) for each value class but PolyFamily."""
    shape, x, matrix = DvbShape(1, 1, 1, 1), SmoothMap.parse(["x0"], 1), MatrixMap((1, 1), _zeros)
    bundle = TrivialBundle(Chart(1), 1)
    xi, eta = LinearSectionB(shape, x, matrix), LinearSectionA(shape, x, matrix)
    spec = ProblemSpec.from_dict(demo_spec_dict())
    return {
        "DvbShape": (DvbShape(2, 1, 2, 1), DvbShape(2, 1, 2, 1), [DvbShape(2, 1, 2), DvbShape(1, 2, 2, 1)]),
        "Chart": (Chart(2), Chart(2, ((-1, 1), (-1.0, 1.0))), [Chart(2, ((-1, 1), (0, 1))), Chart(1)]),
        "TrivialBundle": (bundle, TrivialBundle(Chart(1), 1), [TrivialBundle(Chart(1), 2)]),
        "Connection": (Connection(bundle, MatrixMap((1, 1, 1), _zeros)),
                       Connection(TrivialBundle(Chart(1), 1), MatrixMap((1, 1, 1), _zeros)),
                       [Connection(bundle, MatrixMap((1, 1, 1), _ones))]),
        "SmoothMap": (SmoothMap.parse(["x0*x1", "sin(x1)"], 2), SmoothMap.parse(["x0 * x1", "sin(x1)"], 2),
                      [SmoothMap.parse(["x0*x1", "sin(x0)"], 2), SmoothMap.parse(["x0*x1", "sin(x1)"], 3)]),
        "MatrixMap": (matrix, MatrixMap((1, 1), _zeros),
                      [MatrixMap((1, 1), _ones), MatrixMap((1, 1, 1), _zeros)]),
        "LinearSection": (xi, LinearSectionB(shape, SmoothMap.parse(["x0"], 1), matrix),
                          [eta, LinearSectionB(shape, SmoothMap.parse(["2*x0"], 1), matrix)]),
        "Grid": (Grid(xi, eta), Grid(xi, LinearSectionA(shape, x, MatrixMap((1, 1), _zeros))),
                 [Grid(xi, LinearSectionA(shape, x, MatrixMap((1, 1), _ones)))]),
        "ProblemSpec": (spec, spec._replace(), [spec._replace(seed=1), spec._replace(fields={})]),
    }


CASES = _cases()


@pytest.mark.parametrize("name", CASES)
def test_values_are_equal_and_hashed_by_exact_class_and_fields(name):
    value, twin, others = CASES[name]
    assert value == twin and not value != twin
    assert all(value != other and other != value for other in others)
    fields = tuple(getattr(value, field) for field in type(value)._fields)
    assert value != fields and value != value._fields
    if name == "ProblemSpec":  # its dicts are unhashable, as a frozen dataclass's were
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert len({value, twin, *others}) == 1 + len(others)


def test_memo_and_derived_slots_are_outside_equality_hashing_and_repr():
    value, twin, _ = CASES["SmoothMap"]
    text, key = repr(value), hash(value)
    jacobian(value, np.array([[0.5, 0.25]]))
    assert value._last_pass is not None and getattr(twin, "_last_pass", None) is None
    assert (value == twin, hash(value), repr(value)) == (True, key, text)
    assert getattr(value._replace(), "_last_pass", None) is None

    conn, twin, _ = CASES["Connection"]
    text, key = repr(conn), hash(conn)
    conn.coefficient_tensor(np.array([[0.5]]))
    assert conn._last_tensor is not None
    assert (conn == twin, hash(conn), repr(conn)) == (True, key, text)
    assert getattr(conn._replace(), "_last_tensor", None) is None

    chart, twin, _ = CASES["Chart"]
    assert chart.lows is not twin.lows and chart == twin
    assert "lows" not in repr(chart) and "spans" not in repr(chart)
    assert chart._fields == ("dim", "box")


def test_a_family_is_equal_only_to_itself():
    rng = np.random.default_rng(0)
    family = PolyFamily(rng.random((2, 1)), rng.random((2, 1, 1)), rng.random((2, 1, 1, 1)))
    again = family._replace()
    assert family == family and family != again and again != family
    assert hash(family) == object.__hash__(family) and hash(again) != hash(family)
    text = repr(family)
    family(np.zeros((2, 1)))
    assert family._last_value is not None and repr(family) == text
    assert "_last" not in text


@pytest.mark.parametrize("name", [*CASES, "PolyFamily"])
def test_values_are_immutable(name):
    if name == "PolyFamily":
        value = PolyFamily(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.zeros((1, 1, 1, 1)))
    else:
        value = CASES[name][0]
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1
    assert not hasattr(value, "__dict__")


def test_replace_runs_the_checks_again():
    spec, _, _ = CASES["ProblemSpec"]
    with pytest.raises(SpecError):
        spec._replace(samples=0)
    with pytest.raises(SpecError):
        spec._replace(tolerance=-1.0)
    assert type(spec._replace(tolerance=1).tolerance) is float
    with pytest.raises(ValueError):
        DvbShape(1, 1, 1)._replace(dim_c=0)
    with pytest.raises(ValueError):
        Chart(1)._replace(box=((1, 0),))
    with pytest.raises(TypeError):
        DvbShape(1, 1, 1)._replace(dim_d=1)
    shape = DvbShape(1, 1, 1)._replace(base_dim=2)
    assert shape == DvbShape(1, 1, 1, 2)


def test_a_spec_built_without_maps_gets_fresh_dicts():
    first, second = ProblemSpec(Chart(1)), ProblemSpec(Chart(1))
    assert first.fields == first.sections == {} and first.fields is not second.fields
    assert first.fields is not first.sections


_REPRS = {
    "DvbShape": (DvbShape(2, 1, 2, 1), "DvbShape(dim_a=2, dim_b=1, dim_c=2, base_dim=1)"),
    "Chart": (Chart(2, ((0, 1), (-2, 2.5))), "Chart(dim=2, box=((0.0, 1.0), (-2.0, 2.5)))"),
    "TrivialBundle": (TrivialBundle(Chart(1), 3),
                      "TrivialBundle(chart=Chart(dim=1, box=((-1.0, 1.0),)), fiber_dim=3)"),
    "SmoothMap": (SmoothMap.parse(["x0*x1", "-sin(x1)^2"], 2),
                  "SmoothMap(domain_dim=2, components=(Mul(left=Var(index=0), right=Var(index=1)), "
                  "Neg(arg=Pow(base=Call(func='sin', arg=Var(index=1)), exponent=2))))"),
}


@pytest.mark.parametrize("name", _REPRS)
def test_copies_and_pickles_round_trip_with_the_same_repr(name):
    value, text = _REPRS[name]
    assert repr(value) == text
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
        assert repr(copied) == text


def test_the_repr_leaves_out_functions():
    conn, _, _ = CASES["Connection"]
    bundle = "TrivialBundle(chart=Chart(dim=1, box=((-1.0, 1.0),)), fiber_dim=1)"
    assert repr(conn) == f"Connection(bundle={bundle})"
    assert repr(conn.coefficients) == "MatrixMap(shape=(1, 1, 1))"


def test_no_class_of_the_library_is_a_dataclass():
    classes = [
        cls
        for info in pkgutil.walk_packages(dvbcalc.__path__, "dvbcalc.")
        for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
        if cls.__module__ == info.name
    ]
    assert {"DvbShape", "ProblemSpec", "Num", "Grid"} <= {cls.__name__ for cls in classes}
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == []


def test_the_command_line_loads_neither_dataclasses_nor_copy():
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import dvbcalc.harness.cli; "
             "print(sorted({'dataclasses', 'copy'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
