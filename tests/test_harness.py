import importlib
import inspect
import json
import pkgutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dvbcalc.harness import (
    CheckResult,
    ProblemSpec,
    SpecError,
    build_report,
    check_lines,
    demo_spec_dict,
    render_json,
    run_suites,
)
import dvbcalc
from dvbcalc import cotangent, dvb, jets, tangent
from dvbcalc.charts import Chart, Connection
from dvbcalc.expressions import Add, Mul, Num, Var
from dvbcalc.smoothmaps import SmoothMap, jacobian
from dvbcalc.harness import cli, suites
from dvbcalc.harness.problem import DEFAULT_SHAPES

ROOT = Path(__file__).resolve().parents[1]


def _demo_spec(**overrides):
    data = demo_spec_dict()
    data.update(overrides)
    return ProblemSpec.from_dict(data)


def test_demo_spec_loads():
    spec = _demo_spec()
    assert spec.chart.dim == 2
    assert set(spec.fields) == {"X", "Y"}
    assert set(spec.sections) == {"mu"}
    assert spec.connection is not None
    assert spec.dvb_shapes == DEFAULT_SHAPES
    assert (spec.samples, spec.seed, spec.tolerance) == (50, 42, 1e-9)


def test_demo_runs_green():
    checks = run_suites(_demo_spec())
    assert len(checks) == 32
    assert all(c.passed for c in checks)
    report = build_report(checks, {"samples": 50})
    assert report["overall"] == "pass"


def test_bracket_field_pair_details():
    checks = run_suites(_demo_spec(), suite_names=["bracket"], samples=5)
    by_name = {c.name: c for c in checks}
    details = by_name["field-pairs"].details
    assert details["first_point_values"] == {"X,Y": [0.0, 1.0], "Y,X": [0.0, -1.0]}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(_demo_spec(), suite_names=["no-such-suite"])


def test_suites_run_in_index_order():
    checks = run_suites(_demo_spec(), suite_names=["connection", "bracket"], samples=5)
    suites_seen = [c.suite for c in checks]
    assert suites_seen == sorted(
        suites_seen, key=lambda s: 0 if s == "bracket" else 1
    )
    assert suites_seen[0] == "bracket"


def test_suite_subset_matches_full_run():
    spec = _demo_spec()
    full = run_suites(spec, samples=10)
    subset = run_suites(spec, suite_names=["warp-pairing", "duality-diagram"], samples=10)
    wanted = [c.as_dict() for c in full if c.suite in ("warp-pairing", "duality-diagram")]
    assert [c.as_dict() for c in subset] == wanted


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 2}, "mystery": 1})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 0}})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 2, "box": [[1.0, -1.0], [0.0, 1.0]]}})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 2}, "fields": {"X": []}})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 2}, "fields": {"X": ["x0"]}})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 2}, "fields": {"X": ["x0", "x7"]}})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "samples": True})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "samples": 0})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "seed": -1})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "tolerance": -1.0})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "dvb_shapes": [[1, 1, 1]]})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "dvb_shapes": [[0, 1, 1, 0]]})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict({"chart": {"dim": 1}, "connection": {"fiber_dim": 1}})
    with pytest.raises(SpecError):
        ProblemSpec.from_dict(
            {"chart": {"dim": 1}, "connection": {"fiber_dim": 2, "forms": [[["0"]]]}}
        )


def test_spec_from_file(tmp_path):
    with pytest.raises(SpecError):
        ProblemSpec.from_file(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecError):
        ProblemSpec.from_file(str(broken))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(demo_spec_dict()), encoding="utf-8")
    spec = ProblemSpec.from_file(str(good))
    assert spec.samples == 50
    assert spec.chart.dim == 2


def test_render_json_format():
    assert render_json({"a": 1.5, "b": True}) == '{"a": 1.5, "b": true}\n'
    assert render_json({"x": 0.1}) == '{"x": 0.10000000000000001}\n'
    assert render_json({"n": None, "list": [1, "two"]}) == '{"n": null, "list": [1, "two"]}\n'
    assert render_json({"q": 'say "hi"\\'}) == '{"q": "say \\"hi\\"\\\\"}\n'
    with pytest.raises(TypeError):
        render_json({"bad": object()})
    rendered = render_json({"value": 1e-9})
    assert json.loads(rendered) == {"value": 1e-9}
    assert render_json({"A\nB": [float("nan"), -float("inf")]}) == '{"A\\nB": [null, null]}\n'


def test_check_result_as_dict_and_lines():
    check = CheckResult(
        name="alpha", suite="beta", description="d", samples=7,
        max_residual=1e-9, passed=True,
    )
    assert "details" not in check.as_dict()
    check.details = {"k": 1}
    assert check.as_dict()["details"] == {"k": 1}
    line = check_lines([check])[0]
    assert line == "PASS  beta/alpha  samples=7  max_residual=1.000e-09"
    failing = CheckResult(
        name="alpha", suite="beta", description="d", samples=7,
        max_residual=2.0, passed=False,
    )
    assert check_lines([failing])[0].startswith("FAIL")
    assert build_report([check, failing], {})["overall"] == "fail"


def test_cli_demo_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", "--demo", "--samples", "5", "--json-out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("overall: pass")
    assert "PASS  duality-solve/" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["overall"] == "pass"
    assert report["config_echo"]["samples"] == 5
    assert report["config_echo"]["seed"] == 42
    assert len(report["checks"]) == 32


def test_cli_tiny_tolerance_fails(tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--demo", "--samples", "5", "--tol", "1e-300",
         "--json-out", str(report_path), "--quiet"]
    )
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["overall"] == "fail"
    assert report["config_echo"]["tolerance"] == 1e-300


def test_cli_spec_errors_exit_two(capsys, tmp_path):
    assert cli.main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "spec error:" in capsys.readouterr().err
    assert cli.main(["verify", "whatever.json", "--demo"]) == 2
    assert cli.main(["verify", "--demo", "--samples", "0"]) == 2
    assert cli.main(["verify", "--demo", "--tol", "0"]) == 2


def test_cli_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert cli.main(
            ["verify", "--demo", "--samples", "5", "--quiet", "--json-out", str(path)]
        ) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_suite_filter_with_sample_override(tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--demo", "--suite", "bracket", "--samples", "1000",
         "--quiet", "--json-out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["config_echo"]["suites"] == ["bracket"]
    assert report["config_echo"]["samples"] == 1000
    assert {c["suite"] for c in report["checks"]} == {"bracket"}
    assert all(c["samples"] == 1000 for c in report["checks"])


def test_cli_quiet_writes_only_json(capsys):
    code = cli.main(["verify", "--demo", "--samples", "5", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("{")
    report = json.loads(out)
    assert report["overall"] == "pass"


def test_cli_stdout_report_follows_check_lines(capsys):
    code = cli.main(["verify", "--demo", "--samples", "5"])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0].startswith("PASS  ")
    assert any(line == "overall: pass" for line in out_lines)
    assert out_lines[-1].startswith("{")


def test_cli_config_echo_defaults_to_spec_values(tmp_path):
    report_path = tmp_path / "report.json"
    spec_path = tmp_path / "spec.json"
    data = demo_spec_dict()
    data.update({"samples": 7, "seed": 11, "tolerance": 1e-8})
    spec_path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(
        ["verify", str(spec_path), "--quiet", "--json-out", str(report_path)]
    ) == 0
    config = json.loads(report_path.read_text(encoding="utf-8"))["config_echo"]
    assert config["samples"] == 7
    assert config["seed"] == 11
    assert config["tolerance"] == 1e-8
    assert config["suites"] == [
        "duality-solve", "warp-pairing", "bracket", "connection",
        "cotangent-duality", "duality-diagram", "bracket-pairing", "connection-pairing",
    ]


def test_cli_domain_error_reported_as_failing_check(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "chart": {"dim": 1, "box": [[-2.0, -1.0]]},
                "fields": {"X": ["log(x0)"], "Y": ["1"]},
                "samples": 3,
            }
        ),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["verify", str(spec_path), "--suite", "bracket", "--quiet",
         "--json-out", str(report_path)]
    )
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["overall"] == "fail"
    failing = [c for c in report["checks"] if not c["passed"]]
    assert len(failing) == 1
    assert failing[0]["name"] == "domain-error"
    assert failing[0]["suite"] == "bracket"
    assert failing[0]["max_residual"] == sys.float_info.max
    assert "error" in failing[0]["details"]


def test_cli_spec_section_leaving_its_domain_is_a_domain_error(tmp_path):
    # The connection suites use a spec section on even samples, so one that
    # leaves its domain must fail them, not pass unseen.
    code, report_path = _verify_spec(
        tmp_path,
        {"chart": {"dim": 1}, "sections": {"bad": ["log(x0 - 5)"]}, "samples": 2},
        "--suite", "connection", "--suite", "connection-pairing",
    )
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [(c["suite"], c["name"], c["passed"]) for c in report["checks"]] == [
        ("connection", "domain-error", False),
        ("connection-pairing", "domain-error", False),
    ]


def test_sharp_sign_guard_details():
    checks = run_suites(_demo_spec(), suite_names=["bracket-pairing"], samples=10)
    by_name = {c.name: c for c in checks}
    guard = by_name["sharp-sign-pinned"]
    assert guard.passed
    assert guard.details["max_flipped_residual"] > 1e-7


def test_run_suites_override_changes_nothing_when_equal():
    spec = _demo_spec()
    defaults = run_suites(spec, samples=50, seed=42, tolerance=1e-9)
    implicit = run_suites(spec)
    assert [c.as_dict() for c in defaults] == [c.as_dict() for c in implicit]


def test_seed_isolation_between_suites():
    # Changing which suites run must not change another suite's stream.
    spec = _demo_spec()
    alone = run_suites(spec, suite_names=["connection"], samples=10)
    with_neighbors = run_suites(
        spec, suite_names=["bracket", "connection", "warp-pairing"], samples=10
    )
    conn_only = [c.as_dict() for c in with_neighbors if c.suite == "connection"]
    assert conn_only == [c.as_dict() for c in alone]


def _verify_spec(tmp_path, data, *argv):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["verify", str(spec_path), "--quiet", "--json-out", str(report_path), *argv]
    )
    return code, report_path


def _reject_constant(name):
    raise ValueError(f"report contains {name}")


_NON_FINITE_SPEC = {"chart": {"dim": 2}, "fields": {"X": ["x0*1e308*10", "x1"], "Y": ["x1", "x0"]}}


def test_cli_non_finite_residuals_fail(tmp_path):
    # The field overflows to inf, so the bracket residuals are NaN.
    code, report_path = _verify_spec(tmp_path, _NON_FINITE_SPEC, "--samples", "4")
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    bracket = {c["name"]: c for c in report["checks"] if c["suite"] == "bracket"}
    assert not bracket["field-pairs"]["passed"]
    assert bracket["field-pairs"]["max_residual"] == sys.float_info.max
    assert bracket["random-polynomials"]["passed"]


def test_cli_non_finite_values_raise_no_runtime_warning(tmp_path):
    # Non-finite values already fail their checks; numpy must not warn on the way.
    code, report_path = _verify_spec(tmp_path, _NON_FINITE_SPEC, "--samples", "4")
    expected = report_path.read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        strict_code, report_path = _verify_spec(tmp_path, _NON_FINITE_SPEC, "--samples", "4")
    assert (strict_code, code) == (1, 1)
    assert report_path.read_text(encoding="utf-8") == expected
    report = json.loads(expected)
    failing = [(c["suite"], c["name"]) for c in report["checks"] if not c["passed"]]
    assert ("bracket", "field-pairs") in failing


def test_cli_nan_in_an_outline_component_fails_its_checks(tmp_path):
    # inf - inf: the same NaN reaches both sides of each outline comparison.
    data = {"chart": {"dim": 2}, "fields": {"X": ["x0*1e308*10 - x0*1e308*10", "x1"], "Y": ["0", "x0"]}}
    code, report_path = _verify_spec(tmp_path, data, "--samples", "4")
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    failing = {(c["suite"], c["name"]) for c in report["checks"] if not c["passed"]}
    assert ("bracket", "field-pairs") in failing
    assert all(name != "domain-error" for _, name in failing)


def test_cli_report_is_valid_json_for_odd_names_and_values(tmp_path):
    data = {"chart": {"dim": 2}, "fields": {"A\nB": ["x0*1e308*10", "x1"], "Y": ["x1", "x0"]}}
    code, report_path = _verify_spec(tmp_path, data, "--suite", "bracket", "--samples", "4")
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    values = report["checks"][0]["details"]["first_point_values"]
    assert set(values) == {"A\nB,Y", "Y,A\nB"}
    assert None in values["A\nB,Y"]


@pytest.mark.parametrize(
    "expression",
    ["exp(exp(exp(exp(x0*10))))", "(x0+10)^400", "sin(x0*1e308*10)", "cos(x0*1e308*10)"],
)
def test_cli_overflow_reported_as_domain_error(tmp_path, expression):
    data = {
        "chart": {"dim": 1, "box": [[0.5, 1.0]]},
        "fields": {"X": [expression], "Y": ["1"]},
        "samples": 3,
    }
    code, report_path = _verify_spec(tmp_path, data, "--suite", "bracket")
    assert code == 1
    [check] = json.loads(report_path.read_text(encoding="utf-8"))["checks"]
    assert (check["name"], check["passed"]) == ("domain-error", False)
    assert check["max_residual"] == sys.float_info.max


@pytest.mark.parametrize(
    "overrides, argv",
    [
        pytest.param({"tolerance": 0}, (), id="spec-tol-zero"),
        pytest.param({"tolerance": float("nan")}, (), id="spec-tol-nan"),
        pytest.param({"tolerance": float("inf")}, (), id="spec-tol-inf"),
        pytest.param({}, ("--tol", "nan"), id="cli-tol-nan"),
        pytest.param({}, ("--tol", "inf"), id="cli-tol-inf"),
        pytest.param({"chart": {"dim": 1, "box": [[float("nan"), 1.0]]}}, (), id="box-nan"),
        pytest.param({"chart": {"dim": 1, "box": [[-float("inf"), 1.0]]}}, (), id="box-inf"),
        pytest.param({"chart": {"dim": 1, "box": [[-1e308, 1e308]]}}, (), id="box-width-overflows"),
        pytest.param({"chart": {"dim": 1, "box": [[0, 10**400]]}}, (), id="box-int-overflows"),
        pytest.param({}, ("--seed", "-1"), id="cli-seed-negative"),
        pytest.param({}, ("--samples", "0"), id="cli-samples-zero"),
    ],
)
def test_cli_tolerance_and_box_must_be_finite(tmp_path, capsys, overrides, argv):
    data = {"chart": {"dim": 1}, "samples": 2, **overrides}
    code, report_path = _verify_spec(tmp_path, data, *argv)
    assert code == 2
    assert "spec error:" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 100_000, id="nested-past-recursion-limit"),
    ],
)
def test_cli_unreadable_spec_bytes_exit_two(tmp_path, capsys, raw):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(raw)
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", str(spec_path), "--quiet", "--json-out", str(report_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and "Traceback" not in err
    assert not report_path.exists()


def test_cli_unwritable_json_out_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "report.json"
    code = cli.main(["verify", "--demo", "--samples", "2", "--json-out", str(missing)])
    assert code == 2
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert not missing.exists()


def test_cli_unwritable_json_out_exits_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was opened")

    monkeypatch.setattr(cli, "run_suites", no_run)
    missing = tmp_path / "no-such-dir" / "report.json"
    assert cli.main(["verify", "--demo", "--json-out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the report")


def test_cli_crashed_run_leaves_no_report(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("suite crashed")

    monkeypatch.setattr(cli, "run_suites", crash)
    report_path = tmp_path / "report.json"
    with pytest.raises(RuntimeError, match="suite crashed"):
        cli.main(["verify", "--demo", "--json-out", str(report_path)])
    assert not report_path.exists()


def test_cli_os_error_inside_a_suite_is_not_a_write_error(tmp_path, monkeypatch, capsys):
    def denied(*args, **kwargs):
        raise PermissionError("denied inside a suite")

    monkeypatch.setattr(cli, "run_suites", denied)
    report_path = tmp_path / "report.json"
    with pytest.raises(PermissionError, match="denied inside a suite"):
        cli.main(["verify", "--demo", "--json-out", str(report_path)])
    assert not report_path.exists()
    assert "cannot write the report" not in capsys.readouterr().err


def test_residuals_count_a_batch_as_its_samples():
    res = suites._Residuals("batched", "a batch of residuals")
    res.add(0.5)
    res.add(np.array([0.25, -2.0, 1.0]), samples=3)
    res.add(np.array([[0.0, 1.5]]), -0.75, samples=2)
    result = res.result("suite", 1e-9)
    assert (result.samples, result.max_residual, result.passed) == (6, 2.0, False)


def test_cli_repeated_suite_runs_once(tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--demo", "--suite", "bracket", "--suite", "bracket", "--samples", "3",
         "--quiet", "--json-out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["config_echo"]["suites"] == ["bracket"]
    assert [c["name"] for c in report["checks"]] == ["field-pairs", "random-polynomials"]


@pytest.mark.parametrize(
    "text",
    [
        "(" * 3000 + "x0" + ")" * 3000,
        "-" * 3000 + "x0",
        "+".join(["x0"] * 990),
        "+".join(["x0"] * 980),
    ],
    ids=["parentheses", "unary-minus", "sum-990", "sum-980"],
)
def test_cli_spec_nested_past_the_depth_bound_exits_two(tmp_path, capsys, text):
    data = demo_spec_dict()
    data["fields"]["X"] = [text, "0"]
    spec_path, out = tmp_path / "deep.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["verify", str(spec_path), "--samples", "2", "--json-out", str(out)]) == 2
    assert "spec error: fields.X: expression nested deeper than" in capsys.readouterr().err
    assert not out.exists()


def test_bracket_pairing_sample_differentiates_each_field_once(monkeypatch):
    spec = _demo_spec()
    x_field, y_field = spec.fields["X"], spec.fields["Y"]
    differentials, jacobian_maps = [], []
    ell_differential, generic_jacobian = cotangent.ell_differential, jets.generic_jacobian

    def counted_ell(mu, x, kappa):
        differentials.append(mu)
        return ell_differential(mu, x, kappa)

    def counted_jacobian(fn, values):
        # A map's own Jacobian seeds its bound eval_generic.
        jacobian_maps.append(getattr(fn, "__self__", None))
        return generic_jacobian(fn, values)

    monkeypatch.setattr(cotangent, "ell_differential", counted_ell)
    monkeypatch.setattr(jets, "generic_jacobian", counted_jacobian)
    # Sample 0 uses the spec's fields X and Y.
    checks = suites._run_bracket_pairing(spec, 1, np.random.default_rng(0))
    assert all(check.passes(1e-9) for check in checks)
    assert [mu is y_field for mu in differentials] == [True, False]
    assert [mu is x_field for mu in differentials] == [False, True]
    assert sum(m is x_field for m in jacobian_maps) == 1
    assert sum(m is y_field for m in jacobian_maps) == 1


@pytest.mark.parametrize("suite", ["connection", "connection-pairing"])
def test_connection_sample_evaluates_the_coefficients_once_per_point(suite):
    spec = _demo_spec()
    coefficients = spec.connection.coefficients
    points = []

    def counted(m):
        points.append(np.asarray(m, dtype=float).tobytes())
        return coefficients(m)

    spec = replace(spec, connection=Connection(spec.connection.bundle, counted))
    # The suite cycles through three connections; samples 0 and 3 use the spec's.
    checks = suites.SUITES[suite][1](spec, 4, np.random.default_rng(0))
    assert all(check.passes(1e-9) for check in checks)
    assert len(points) == len(set(points)) == 2


def test_cli_divisor_whose_square_underflows_is_a_domain_error(tmp_path):
    # x0 is nonzero on this box, but the quotient rule for 1/x0 divides by
    # x0*x0, which underflows to 0.0.
    code, report_path = _verify_spec(
        tmp_path,
        {"chart": {"dim": 2, "box": [[1e-320, 2e-320], [0, 1]]},
         "fields": {"X": ["1/x0", "1"], "Y": ["log(x0)", "x1"]}},
        "--samples", "4", "--seed", "1",
    )
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    failing = [(c["suite"], c["name"]) for c in report["checks"] if not c["passed"]]
    assert failing == [("bracket", "domain-error"), ("bracket-pairing", "domain-error")]


def _poly_map_per_coefficient(rng, dim, codim, degree):
    """The random polynomial map as drawn one coefficient at a time: the
    reference stream that _poly_map's single draw must keep for dim 0 and
    degree 1."""

    def component():
        expr = Num(float(rng.uniform(-1.0, 1.0)))
        if dim == 0:
            return expr
        for i in range(dim):
            expr = Add(expr, Mul(Num(float(rng.uniform(-1.0, 1.0))), Var(i)))
        if degree >= 2:
            for _ in range(dim):
                i, j = rng.integers(0, dim, 2)
                term = Mul(Mul(Num(float(rng.uniform(-1.0, 1.0))), Var(int(i))), Var(int(j)))
                expr = Add(expr, term)
        return expr

    return SmoothMap(dim, tuple(component() for _ in range(codim)))


@pytest.mark.parametrize(
    "dim, codim, degree", [(0, 3, 2), (0, 4, 1), (1, 1, 1), (2, 3, 1), (3, 27, 1)]
)
def test_poly_map_keeps_the_per_coefficient_stream(dim, codim, degree):
    ours, reference = np.random.default_rng(5), np.random.default_rng(5)
    assert suites._poly_map(ours, dim, codim, degree) == _poly_map_per_coefficient(
        reference, dim, codim, degree
    )
    assert ours.bit_generator.state == reference.bit_generator.state


def _summands(expr):
    """The terms of a left-nested sum, first term first."""
    terms = []
    while isinstance(expr, Add):
        terms.append(expr.right)
        expr = expr.left
    return [expr] + terms[::-1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_degree_two_components_are_the_rows_of_one_draw(dim):
    codim = 5
    rng, replay = np.random.default_rng(11), np.random.default_rng(11)
    poly = suites._poly_map(rng, dim, codim)
    coeffs = replay.uniform(-1.0, 1.0, (codim, 1 + 2 * dim)).tolist()
    pairs = replay.integers(0, dim, (codim, dim, 2)).tolist()
    assert rng.bit_generator.state == replay.bit_generator.state
    for comp, row, ij in zip(poly.components, coeffs, pairs, strict=True):
        terms = _summands(comp)
        assert len(terms) == 1 + 2 * dim
        assert terms[0] == Num(row[0])
        assert terms[1:1 + dim] == [Mul(Num(row[1 + i]), Var(i)) for i in range(dim)]
        for t, term in enumerate(terms[1 + dim:]):
            i, j = term.left.right.index, term.right.index
            assert 0 <= i < dim and 0 <= j < dim and [i, j] == ij[t]
            assert term == Mul(Mul(Num(row[1 + dim + t]), Var(i)), Var(j))


CHARTS = [
    pytest.param(_demo_spec().chart, id="demo"),
    pytest.param(ProblemSpec.from_file(str(ROOT / "perfbench" / "named_maps.json")).chart, id="named-maps"),
    pytest.param(Chart(0), id="dim-0"),
]


def _operator_without_fiber_matrix(field):
    # Dmu X: the operator as if the field's fiber matrix were zero, row by
    # row over the suite's batch.
    return lambda mu, m: np.einsum("nij,nj->ni", jacobian(mu, m), field.base)


_LINEAR_VECTOR_FIELD_OPERATOR = tangent.linear_vector_field_operator


def _operator_of_the_horizontal_lift(field):
    # The operator of the section the field was evaluated from, i.e. the
    # horizontal lift's, whatever fiber matrix the field carries.
    return _LINEAR_VECTOR_FIELD_OPERATOR(field.section)


@pytest.mark.parametrize(
    "operator", [_operator_without_fiber_matrix, _operator_of_the_horizontal_lift]
)
def test_linear_operator_check_fails_on_its_own(monkeypatch, operator):
    monkeypatch.setattr(tangent, "linear_vector_field_operator", operator)
    checks = suites._run_connection(_demo_spec(), 6, np.random.default_rng(0))
    failing = [check.name for check in checks if not check.passes(1e-9)]
    assert failing == ["linear-operator"]


@pytest.mark.parametrize("max_batch", [None, 2])
@pytest.mark.parametrize("samples", [1, 5, 6, 7, 13])
def test_algebra_suites_count_every_sample_once(monkeypatch, samples, max_batch):
    # Sample i takes DEFAULT_SHAPES[i % 6]; the suites batch samples by
    # shape, so these cover shapes with 0, 1 and several samples, and with
    # a lowered batch cap, shapes whose samples span several batches.
    if max_batch is not None:
        monkeypatch.setattr(suites, "_MAX_BATCH", max_batch)
    shapes = [DEFAULT_SHAPES[i % len(DEFAULT_SHAPES)] for i in range(samples)]
    n = samples
    expected = {
        ("duality-solve", "solve-vs-closed-form", n),
        ("duality-solve", "defining-identity", n),
        ("duality-solve", "iso-round-trips", 2 * n),
        ("duality-solve", "second-iso-duality", n),
        ("duality-solve", "dual-pairing", 5 * n),
        ("warp-pairing", "pairing-identity", n),
        ("warp-pairing", "swap-negation", 3 * n),
        ("warp-pairing", "squarecap-defining", 40 * n),
        ("warp-pairing", "interchange-law", n),
        ("warp-pairing", "core-difference-routes", n),
        ("warp-pairing", "cstar-projection", sum(shape.dim_c for shape in shapes)),
    }
    checks = run_suites(_demo_spec(), suite_names=["duality-solve", "warp-pairing"], samples=samples)
    assert len(checks) == len(expected)
    assert {(c.suite, c.name, c.samples) for c in checks} == expected
    assert all(c.passed for c in checks)


def test_a_duality_solve_batch_holds_one_base_point_array(monkeypatch):
    draws, records = [], []
    uniform_rows, init = suites._uniform_rows, dvb.Record.__init__

    def recorded_rows(rng, n, *dims):
        draws.append(uniform_rows(rng, n, *dims))
        return draws[-1]

    def recorded_init(self, shape, *values):
        init(self, shape, *values)
        records.append(self)

    monkeypatch.setattr(suites, "_uniform_rows", recorded_rows)
    monkeypatch.setattr(dvb.Record, "__init__", recorded_init)
    spec = replace(_demo_spec(), dvb_shapes=(dvb.DvbShape(2, 1, 2, 1),))
    suites._run_duality_solve(spec, 4, np.random.default_rng(0))
    [[m, *_]] = draws
    # The solve's probe records repeat each row over a block of probes.
    of_batch = [record for record in records if record.batch == 4]
    assert len(of_batch) > 10 and all(record.m is m for record in of_batch)


def test_sign_guard_records_a_batch_and_never_a_nan_row():
    guard = suites._SignGuard("guard", "a flipped-sign check")
    guard.add_flipped(np.array([0.5, -3.0, np.nan]))
    assert guard.details["max_flipped_residual"] == 3.0
    guard.add_flipped(np.array([np.nan, 1.0]))
    guard.add_flipped(-2.0)
    assert guard.details["max_flipped_residual"] == 3.0
    assert type(guard.details["max_flipped_residual"]) is float
    # As max(0.0, nan) does, a NaN row leaves the flipped residual at 0.0,
    # so the check fails instead of counting it above 100 tolerances.
    only_nan = suites._SignGuard("guard", "a flipped-sign check")
    only_nan.add_flipped(np.array([np.nan, np.nan]))
    only_nan.add(0.0)
    assert only_nan.details["max_flipped_residual"] == 0.0
    assert not only_nan.passes(1e-9)


CALCULUS_BATCHED = (
    "bracket", "connection", "cotangent-duality", "duality-diagram", "bracket-pairing", "connection-pairing"
)


@pytest.mark.parametrize("max_batch", [None, 2])
@pytest.mark.parametrize("samples", [1, 2, 5, 24, 65])
def test_batched_calculus_suites_count_every_sample_once(monkeypatch, samples, max_batch):
    # The suites batch their samples by form (dimension, connection and
    # section, named or random fields, fiber rank); with the cap lowered,
    # a form spans several batches.
    if max_batch is not None:
        monkeypatch.setattr(suites, "_MAX_BATCH", max_batch)
    n = samples
    expected = {
        ("bracket", "field-pairs", 2 * max(1, n // 2)),
        ("bracket", "random-polynomials", n),
        ("connection", "covariant-derivative", n),
        ("connection", "flat-reduction", n),
        ("connection", "horizontal-momentum", n),
        ("connection", "horizontal-pullback", n),
        ("connection", "linear-operator", n),
        ("cotangent-duality", "flip-relation", 3 * max(1, n // 3)),
        ("cotangent-duality", "flip-local-formula", 3 * max(1, n // 3)),
        # One sample per fiber dimension, as perfbench/expected_checks.json pins.
        ("cotangent-duality", "antisymplectomorphism", 3),
        ("cotangent-duality", "liouville-relation", 3),
        ("duality-diagram", "triangle", n),
        ("duality-diagram", "pairing-section-independence", 3 * max(1, n // 4)),
        ("duality-diagram", "functional-rank", max(1, n // 4)),
        ("bracket-pairing", "momentum-identity", n),
        ("bracket-pairing", "closed-forms", 4 * n),
        ("bracket-pairing", "decomposed-cross-check", 6 * n),
        ("bracket-pairing", "sharp-sign-pinned", n),
        ("connection-pairing", "momentum-identity", n),
        ("connection-pairing", "flat-reduction", 2 * n),
        ("connection-pairing", "decomposed-cross-check", 4 * n),
    }
    checks = run_suites(_demo_spec(), suite_names=CALCULUS_BATCHED, samples=samples)
    assert len(checks) == len(expected)
    assert {(c.suite, c.name, c.samples) for c in checks} == expected
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("chart", CHARTS)
def test_chart_sample_is_bitwise_uniform_over_the_box(chart):
    # With no vector dimensions, row j is the j-th uniform point of the box.
    lows = [lo for lo, _ in chart.box]
    highs = [hi for _, hi in chart.box]
    ours, reference = np.random.default_rng(3), np.random.default_rng(3)
    (points,) = suites._chart_rows(ours, 20, chart)
    for j in range(20):
        assert points[j].tobytes() == reference.uniform(lows, highs).tobytes()
    assert ours.uniform() == reference.uniform()


@pytest.mark.parametrize("chart", CHARTS)
def test_chart_rows_are_bitwise_the_per_sample_draws(chart):
    # Row j is a uniform point of the box, then its vectors, as if drawn
    # one row after another.
    lows = [lo for lo, _ in chart.box]
    highs = [hi for _, hi in chart.box]
    ours, reference = np.random.default_rng(8), np.random.default_rng(8)
    point, a, b = suites._chart_rows(ours, 5, chart, 3, 1)
    for j in range(5):
        assert point[j].tobytes() == reference.uniform(lows, highs).tobytes()
        assert a[j].tobytes() == reference.uniform(-1.0, 1.0, 3).tobytes()
        assert b[j].tobytes() == reference.uniform(-1.0, 1.0, 1).tobytes()
    assert ours.bit_generator.state == reference.bit_generator.state
    # Each block is read-only and owns its memory, so every dvb record built
    # from it holds that one array.
    assert all(not block.flags.writeable and block.base is None for block in (point, a, b))


def test_batches_count_equal_forms_together(monkeypatch):
    assert list(suites._batches(("a", "b", "a"), 7)) == [("a", 5), ("b", 2)]
    # A form with no sample gives no batch.
    assert list(suites._batches(("a", "b", "c"), 2)) == [("a", 1), ("b", 1)]
    assert list(suites._batches(("a",), 0)) == []
    monkeypatch.setattr(suites, "_MAX_BATCH", 2)
    assert list(suites._batches(("a", "b", "a"), 7)) == [("a", 2), ("a", 2), ("a", 1), ("b", 2)]


def _public_callables():
    """(qualified name, callable) of every public function and method of the
    library's modules outside dvbcalc.harness."""
    for info in pkgutil.walk_packages(dvbcalc.__path__, "dvbcalc."):
        if info.name.startswith("dvbcalc.harness"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # a classmethod's or staticmethod's
                    public = not attr.startswith("_") or attr in ("__init__", "__call__")
                    if public and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_only_the_harness_takes_a_random_generator():
    callables = dict(_public_callables())
    assert "dvbcalc.charts.Connection.nabla" in callables
    takers = [name for name, fn in callables.items() if "rng" in inspect.signature(fn).parameters]
    assert takers == []


def _nan_last(value):
    """value with its last entry NaN: the last row's for a batch, the last
    component's for a dvb element."""
    if isinstance(value, dvb.Record):
        parts = [getattr(value, name) for name, _ in value._fields]
        return type(value)(value.shape, *parts[:-1], _nan_last(parts[-1]))
    value = np.array(value, dtype=float)
    value.flat[-1] = np.nan
    return value if value.ndim else float(value)


def _nan_in_first_result(fn):
    """fn, whose first result has a NaN in its last entry."""
    calls = []

    def patched(*args, **kwargs):
        value = fn(*args, **kwargs)
        calls.append(None)
        return _nan_last(value) if len(calls) == 1 else value

    return patched


@pytest.mark.parametrize(
    "suite, module, name, failing",
    [
        # A NaN in the flip's kappa: in the last component compared.
        ("duality-diagram", cotangent, "cotangent_flip", "triangle"),
        ("cotangent-duality", cotangent, "canonical_two_form", "antisymplectomorphism"),
        ("cotangent-duality", jets, "jet_gradient", "liouville-relation"),
    ],
)
def test_a_nan_defect_in_one_row_fails_its_cotangent_check(monkeypatch, suite, module, name, failing):
    monkeypatch.setattr(module, name, _nan_in_first_result(getattr(module, name)))
    with np.errstate(invalid="ignore"):
        checks = run_suites(_demo_spec(), suite_names=[suite], samples=12)
    assert [c.name for c in checks if not c.passed] == [failing]


def _spec_with_one_point_replaced(monkeypatch, data, index, point):
    """The spec of data, and the sizes of the batches whose point was
    replaced: the point of sample index, as each suite's batches place it.

    Sample i of a suite takes forms[i % len(forms)] (``suites._batches``),
    and the samples of one form fill its batches in index order; each batch
    draws its points as one ``suites._chart_rows`` block.  On the spec's
    chart, the row of that block which belongs to sample index is replaced
    in a copy, read-only like the block it stands for.
    """
    spec = ProblemSpec.from_dict(data)
    batches, chart_rows = suites._batches, suites._chart_rows
    place, replaced = [None], []

    def placed_batches(forms, samples):
        filled = {}
        for form, n in batches(forms, samples):
            of_form = [i for i in range(samples) if forms[i % len(forms)] == form]
            start = filled.get(form, 0)
            filled[form] = start + n
            batch = of_form[start:start + n]
            place[0] = batch.index(index) if index in batch else None
            yield form, n

    def replaced_rows(rng, n, chart, *dims):
        rows = chart_rows(rng, n, chart, *dims)
        if chart is spec.chart and place[0] is not None:
            rows[0] = rows[0].copy()
            rows[0][place[0]] = point
            rows[0].flags.writeable = False
            replaced.append(n)
        return rows

    monkeypatch.setattr(suites, "_batches", placed_batches)
    monkeypatch.setattr(suites, "_chart_rows", replaced_rows)
    return spec, replaced


# (suite, samples, index of the sample whose point is replaced): the
# replaced point is one row of a batch of several.
_ONE_ROW = [
    ("bracket", 8, 2),
    ("bracket-pairing", 8, 2),
    ("connection", 12, 6),
    ("connection-pairing", 12, 6),
]


@pytest.mark.parametrize("suite, samples, index", _ONE_ROW)
@pytest.mark.parametrize(
    "expression, box, bad",
    [
        ("log(x0)", [0.5, 1.0], -1.0),
        ("1/x0", [0.5, 1.0], 0.0),
        ("exp(exp(exp(exp(x0*10))))", [-1.0, -0.5], 1.0),
        ("(x0+10)^400", [-10.0, -9.5], 1.0),
    ],
)
def test_one_row_leaving_its_domain_ends_the_batched_suite(
    monkeypatch, suite, samples, index, expression, box, bad
):
    data = {
        "chart": {"dim": 1, "box": [box]},
        "fields": {"X": [expression], "Y": ["1"]},
        "sections": {"mu": [expression]},
    }
    healthy = run_suites(ProblemSpec.from_dict(data), suite_names=[suite], samples=samples)
    assert all(c.passed for c in healthy)
    spec, replaced = _spec_with_one_point_replaced(monkeypatch, data, index, [bad])
    with np.errstate(all="ignore"):
        checks = run_suites(spec, suite_names=[suite], samples=samples)
    assert [(c.name, c.passed) for c in checks] == [("domain-error", False)]
    assert len(replaced) == 1 and replaced[0] >= 2


@pytest.mark.parametrize("suite, samples, index", _ONE_ROW)
def test_one_row_overflowing_a_product_fails_checks_of_the_batched_suite(monkeypatch, suite, samples, index):
    # On the box x0*x0 underflows to 0, and the derivative stays finite; at
    # x0 = 1 the product overflows to inf, as x0*1e308*10 does.
    data = {
        "chart": {"dim": 1, "box": [[-1e-310, 1e-310]]},
        "fields": {"X": ["x0*x0*1e308*10"], "Y": ["1"]},
        "sections": {"mu": ["x0*x0*1e308*10"]},
    }
    healthy = run_suites(ProblemSpec.from_dict(data), suite_names=[suite], samples=samples)
    assert all(c.passed for c in healthy)
    spec, replaced = _spec_with_one_point_replaced(monkeypatch, data, index, [1.0])
    with np.errstate(all="ignore"):
        checks = run_suites(spec, suite_names=[suite], samples=samples)
    assert len(replaced) == 1 and replaced[0] >= 2
    assert all(c.name != "domain-error" for c in checks)
    assert not all(c.passed for c in checks)
