import json
import sys

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
from dvbcalc.harness import cli
from dvbcalc.harness.problem import DEFAULT_SHAPES


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


def test_cli_non_finite_residuals_fail(tmp_path):
    # The field overflows to inf, so the bracket residuals are NaN.
    data = {"chart": {"dim": 2}, "fields": {"X": ["x0*1e308*10", "x1"], "Y": ["x1", "x0"]}}
    code, report_path = _verify_spec(tmp_path, data, "--samples", "4")
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    bracket = {c["name"]: c for c in report["checks"] if c["suite"] == "bracket"}
    assert not bracket["field-pairs"]["passed"]
    assert bracket["field-pairs"]["max_residual"] == sys.float_info.max
    assert bracket["random-polynomials"]["passed"]


def test_cli_report_is_valid_json_for_odd_names_and_values(tmp_path):
    data = {"chart": {"dim": 2}, "fields": {"A\nB": ["x0*1e308*10", "x1"], "Y": ["x1", "x0"]}}
    code, report_path = _verify_spec(tmp_path, data, "--suite", "bracket", "--samples", "4")
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    values = report["checks"][0]["details"]["first_point_values"]
    assert set(values) == {"A\nB,Y", "Y,A\nB"}
    assert None in values["A\nB,Y"]


@pytest.mark.parametrize("expression", ["exp(exp(exp(exp(x0*10))))", "(x0+10)^400"])
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
    ],
)
def test_cli_tolerance_and_box_must_be_finite(tmp_path, capsys, overrides, argv):
    data = {"chart": {"dim": 1}, "samples": 2, **overrides}
    code, report_path = _verify_spec(tmp_path, data, *argv)
    assert code == 2
    assert "spec error:" in capsys.readouterr().err
    assert not report_path.exists()
