import errno
import importlib
import inspect
import json
import math
import os
import pkgutil
import stat
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc.harness import (
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
from dvbcalc.smoothmaps import MatrixMap, PolyFamily, SmoothMap, jacobian
from dvbcalc.harness import cli, suites
from dvbcalc.harness.problem import DEFAULT_SHAPES

import support

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
    assert all(c["passed"] for c in checks)
    report = build_report(checks, {"samples": 50})
    assert report["overall"] == "pass"


def test_bracket_field_pair_details():
    checks = run_suites(_demo_spec(), suite_names=["bracket"], samples=5)
    by_name = {c["name"]: c for c in checks}
    details = by_name["field-pairs"]["details"]
    assert details["first_point_values"] == {"X,Y": [0.0, 1.0], "Y,X": [0.0, -1.0]}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(_demo_spec(), suite_names=["no-such-suite"])


def test_suites_run_in_index_order():
    checks = run_suites(_demo_spec(), suite_names=["connection", "bracket"], samples=5)
    suites_seen = [c["suite"] for c in checks]
    assert suites_seen == sorted(
        suites_seen, key=lambda s: 0 if s == "bracket" else 1
    )
    assert suites_seen[0] == "bracket"


def test_suite_subset_matches_full_run():
    spec = _demo_spec()
    full = run_suites(spec, samples=10)
    subset = run_suites(spec, suite_names=["warp-pairing", "duality-diagram"], samples=10)
    wanted = [c for c in full if c["suite"] in ("warp-pairing", "duality-diagram")]
    assert subset == wanted


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
    assert render_json({"x": 0.1}) == '{"x": 0.1}\n'
    assert render_json({"n": None, "list": [1, "two"]}) == '{"n": null, "list": [1, "two"]}\n'
    assert render_json({"q": 'say "hi"\\'}) == '{"q": "say \\"hi\\"\\\\"}\n'
    with pytest.raises(TypeError):
        render_json({"bad": object()})
    rendered = render_json({"value": 1e-9})
    assert json.loads(rendered) == {"value": 1e-9}
    assert render_json({"A\nB": [float("nan"), -float("inf")]}) == '{"A\\nB": [null, null]}\n'


_EXTREME_FLOATS = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max]
)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | _EXTREME_FLOATS)
def test_render_json_reads_every_finite_float_back_bitwise(x):
    back = json.loads(render_json({"v": x}))["v"]
    assert type(back) is float
    assert back.hex() == x.hex()
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_LEAVES = st.floats() | _NON_FINITE | st.integers() | st.none() | st.text(max_size=3)
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_NESTED)
def test_render_json_writes_non_finite_floats_as_null_at_any_depth(value):
    # The reference is the encoder's own NaN/Infinity tokens, read back as null.
    expected = json.loads(json.dumps({"v": value}), parse_constant=lambda _: None)
    assert json.loads(render_json({"v": value})) == expected
    with pytest.raises(TypeError):
        render_json({"v": [value, object()]})


def test_residuals_result_entry_and_lines():
    res = suites._Residuals("alpha", "d")
    res.add(np.full(7, 1e-9), samples=7)
    check = res.result("beta", 1e-9)
    assert list(check) == ["name", "suite", "description", "samples", "max_residual", "passed"]
    assert check == {
        "name": "alpha", "suite": "beta", "description": "d", "samples": 7,
        "max_residual": 1e-9, "passed": True,
    }
    res.details["k"] = 1
    assert list(res.result("beta", 1e-9))[-1] == "details"
    assert res.result("beta", 1e-9)["details"] == {"k": 1}
    line = check_lines([check])[0]
    assert line == "PASS  beta/alpha  samples=7  max_residual=1.000e-09"
    failing = dict(check, max_residual=2.0, passed=False)
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


def test_cli_reuses_one_parser_and_each_call_keeps_only_its_own_options(tmp_path, capsys):
    # main keeps the parser it builds; an appended option must not pile up across calls.
    runs = {"first": ["duality-solve", "bracket"], "second": ["warp-pairing"]}
    for name, chosen in runs.items():
        argv = ["verify", "--demo", "--samples", "1", "--quiet", "--json-out", str(tmp_path / name)]
        assert cli.main(argv + [arg for suite in chosen for arg in ("--suite", suite)]) == 0
        report = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert report["config_echo"]["suites"] == chosen
        assert {c["suite"] for c in report["checks"]} == set(chosen)
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli._parser()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--demo", "--suite", "nope"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


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
    error = failing[0]["details"]["error"]
    assert error.startswith("log of non-positive value")
    assert failing[0] == {
        "name": "domain-error",
        "suite": "bracket",
        "description": "suite aborted: a map left its domain during sampling",
        "samples": 0,
        "max_residual": sys.float_info.max,
        "passed": False,
        "details": {"error": error},
    }


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


@pytest.mark.parametrize(
    "spec, argv",
    [
        ({"chart": {"dim": 1}, "fields": {"X": ["1"], "Y": ["2"]}}, ["--suite", "bracket-pairing", "--samples", "1"]),
        (None, ["--demo", "--samples", "20", "--seed", "1", "--tol", "0.03"]),
    ],
    ids=["commuting-fields", "demo-loose-tolerance"],
)
def test_sharp_sign_pinned_passes_wherever_its_identity_holds(tmp_path, spec, argv):
    # Commuting fields pair to 0, and the demo's pairings are not 100
    # tolerances of 0.03 apart from their opposites; neither breaks
    # dnu(w, sharp sigma) = sigma(w).
    if spec is not None:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv = [str(spec_path), *argv]
    report_path = tmp_path / "report.json"
    assert cli.main(["verify", *argv, "--quiet", "--json-out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    [sign] = [c for c in report["checks"] if c["name"] == "sharp-sign-pinned"]
    assert sign["passed"] and "details" not in sign


def test_the_opposite_sharp_convention_fails_the_sign_checks(monkeypatch):
    # The opposite sign convention is the over-A negation of the pinned sharp.
    pinned = cotangent.dnu_sharp
    monkeypatch.setattr(cotangent, "dnu_sharp", lambda f: dvb.scale_over_a(-1.0, pinned(f)))
    checks = run_suites(_demo_spec(), suite_names=["duality-diagram", "bracket-pairing"], samples=20)
    failed = {(c["suite"], c["name"]) for c in checks if not c["passed"]}
    assert {
        ("bracket-pairing", "momentum-identity"),
        ("bracket-pairing", "sharp-sign-pinned"),
        ("duality-diagram", "triangle"),
    } <= failed


def test_a_negated_momentum_pairing_fails_both_pairing_suites(monkeypatch):
    # Both pairing suites, and both pairing checks, pair through momentum_pairing.
    pairing = cotangent.momentum_pairing

    def negated(*args):
        lhs, rhs = pairing(*args)
        return -lhs, rhs

    monkeypatch.setattr(cotangent, "momentum_pairing", negated)
    checks = run_suites(_demo_spec(), samples=20, seed=1)
    failed = {(c["suite"], c["name"]) for c in checks if not c["passed"]}
    assert failed == {
        ("bracket-pairing", "momentum-identity"),
        ("bracket-pairing", "decomposed-cross-check"),
        ("bracket-pairing", "sharp-sign-pinned"),
        ("connection-pairing", "momentum-identity"),
        ("connection-pairing", "flat-reduction"),
        ("connection-pairing", "decomposed-cross-check"),
    }
    assert ("bracket-pairing", "closed-forms") in {(c["suite"], c["name"]) for c in checks}


def test_family_jets_without_partials_fail_the_checks_that_differentiate_families(monkeypatch):
    # The calculus suites' random maps are families; a family's jets carry
    # the chain rule's partials, and these checks need them.  One check
    # stays at rounding level: pairing-section-independence's section
    # derivatives cancel by construction.
    push = PolyFamily.eval_generic

    def constant(self, values):
        return [jets.Jet(out.value, [0.0 * p for p in out.partials]) if isinstance(out, jets.Jet) else out
                for out in push(self, values)]

    monkeypatch.setattr(PolyFamily, "eval_generic", constant)
    checks = run_suites(_demo_spec(), samples=24, seed=1)
    failed = {(c["suite"], c["name"]) for c in checks if not c["passed"]}
    assert {
        ("connection", "horizontal-momentum"),
        ("connection", "horizontal-pullback"),
        ("bracket-pairing", "closed-forms"),
        ("connection-pairing", "momentum-identity"),
    } <= failed
    assert len(failed) == 8
    assert ("duality-diagram", "pairing-section-independence") not in failed


def test_a_tangent_pairing_without_its_phi_a_dot_term_fails_functional_rank(monkeypatch):
    # <Xc, xi> = <phi_dot, a> + <phi, a_dot>; without its second term the
    # pairing of unit probes has rank k, not 2k.
    pairing = cotangent.tangent_pairing

    def truncated(xc, xi):
        return pairing(xc, xi) - np.vecdot(xc.a, xi.c)

    monkeypatch.setattr(cotangent, "tangent_pairing", truncated)
    checks = run_suites(_demo_spec(), suite_names=("duality-diagram",), samples=12, seed=1)
    failed = {c["name"] for c in checks if not c["passed"]}
    assert "functional-rank" in failed


@pytest.mark.parametrize("max_batch", [None, 2])
def test_functional_rank_ranks_one_matrix_per_batch(monkeypatch, max_batch):
    if max_batch is not None:
        monkeypatch.setattr(suites, "_MAX_BATCH", max_batch)
    matrix_rank, shapes = np.linalg.matrix_rank, []

    def recorded(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return matrix_rank(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", recorded)
    # 48 samples give the check 12, four of each fiber rank k = 1, 2, 3.
    checks = run_suites(_demo_spec(), suite_names=("duality-diagram",), samples=48, seed=1)
    assert all(c["passed"] for c in checks)
    per_k = 1 if max_batch is None else 2
    assert shapes == [(2 * k, 2 * k) for k in (1, 2, 3) for _ in range(per_k)]


def test_a_row_dependent_linear_part_fails_the_duality_solve(monkeypatch):
    # kappa_0**2 <alpha, a> makes the solved system's matrix depend on the row.
    pair = dvb.pair_b

    def row_dependent(psi, d):
        return pair(psi, d) + psi.kappa[..., 0] ** 2 * dvb._dot(psi.alpha, d.a)

    monkeypatch.setattr(dvb, "pair_b", row_dependent)
    checks = run_suites(_demo_spec(), suite_names=["duality-solve"], samples=20, seed=1)
    [solve] = [c for c in checks if c["name"] == "solve-vs-closed-form"]
    assert not solve["passed"] and solve["max_residual"] > 0.1


def test_a_broken_round_trip_fails_at_any_tolerance(monkeypatch):
    # iso-round-trips is exact: it fails on its largest difference, however small against the tolerance.
    inverse = dvb.dual_iso_b_inverse

    def off_by_one(psi):
        back = inverse(psi)
        return dvb.IterACElement(back.shape, back.m, back.kappa, back.alpha, back.b + 1.0)

    monkeypatch.setattr(dvb, "dual_iso_b_inverse", off_by_one)
    checks = run_suites(_demo_spec(), suite_names=["duality-solve"], samples=6, seed=1, tolerance=2.0)
    [trip] = [c for c in checks if c["name"] == "iso-round-trips"]
    assert (trip["max_residual"], trip["passed"]) == (1.0, False)


def test_a_suite_exception_names_the_run_on_stderr(monkeypatch, capsys):
    error = RuntimeError("duality system unexpectedly singular")

    def raising(spec, samples, rng):
        raise error

    index, _, description = suites.SUITES["warp-pairing"]
    monkeypatch.setitem(suites.SUITES, "warp-pairing", (index, raising, description))
    with pytest.raises(RuntimeError) as raised:
        run_suites(_demo_spec(), suite_names=["duality-solve", "warp-pairing"], samples=7, seed=3)
    assert raised.value is error
    assert capsys.readouterr().err == "error: suite warp-pairing raised RuntimeError (seed 3, samples 7)\n"


def test_run_suites_override_changes_nothing_when_equal():
    spec = _demo_spec()
    defaults = run_suites(spec, samples=50, seed=42, tolerance=1e-9)
    implicit = run_suites(spec)
    assert defaults == implicit


def test_seed_isolation_between_suites():
    # Changing which suites run must not change another suite's stream.
    spec = _demo_spec()
    alone = run_suites(spec, suite_names=["connection"], samples=10)
    with_neighbors = run_suites(
        spec, suite_names=["bracket", "connection", "warp-pairing"], samples=10
    )
    conn_only = [c for c in with_neighbors if c["suite"] == "connection"]
    assert conn_only == alone


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
        # A count above sys.maxsize does not fit the range of samples a suite batches.
        pytest.param({"samples": 10**30}, (), id="spec-samples-above-maxsize"),
        pytest.param({}, ("--samples", str(10**30)), id="cli-samples-above-maxsize"),
    ],
)
def test_cli_tolerance_and_box_must_be_finite(tmp_path, capsys, overrides, argv):
    data = {"chart": {"dim": 1}, "samples": 2, **overrides}
    code, report_path = _verify_spec(tmp_path, data, *argv)
    assert code == 2
    assert "spec error:" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize(
    "box",
    [
        pytest.param([["-1", "1"], [-1, 1]], id="strings"),
        pytest.param([[False, True], [-1, 1]], id="booleans"),
        pytest.param([[], [-1, 1]], id="empty-pair"),
        pytest.param([[1], [-1, 1]], id="one-bound"),
        pytest.param([[-1, 1, 2], [-1, 1]], id="three-bounds"),
    ],
)
def test_cli_box_bounds_must_be_json_numbers(tmp_path, capsys, box):
    code, report_path = _verify_spec(tmp_path, {"chart": {"dim": 2, "box": box}, "samples": 2})
    assert code == 2
    assert "spec error: chart.box must list [lo, hi] pairs of numbers" in capsys.readouterr().err
    assert not report_path.exists()
    # Integer bounds stay valid.
    code, _ = _verify_spec(tmp_path, {"chart": {"dim": 2, "box": [[-1, 1], [0, 2]]}, "samples": 2})
    assert code == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("high", [1e4, 1e8])
def test_duality_diagram_on_a_wide_box_reports_every_check(tmp_path, high, seed):
    # Each extending section's fiber point is the section's own value, so no
    # rounding makes it miss the point.  pairing-section-independence may
    # still fail on the absolute rounding error of values near 1e16.
    code, report_path = _verify_spec(
        tmp_path, {"chart": {"dim": 1, "box": [[0, high]]}},
        "--suite", "duality-diagram", "--samples", "8", "--seed", str(seed),
    )
    assert code in (0, 1)
    checks = json.loads(report_path.read_text(encoding="utf-8"))["checks"]
    assert [(c["name"], c["samples"]) for c in checks] == [
        ("triangle", 8), ("pairing-section-independence", 6), ("functional-rank", 2),
    ]
    assert checks[0]["passed"] and checks[2]["passed"]


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param([{"chart": {"dim": 1}}], "spec must be a JSON object", id="spec-not-object"),
        pytest.param({"chart": [1]}, "chart must be an object", id="chart-not-object"),
        pytest.param({"chart": {"dim": 1}, "fields": [["x0"]]}, "fields must map names", id="fields-not-obj"),
        pytest.param(
            {"chart": {"dim": 2}, "connection": {"forms": [[["0", "0"], ["0", "0"]]]}},
            "connection.forms must list one matrix per chart direction (2)",
            id="forms-count",
        ),
        pytest.param(
            {"chart": {"dim": 1}, "connection": {"fiber_dim": 0, "forms": [[]]}},
            "connection.fiber_dim must be a positive integer",
            id="fiber-dim-zero",
        ),
        pytest.param(
            {"chart": {"dim": 1}, "connection": {"fiber_dim": True, "forms": [[["0"]]]}},
            "connection.fiber_dim must be a positive integer",
            id="fiber-dim-true",
        ),
        pytest.param(
            {"chart": {"dim": 1}, "connection": {"forms": [[]]}},
            "connection.fiber_dim must be a positive integer",
            id="fiber-dim-inferred-zero",
        ),
        pytest.param(
            {"chart": {"dim": 1}, "connection": {"forms": [[["0", "0"], ["0", 1]]]}},
            "connection.forms[0] must be a 2x2 matrix of expressions",
            id="forms-row-not-strings",
        ),
        pytest.param(
            {"chart": {"dim": 1}, "connection": {"forms": [[["0", "x0+"], ["0", "0"]]]}},
            "connection.forms:",
            id="forms-do-not-parse",
        ),
        pytest.param({"chart": {"dim": 1}, "dvb_shapes": []}, "dvb_shapes must be", id="shapes-empty"),
        pytest.param({"chart": {"dim": 1}, "dvb_shapes": {"a": [1, 1, 1, 0]}}, "dvb_shapes must be", id="shapes-dict"),
        pytest.param({"chart": {"dim": 1}, "dvb_shapes": [[1.5, 1, 1, 0]]},
                     "dvb_shapes[0]: a dimension must be an integer, got 1.5", id="shapes-float"),
        pytest.param({"chart": {"dim": 1}, "dvb_shapes": [[1, 1, 1, 0], [1, 1, 1, True]]},
                     "dvb_shapes[1]: a dimension must be an integer, got True", id="shapes-bool"),
        # Integers longer than int() converts (4,300 digits by default).
        pytest.param(
            {"chart": {"dim": 1}, "fields": {"X": ["x0^" + "9" * 5000]}},
            "fields.X: integer of 5000 characters is too long (offset 3)",
            id="exponent-5000-digits",
        ),
        pytest.param(
            {"chart": {"dim": 1}, "fields": {"X": ["x" + "9" * 5000]}},
            "fields.X: integer of 5000 characters is too long (offset 0)",
            id="variable-index-5000-digits",
        ),
    ],
)
def test_cli_unusable_spec_exits_two_naming_the_key(tmp_path, capsys, data, message):
    code, report_path = _verify_spec(tmp_path, data)
    assert code == 2
    assert f"spec error: {message}" in capsys.readouterr().err
    assert not report_path.exists()


def test_cli_verify_needs_a_spec_path_or_demo(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert cli.main(["verify", "--quiet", "--json-out", str(report_path)]) == 2
    assert "spec error: a spec path or --demo is required" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["verify", "--demo", "--suite", "nope"],
     ["verify", "--demo", "--suite", "nope", "--json-out", "report.json"]],
)
def test_cli_usage_errors_exit_two_with_usage_and_no_report(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: dvbcalc")
    assert list(tmp_path.iterdir()) == []


def test_cli_runs_the_duality_suites_on_the_spec_shapes(tmp_path):
    data = {"chart": {"dim": 2}, "dvb_shapes": [[1, 2, 1, 0], [2, 1, 3, 2]], "samples": 6}
    argv = ("--suite", "duality-solve", "--suite", "warp-pairing")
    code, report_path = _verify_spec(tmp_path, data, *argv)
    assert code == 0
    report = report_path.read_text(encoding="utf-8")
    checks = json.loads(report)["checks"]
    assert {c["suite"] for c in checks} == {"duality-solve", "warp-pairing"}
    assert all(c["passed"] for c in checks)
    spec = ProblemSpec.from_file(str(tmp_path / "spec.json"))
    assert spec.dvb_shapes == (dvb.DvbShape(1, 2, 1, 0), dvb.DvbShape(2, 1, 3, 2))
    # The built-in shapes give another report.
    del data["dvb_shapes"]
    _, report_path = _verify_spec(tmp_path, data, *argv)
    assert report_path.read_text(encoding="utf-8") != report


def test_cli_failing_report_write_exits_two(tmp_path, capsys, monkeypatch):
    def failing_write_open(path, mode="r", *args, **kwargs):
        # The probe opens the path to append; only the final write fails.
        if mode == "w":
            raise OSError("disk full")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_write_open, raising=False)
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", "--demo", "--samples", "2", "--quiet", "--json-out", str(report_path)])
    assert code == 2
    assert "error: cannot write the report: disk full" in capsys.readouterr().err


class _FailingWrite:
    """A file opened for writing whose every write fails, as on a full disk."""

    def __init__(self, out):
        self.out = out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.out.close()

    def write(self, text):
        raise OSError("disk full")


@pytest.mark.parametrize("existing", [b"an earlier report\n", None], ids=["existing", "absent"])
def test_cli_failed_report_write_leaves_the_path_as_it_was(tmp_path, capsys, monkeypatch, existing):
    def failing_write_open(path, mode="r", *args, **kwargs):
        out = open(path, mode, *args, **kwargs)
        return _FailingWrite(out) if mode == "w" else out

    monkeypatch.setattr(cli, "open", failing_write_open, raising=False)
    report_path = tmp_path / "report.json"
    if existing is not None:
        report_path.write_bytes(existing)
    code = cli.main(["verify", "--demo", "--samples", "2", "--quiet", "--json-out", str(report_path)])
    assert code == 2
    assert "error: cannot write the report: disk full" in capsys.readouterr().err
    if existing is None:
        assert not report_path.exists()
    else:
        assert report_path.read_bytes() == existing
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["report.json"])


_SMALL_RUN = ["verify", "--demo", "--suite", "bracket", "--samples", "2", "--quiet", "--json-out"]


def test_cli_report_to_a_fifo_leaves_the_fifo_in_place(tmp_path):
    plain, fifo = tmp_path / "plain.json", tmp_path / "report.fifo"
    assert cli.main([*_SMALL_RUN, str(plain)]) == 0
    os.mkfifo(fifo)
    # A reader that is already open lets the write proceed without a thread;
    # the small report fits in the pipe's buffer.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main([*_SMALL_RUN, str(fifo)]) == 0
        received = os.read(reader, 1 << 20)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == plain.read_bytes()


@pytest.mark.parametrize("existing_mode", [0o640, None], ids=["existing", "absent"])
def test_cli_report_through_a_symlink_updates_the_target(tmp_path, existing_mode):
    plain, target, link = tmp_path / "plain.json", tmp_path / "target.json", tmp_path / "link.json"
    assert cli.main([*_SMALL_RUN, str(plain)]) == 0
    if existing_mode is not None:
        target.write_bytes(b"an earlier report\n")
        target.chmod(existing_mode)
    link.symlink_to(target)
    assert cli.main([*_SMALL_RUN, str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    # The mode open(path, "w") gives: an existing file keeps its own, a new
    # one gets open's.
    fresh = tmp_path / "fresh"
    with open(fresh, "w"):
        pass
    want = existing_mode if existing_mode is not None else stat.S_IMODE(fresh.stat().st_mode)
    fresh.unlink()
    assert stat.S_IMODE(target.stat().st_mode) == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "plain.json", "target.json"]


def test_cli_field_name_with_a_comma_exits_two(tmp_path, capsys):
    # The bracket suite keys its details by "a,b": fields "a,b", "c", "a" and
    # "b,c" would give 12 pairs but only 11 distinct keys.
    fields = {name: ["x1", "x0"] for name in ("a,b", "c", "a", "b,c")}
    code, report_path = _verify_spec(tmp_path, {"chart": {"dim": 2}, "fields": fields, "samples": 2})
    assert code == 2
    assert "spec error: fields.a,b: a field name may not contain ','" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 100_000, id="nested-past-recursion-limit"),
        pytest.param(b'{"chart": {"dim": 1}, "samples": ' + b"9" * 5000 + b"}", id="samples-5000-digits"),
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


@pytest.mark.parametrize("failing", ["probe", "final-write"])
def test_cli_write_error_names_the_report_path(tmp_path, capsys, monkeypatch, failing):
    # The probe and the final write each make a file beside the report; the
    # error names the report's path, not theirs, and keeps the reason.
    report_path = tmp_path / "report.json"
    if failing == "probe":
        report_path = tmp_path / "no-such-dir" / "report.json"
    else:
        def full_disk_open(path, mode="r", *args, **kwargs):
            if mode == "w":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    assert cli.main([*_SMALL_RUN, str(report_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    reason = os.strerror(errno.ENOENT if failing == "probe" else errno.ENOSPC)
    assert line.startswith("error: cannot write the report: [Errno ") and reason in line
    assert line.endswith(f": {str(report_path)!r}") and line.count(str(tmp_path)) == 1


def test_cli_unwritable_json_out_exits_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was opened")

    monkeypatch.setattr(cli, "run_suites", no_run)
    missing = tmp_path / "no-such-dir" / "report.json"
    assert cli.main(["verify", "--demo", "--json-out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the report")


def test_cli_directory_as_json_out_exits_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was opened")

    monkeypatch.setattr(cli, "run_suites", no_run)
    assert cli.main(["verify", "--demo", "--json-out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the report")
    assert list(tmp_path.iterdir()) == []


def test_cli_crashed_run_leaves_no_report(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("suite crashed")

    monkeypatch.setattr(cli, "run_suites", crash)
    report_path = tmp_path / "report.json"
    with pytest.raises(RuntimeError, match="suite crashed"):
        cli.main(["verify", "--demo", "--json-out", str(report_path)])
    assert not report_path.exists()


def test_cli_crashed_run_leaves_an_existing_report_as_it_was(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("suite crashed")

    monkeypatch.setattr(cli, "run_suites", crash)
    report_path = tmp_path / "report.json"
    report_path.write_bytes(b"an earlier report\n")
    with pytest.raises(RuntimeError, match="suite crashed"):
        cli.main(["verify", "--demo", "--json-out", str(report_path)])
    assert report_path.read_bytes() == b"an earlier report\n"


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
    res.add(0.5, samples=1)
    res.add(np.array([0.25, -2.0, 1.0]), np.array([0.0, 0.0, 0.5]), samples=3)
    res.add(np.array([[0.0, 1.5]]), samples=2)
    res.add(np.array([[1.0, 0.5]]), np.array([[0.25, 0.5]]), samples=0)
    result = res.result("suite", 1e-9)
    assert (result["samples"], result["max_residual"], result["passed"]) == (6, 2.0, False)


def test_residuals_compare_records_component_by_component():
    shape = dvb.DvbShape(1, 2, 1, 1)
    m, a, b, c = np.array([[0.5], [0.25]]), np.array([[1.0], [2.0]]), np.zeros((2, 2)), np.ones((2, 1))
    broken_b = np.array([[0.0, 0.0], [0.0, -0.375]])
    exact = suites._Residuals("records", "a record comparison", exact=True)
    exact.add(dvb.DvbElement(shape, m, a, b, c), dvb.DvbElement(shape, m, a, b, c), samples=2)
    assert exact.result("suite", 1.0)["passed"]
    exact.add(dvb.DvbElement(shape, m, a, b, c), dvb.DvbElement(shape, m, a, broken_b, c), samples=2)
    assert exact.result("suite", 1.0) == {
        "name": "records", "suite": "suite", "description": "a record comparison",
        "samples": 4, "max_residual": 0.375, "passed": False,
    }


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        (dvb.DvbElement(dvb.DvbShape(1, 1, 1), [], [1.0], [2.0], [3.0]),
         dvb.DualAElement(dvb.DvbShape(1, 1, 1), [], [1.0], [2.0], [3.0])),
        (dvb.DvbElement(dvb.DvbShape(1, 1, 1), [], [1.0], [2.0], [3.0]),
         dvb.DvbElement(dvb.DvbShape(1, 1, 2), [], [1.0], [2.0], [3.0, 3.0])),
        (dvb.DvbElement(dvb.DvbShape(1, 1, 1), [], [1.0], [2.0], [[3.0], [4.0]]),
         dvb.DvbElement(dvb.DvbShape(1, 1, 1), [], [1.0], [2.0], [[3.0], [4.0], [5.0]])),
    ],
    ids=["record-classes", "record-shapes", "batch-lengths"],
)
def test_residuals_fail_sides_that_do_not_match(lhs, rhs):
    res = suites._Residuals("mismatch", "sides of different kinds")
    res.add(lhs, rhs, samples=1)
    assert not res.passes(math.inf)
    assert res.result("suite", 1e-9)["max_residual"] == sys.float_info.max


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
        # A map's seeded pass, smoothmaps.jacobian's too, seeds its bound eval_generic.
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

    spec = spec._replace(connection=Connection(spec.connection.bundle, coefficients._replace(fn=counted)))
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
    reference stream that poly_map's single draw must keep for dim 0 and
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
    assert support.poly_map(ours, dim, codim, degree) == _poly_map_per_coefficient(
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
    poly = support.poly_map(rng, dim, codim)
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


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_connection_is_bitwise_the_tree_of_its_draw(n, k):
    """A random connection's coefficient arrays give the tensor of the
    degree-1 tree of the same draw, reshaped row-major to (n, k, k), with
    the same bytes at one point and at a batch, and leave the stream where
    the tree's draw leaves it."""
    rng, replay = np.random.default_rng(3), np.random.default_rng(3)
    conn = suites._random_connection(rng, Chart(n), k)
    tree = MatrixMap.from_smooth_map(support.poly_map(replay, n, n * k * k, degree=1), n, k, k)
    points = np.random.default_rng(4).uniform(-1.0, 1.0, (5, n))
    for point in (points[0], points):
        got, want = conn.coefficients(point), tree(point)
        assert got.shape == want.shape == (*point.shape[:-1], n, k, k)
        assert got.tobytes() == want.tobytes()
    assert rng.uniform() == replay.uniform()


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
    assert {(c["suite"], c["name"], c["samples"]) for c in checks} == expected
    assert all(c["passed"] for c in checks)


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
    spec = _demo_spec()._replace(dvb_shapes=(dvb.DvbShape(2, 1, 2, 1),))
    suites._run_duality_solve(spec, 4, np.random.default_rng(0))
    [[m, *_]] = draws
    # The solve's probe records repeat each row over a block of probes.
    of_batch = [record for record in records if record.batch == 4]
    assert len(of_batch) > 10 and all(record.m is m for record in of_batch)


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
    assert {(c["suite"], c["name"], c["samples"]) for c in checks} == expected
    assert all(c["passed"] for c in checks)


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


def test_columns_are_the_split_blocks_read_only_and_owning():
    block = np.random.default_rng(3).uniform(-1.0, 1.0, (10, 9))
    for dims in ([2, 3, 4], [9], [1, 0, 8], []):
        cols = suites._columns(block, dims)
        reference = np.split(block, np.cumsum(dims)[:-1], axis=1) if dims else []
        assert [(c.shape, c.tobytes()) for c in cols] == [(r.shape, r.tobytes()) for r in reference]
        assert all(not c.flags.writeable and c.base is None for c in cols)


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


def test_only_data_parameters_have_defaults():
    # Conventions such as the sharp map's sign are fixed, not options: the
    # only public parameters with defaults are the chart box and the base
    # dimension of a shape.
    defaults = [
        f"{name}({param})"
        for name, fn in _public_callables()
        for param, value in inspect.signature(fn).parameters.items()
        if value.default is not inspect.Parameter.empty
    ]
    assert sorted(defaults) == ["dvbcalc.charts.Chart.__init__(box)", "dvbcalc.dvb.DvbShape.__init__(base_dim)"]


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
    assert [c["name"] for c in checks if not c["passed"]] == [failing]


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
    assert all(c["passed"] for c in healthy)
    spec, replaced = _spec_with_one_point_replaced(monkeypatch, data, index, [bad])
    with np.errstate(all="ignore"):
        checks = run_suites(spec, suite_names=[suite], samples=samples)
    assert [(c["name"], c["passed"]) for c in checks] == [("domain-error", False)]
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
    assert all(c["passed"] for c in healthy)
    spec, replaced = _spec_with_one_point_replaced(monkeypatch, data, index, [1.0])
    with np.errstate(all="ignore"):
        checks = run_suites(spec, suite_names=[suite], samples=samples)
    assert len(replaced) == 1 and replaced[0] >= 2
    assert all(c["name"] != "domain-error" for c in checks)
    assert not all(c["passed"] for c in checks)
