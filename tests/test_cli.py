"""Command-line interface: output contracts, exit codes, round-trips."""

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import accrgeo
from accrgeo import (
    Frame,
    LieAlgebra,
    ManifoldDefinition,
    VerticalScalar,
    analyze,
    build_example2,
    flat_carrier_structure,
    cli,
    save_definition,
    scenarios,
    solitons,
    solve_vertical_soliton,
    sweep,
)
from accrgeo.cli import MAX_N, OPTIONS, RunConfig, cmd_inspect, cmd_sweep, main, to_json
from accrgeo.scenarios import SweepResult
from accrgeo.tensors import MAX_DIM

from conftest import semidirect_constants


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_example2_contract(capsys):
    code, out, _ = run(capsys, "inspect", "--scenario", "example2", "--p", "0", "--q", "0")
    assert code == 0
    assert "tau = 4" in out
    assert "tau_tilde = 4" in out
    assert "sasaki_like = true" in out
    assert "eta_einstein (a,b,c)=(0,0,4)" in out


def test_soliton_solve_contract(capsys):
    code, out, _ = run(
        capsys, "soliton", "--scenario", "example2", "--beta", "0", "--t0", "1", "--solve"
    )
    assert code == 0
    assert "lambda = 2, lambda_tilde = -2" in out
    assert "result = pass" in out


def test_soliton_example1_contract(capsys):
    code, out, _ = run(
        capsys, "soliton", "--scenario", "example1", "--t", "0", "--n", "2", "--beta", "0"
    )
    assert code == 0
    assert "tau+tau_tilde = 24" in out


def test_soliton_wrong_lambda_fails(capsys):
    code, out, _ = run(
        capsys,
        "soliton", "--scenario", "example2", "--beta", "0", "--t0", "1",
        "--lambda", "5", "--lambda-tilde", "-2",
    )
    assert code == 1
    assert "FAIL" in out


def test_round_trip_bit_for_bit(capsys, tmp_path):
    alg, s = build_example2(1.0, -2.0)
    path = tmp_path / "ex2.json"
    save_definition(ManifoldDefinition.from_structure(alg, s), path)
    code_a, out_a, _ = run(
        capsys, "inspect", "--scenario", "example2", "--p", "1", "--q", "-2"
    )
    code_b, out_b, _ = run(capsys, "inspect", "--input", str(path))
    assert code_a == code_b == 0
    assert out_a == out_b


def test_non_jacobi_definition_exit_2(capsys, tmp_path):
    alg, s = build_example2(0.0, 0.0)
    d = ManifoldDefinition.from_structure(alg, s).to_dict()
    d["structure_constants"] = list(d["structure_constants"]) + [[1, 2, 3, 1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "inspect", "--input", str(path))
    assert code == 2
    assert "Jacobi" in err
    assert "triple" in err


def test_abelian_classifies_false(capsys, tmp_path):
    alg, s = build_example2(0.0, 0.0)
    d = ManifoldDefinition.from_structure(alg, s).to_dict()
    d["structure_constants"] = []
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps(d))
    code, out, _ = run(capsys, "inspect", "--input", str(path))
    assert code == 0
    assert "sasaki_like = false" in out


def test_sweep_degenerate_row_marked(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--scenario", "example1",
        "--grid-n", "2", "--grid-beta", "0",
        "--grid-t", "0,2.356194490192345,1.0",
    )
    assert code == 0
    assert "degenerate" in out
    assert "degenerate = 1" in out


def test_sweep_next_to_the_excluded_t_marks_one_degenerate_row(capsys):
    # |sqrt2 + cos t - sin t| is 6.6e-8 at t = 2.3565: both scalar-curvature
    # routes are dominated by rounding there, and the point is excluded
    code, out, err = run(
        capsys,
        "sweep", "--scenario", "example1", "--format", "json",
        "--grid-t", "0,2.3565", "--grid-n", "2", "--grid-beta", "0",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["summary"] == {"rows": 2, "pass": 1, "fail": 0, "degenerate": 1}
    assert [row["degenerate"] for row in payload["rows"]] == [False, True]


def test_sweep_json_stable_fields(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--scenario", "example2", "--format", "json",
        "--grid-p", "0", "--grid-q", "0", "--grid-beta", "0", "--grid-t0", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "example2"
    row = payload["rows"][0]
    assert set(row) == {
        "index", "params", "scalars", "degenerate", "passed",
        "worst_check", "worst_residual",
    }
    assert payload["summary"]["rows"] == 1


def test_soliton_json_format(capsys):
    code, out, _ = run(
        capsys,
        "soliton", "--scenario", "example2", "--beta", "0", "--t0", "1",
        "--solve", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["scalars"]["lambda"] == pytest.approx(2.0)
    names = [c["name"] for c in payload["checks"]]
    assert "soliton_residual" in names


def test_tol_override_rejudges(capsys):
    # a lambda off by 1e-6 fails at default tolerance and passes at 1e-3
    args = [
        "soliton", "--scenario", "example2", "--beta", "0", "--t0", "1",
        "--lambda", "2.000001", "--lambda-tilde", "-2",
    ]
    code_strict, _, _ = run(capsys, *args)
    code_loose, _, _ = run(capsys, *args, "--tol", "1e-3")
    assert code_strict == 1
    assert code_loose == 0


def test_bad_tol_rejected(capsys):
    code, _, err = run(
        capsys, "soliton", "--scenario", "example2", "--tol", "-1", "--solve"
    )
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize(
    "argv,option",
    [
        (("soliton", "--scenario", "example1", "--n", "0"), "--n"),
        (("sweep", "--scenario", "example1", "--grid-n", "2,0"), "--grid-n"),
    ],
)
def test_n_below_one_rejected(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option} ")
    assert "Traceback" not in err


def test_both_input_and_scenario_rejected(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _, err = run(
        capsys, "inspect", "--input", str(path), "--scenario", "example2"
    )
    assert code == 2
    assert "exactly one" in err


def test_neither_input_nor_scenario_rejected(capsys):
    code, _, _ = run(capsys, "inspect")
    assert code == 2


def test_unknown_scenario_rejected(capsys):
    code, out, err = run(capsys, "soliton", "--scenario", "example9", "--solve")
    assert (code, out) == (2, "")
    assert err == (
        "error: soliton does not take --scenario example9; "
        "it takes --scenario example1 or --scenario example2 or --input\n"
    )


def test_inspect_example1_rejected(capsys):
    # example1 is a formula-level curve, not a concrete manifold
    code, out, err = run(capsys, "inspect", "--scenario", "example1")
    assert (code, out) == (2, "")
    assert err == (
        "error: inspect does not take --scenario example1; "
        "it takes --scenario example2 or --input\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        # the definition file does not exist: the request is rejected first
        (
            ("soliton", "--input", "/nonexistent.json", "--beta", "0.3"),
            "no potential specified: pass --k/--k-prime (vertical) or "
            "--psi/--psi-tilde (conformal)",
        ),
        (
            ("soliton", "--input", "/nonexistent.json", "--k", "1", "--k-prime", "0"),
            "pass --lambda and --lambda-tilde, or --solve, or --mu for "
            "the single-metric equation",
        ),
        (
            ("inspect", "--scenario", "example9"),
            "inspect does not take --scenario example9; it takes --scenario example2 or --input",
        ),
        (
            ("sweep", "--scenario", "example9"),
            "sweep does not take --scenario example9; "
            "it takes --scenario example1 or --scenario example2",
        ),
        (("sweep", "--scenario", "example2", "--grid-p", ","), "--grid-p has no values"),
        (
            ("sweep", "--scenario", "example1", "--grid-n", "1.5"),
            "--grid-n: '1.5' is not an integer",
        ),
    ],
)
def test_a_bad_request_exits_2_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a rejected request reached the pipeline")

    for name in ("load_definition", "example2_state", "example1_point", "sweep"):
        monkeypatch.setattr(accrgeo.cli, name, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_vertical_needs_both_k_flags(capsys, tmp_path):
    alg, s = build_example2(0.0, 0.0)
    path = tmp_path / "ex2.json"
    save_definition(ManifoldDefinition.from_structure(alg, s), path)
    code, _, err = run(
        capsys, "soliton", "--input", str(path), "--k", "1", "--solve"
    )
    assert code == 2
    assert "--k-prime" in err or "k-prime" in err


def test_input_soliton_vertical_solve(capsys, tmp_path):
    alg, s = build_example2(2.0, 1.0)
    path = tmp_path / "ex2.json"
    save_definition(ManifoldDefinition.from_structure(alg, s), path)
    code, out, _ = run(
        capsys,
        "soliton", "--input", str(path), "--beta", "0.25",
        "--k", "-2", "--k-prime", "-2", "--solve",
    )
    assert code == 0
    # t0 = 1, beta = 1/4: lam = 2(1 - 1/2) = 1, lam~ = -2(1 + 1/2) = -3
    assert "lambda = 1, lambda_tilde = -3" in out


def test_input_soliton_conformal_reports_obstruction(capsys, tmp_path):
    # a conformal potential forces tau + tau_tilde = 4n(n+1) = 24, but this
    # manifold has tau + tau_tilde = 8: no choice of scalars can pass, and
    # the report must say which identity is violated
    alg, s = build_example2(0.0, 0.0)
    path = tmp_path / "ex2.json"
    save_definition(ManifoldDefinition.from_structure(alg, s), path)
    code, out, _ = run(
        capsys,
        "soliton", "--input", str(path), "--beta", "0",
        "--psi", "-3", "--psi-tilde", "1", "--lambda", "0", "--lambda-tilde", "0",
    )
    assert code == 1
    assert "scalar_sum" in out
    assert "FAIL" in out


#: per beta at n = 2: the conformal checks between phi_trace_relation and
#: ricci_from_soliton_coeffs, and the report notes
_CONFORMAL_BRANCHES = {
    "-0.25": (
        ["unit_sum_g", "unit_sum_assoc"],
        [
            "beta at the branch point -1/(2n): the scalar curvatures decouple "
            "from the potential sums"
        ],
    ),
    "-0.2": (
        ["tau_from_sums", "tau_assoc_from_sums", "sums_closure", "tau_assoc_solved_form"],
        ["beta = -1/(2n+1): nested tau elimination skipped (guarded division)"],
    ),
    "0": (
        ["tau_from_sums", "tau_assoc_from_sums", "sums_closure", "tau_nested_form"],
        ["beta = 0: tau_assoc elimination skipped (guarded division)"],
    ),
    "0.3": (
        [
            "tau_from_sums", "tau_assoc_from_sums", "sums_closure", "tau_nested_form",
            "tau_assoc_solved_form",
        ],
        [],
    ),
}


@pytest.mark.parametrize("beta", list(_CONFORMAL_BRANCHES))
def test_input_soliton_conformal_branches(capsys, tmp_path, beta):
    # -1/(2n) is the branch point, -1/(2n+1) and 0 each skip one guarded
    # division; the semidirect file has rho = 4 eta(.)eta, which is not of
    # the Einstein-like form the theorem forces, so every branch fails
    path, _ = _semidirect_n2_file(tmp_path)
    code, out, _ = run(
        capsys,
        "soliton", "--input", path, f"--beta={beta}", "--psi", "1", "--psi-tilde=-1",
        "--lambda", "0.5", "--lambda-tilde", "0.25", "--format", "json",
    )
    branch_checks, notes = _CONFORMAL_BRANCHES[beta]
    assert code == 1
    assert _check_names(out) == [
        "scalar_sum", "g_trace_closure", "reeb_trace_closure", "phi_trace_relation",
        *branch_checks,
        "ricci_from_soliton_coeffs", "ricci_einstein_like", "soliton_residual",
    ]
    assert json.loads(out)["notes"] == notes


def test_mu_single_metric_route(capsys):
    code, out, _ = run(
        capsys,
        "soliton", "--scenario", "example2", "--beta", "0",
        "--k", "0", "--k-prime", "0", "--mu", "-4",
    )
    assert code == 0
    assert "eta_soliton_residual" in out


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


@pytest.mark.parametrize(
    "argv,option",
    [
        (("soliton", "--scenario", "example2", "--beta", "nan", "--format", "json"), "--beta"),
        (("sweep", "--scenario", "example2", "--grid-beta", "nan"), "--grid-beta"),
        (("soliton", "--scenario", "example2", "--tol", "inf", "--lambda", "99"), "--tol"),
        (("sweep", "--scenario", "example1", "--grid-t", "inf"), "--grid-t"),
        (("soliton", "--scenario", "example2", "--k", "1", "--k-prime=-inf"), "--k-prime"),
        (("soliton", "--scenario", "example1", "--lambda-tilde", "nan"), "--lambda-tilde"),
        (("soliton", "--scenario", "example2", "--tol", "nan", "--solve"), "--tol"),
        # finite options whose formulas overflow to -inf and NaN
        (("soliton", "--scenario", "example2", "--beta", "1e308", "--format", "json"), "--beta"),
        (
            (
                "sweep", "--scenario", "example2", "--grid-p", "0", "--grid-q", "0",
                "--grid-t0", "1", "--grid-beta", "1e308", "--format", "json",
            ),
            "--grid-beta",
        ),
    ],
)
def test_non_finite_input_rejected(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option} ")
    assert "Traceback" not in err


def _first_maximal(checks, tol_override):
    keys = [c.residual / (c.tol if tol_override is None else tol_override) for c in checks]
    return checks[keys.index(max(keys))]


@pytest.mark.parametrize("tol", [None, "1e-16", "1e-3"])
def test_sweep_worst_check_is_first_maximal_margin(capsys, tol):
    grids = {"p": [0.0, 1.5], "q": [-2.0], "beta": [-0.25, 0.0, 0.5], "t0": [1.0, -1.0]}
    argv = ["sweep", "--scenario", "example2", "--format", "json"]
    argv += [f"--grid-{name}={','.join(map(repr, values))}" for name, values in grids.items()]
    if tol is not None:
        argv += ["--tol", tol]
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    tol_override = None if tol is None else float(tol)
    result = sweep(
        "example2",
        p_grid=grids["p"],
        q_grid=grids["q"],
        beta_grid=grids["beta"],
        t0_grid=grids["t0"],
    )
    assert len(payload["rows"]) == len(result.rows) == 12
    for row, expected in zip(payload["rows"], result.rows):
        checks = expected.report.checks
        worst = _first_maximal(checks, tol_override)
        assert row["worst_check"] == worst.name
        assert row["worst_residual"] == worst.residual
        limit = [c.tol if tol_override is None else tol_override for c in checks]
        assert row["passed"] == all(c.residual < lim for c, lim in zip(checks, limit))
    assert code == (0 if payload["summary"]["fail"] == 0 else 1)
    # the strict override fails rows, the loose one passes them all
    if tol == "1e-16":
        assert payload["summary"]["fail"] > 0
    if tol == "1e-3":
        assert payload["summary"]["fail"] == 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, math.nan]), st.sampled_from([1e-10, 1e-9])
        ),
        max_size=6,
    ),
    st.sampled_from([None, 1e-9]),
)
def test_verdict_is_all_passed_and_first_maximal_margin(pairs, tol_override):
    checks = [solitons.Check(f"c{i}", residual, tol) for i, (residual, tol) in enumerate(pairs)]
    report = solitons.TheoremReport(checks)
    limits = [check.tol if tol_override is None else tol_override for check in checks]
    expected_passed = all(check.residual < limit for check, limit in zip(checks, limits))
    # max() keeps the first of equal keys, and a NaN key never replaces one
    expected_worst = max(
        zip(checks, limits), key=lambda pair: pair[0].residual / pair[1], default=(None,)
    )[0]
    passed, worst = report.verdict(tol_override)
    assert passed == expected_passed
    assert worst is expected_worst
    if tol_override is None:
        assert report.passed == expected_passed
        assert report.worst() is expected_worst


def _example2_file(tmp_path, name, **changes):
    """example2 at (0, 0) as a definition file, with the given keys replaced."""
    alg, s = build_example2(0.0, 0.0)
    d = ManifoldDefinition.from_structure(alg, s).to_dict()
    d.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def _check_names(out):
    return [c["name"] for c in json.loads(out)["checks"]]


def test_input_soliton_mu(capsys, tmp_path):
    # rho = 4 eta(.)eta: zero potential, lam = 0 and mu = -4 solve the
    # single-metric equation at beta = 0
    path = _example2_file(tmp_path, "ex2.json")
    code, out, _ = run(
        capsys,
        "soliton", "--input", path, "--k", "0", "--k-prime", "0", "--mu=-4",
        "--format", "json",
    )
    assert code == 0
    assert _check_names(out) == [
        "lie_g_closed_vs_connection", "lie_assoc_closed_vs_connection", "eta_soliton_residual",
    ]
    assert json.loads(out)["scalars"]["mu"] == -4.0


def test_input_soliton_supplied_lambdas_without_solve(capsys, tmp_path):
    # the family potential at t0 = 1, beta = 0 has lam = 2, lam~ = -2
    path = _example2_file(tmp_path, "ex2.json")
    code, out, _ = run(
        capsys,
        "soliton", "--input", path, "--k=-2", "--k-prime=-2",
        "--lambda", "2", "--lambda-tilde=-2", "--format", "json",
    )
    assert code == 0
    assert _check_names(out) == [
        "lie_g_closed_vs_connection", "lie_assoc_closed_vs_connection", "soliton_residual",
    ]


def test_input_soliton_not_sasaki_like(capsys, tmp_path):
    path = _example2_file(tmp_path, "abelian.json", structure_constants=[])
    code, out, _ = run(
        capsys,
        "soliton", "--input", path, "--k", "1", "--k-prime", "0",
        "--lambda", "0", "--lambda-tilde", "0", "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert _check_names(out) == ["soliton_residual"]
    assert len(payload["notes"]) == 1
    assert "not Sasaki-like" in payload["notes"][0]
    code, out, err = run(
        capsys, "soliton", "--input", path, "--k", "1", "--k-prime", "0", "--solve"
    )
    assert code == 2
    assert out == ""
    assert "needs a Sasaki-like structure" in err


@pytest.mark.parametrize(
    "argv,name",
    [
        (("soliton", "--scenario", "example2", "--solve"), "vertical_solutions"),
        (("soliton", "--scenario", "example1"), "_example1_level"),
    ],
)
def test_soliton_evaluates_once(capsys, monkeypatch, argv, name):
    calls = []
    for module in (solitons, scenarios):
        original = getattr(module, name, None)
        if original is not None:

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def _semidirect_n2_file(tmp_path):
    """The Sasaki-like semidirect algebra on the dim-5 flat carrier, as a
    definition file, with its analysis."""
    path = tmp_path / "semidirect-n2.json"
    alg = LieAlgebra(Frame(5), semidirect_constants(2))
    s = flat_carrier_structure(2)
    save_definition(ManifoldDefinition.from_structure(alg, s), path)
    return str(path), analyze(alg, s)


@pytest.mark.parametrize(
    "argv,builds",
    [
        (("soliton", "--input", None, "--k", "0.5", "--k-prime=-2", "--solve"), 0),
        (("inspect", "--input", None), 1),
        (("soliton", "--scenario", "example2", "--solve"), 1),
    ],
)
def test_curvature_tensor_is_built_only_where_it_is_listed(
    capsys, monkeypatch, tmp_path, argv, builds
):
    # inspect's curvature_nonzero and example2's curvature_table read the
    # curvature tensor of g; nothing reads the one of g_assoc
    path, a = _semidirect_n2_file(tmp_path)
    metrics = []
    original = accrgeo.geometry.riemann

    def counted(conn, alg, metric):
        metrics.append(metric.matrix)
        return original(conn, alg, metric)

    monkeypatch.setattr(accrgeo.geometry, "riemann", counted)
    scenarios.example2_state.cache_clear()
    code, _, _ = run(capsys, *(path if arg is None else arg for arg in argv))
    assert code == 0
    assert len(metrics) == builds
    # example2 lies on the same flat carrier of n = 2 as the file
    assert not np.array_equal(a.s.g.matrix, a.s.g_assoc.matrix)
    assert all(np.array_equal(matrix, a.s.g.matrix) for matrix in metrics)


def test_a_single_example2_point_is_analysed_once_as_one_algebra(capsys, monkeypatch):
    # soliton's report and its printed scalars read one analysis of one
    # algebra; inspect at the same (p, q) reads it again from the cache
    geometry, tensors = accrgeo.geometry, accrgeo.tensors
    calls, stacked = {}, []
    kernels = ("levi_civita", "ricci", "riemann", "fundamental_tensor", "classify_sasaki_like")
    for name in kernels:
        original = getattr(geometry, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(geometry, name, counted)
    post_init = tensors.Tensor.__post_init__

    def recorded(self):
        post_init(self)
        stacked.append(self.stacked)

    monkeypatch.setattr(tensors.Tensor, "__post_init__", recorded)
    scenarios.example2_state.cache_clear()
    scenarios._example2_stack.cache_clear()
    point = ("--scenario", "example2", "--p", "1.5", "--q=-2")
    code, _, _ = run(capsys, "soliton", *point, "--solve")
    assert code == 0
    assert calls == {
        "levi_civita": 2,
        "ricci": 2,
        "riemann": 1,
        "fundamental_tensor": 1,
        "classify_sasaki_like": 1,
    }
    assert stacked and not any(stacked)
    calls.clear()
    code, _, _ = run(capsys, "inspect", *point)
    assert code == 0
    assert calls == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("soliton", "--input", None, "--beta", "0.3", "--k", "0.7", "--k-prime=-2", "--solve"),
        ("soliton", "--input", None, "--beta", "0.3", "--psi", "1", "--psi-tilde=-1",
         "--lambda", "0.5", "--lambda-tilde", "0.25"),
        ("soliton", "--scenario", "example2", "--beta", "0.25", "--solve"),
        ("soliton", "--scenario", "example2", "--lambda", "5", "--lambda-tilde=-2"),
        ("soliton", "--scenario", "example2", "--lambda", "2.000001", "--lambda-tilde=-2",
         "--tol", "1e-3"),
        ("soliton", "--scenario", "example1", "--t", "0.5", "--n", "3", "--beta", "0.1"),
    ],
)
def test_soliton_judges_its_report_once(capsys, monkeypatch, tmp_path, argv):
    # the verdict is the conjunction of the per-check verdicts it prints;
    # no second verdict over the report (_judge) runs
    path, _ = _semidirect_n2_file(tmp_path)
    calls = []
    judge = solitons._judge

    def counted(*args):
        calls.append(args)
        return judge(*args)

    monkeypatch.setattr(solitons, "_judge", counted)
    code, out, _ = run(
        capsys, *(path if arg is None else arg for arg in argv), "--format", "json"
    )
    payload = json.loads(out)
    assert calls == []
    assert payload["passed"] is all(check["passed"] for check in payload["checks"])
    assert code == (0 if payload["passed"] else 1)


def _solve_span(checks):
    """The (name, residual, tol, note) of checks from scalar_sum_from_k_derivative
    up to ricci_reconstruction."""
    names = [check[0] for check in checks]
    first = names.index("scalar_sum_from_k_derivative")
    end = names.index("ricci_reconstruction")
    return [tuple(check) for check in checks[first:end]]


@pytest.mark.parametrize("beta", [-0.25, -0.2, 0.0, 0.7])
def test_rows_hold_the_checks_of_solve_vertical_soliton(capsys, tmp_path, beta):
    # sweeps and --input solve a vertical potential through vertical_rows; a
    # single point through solve_vertical_soliton: the same checks and notes
    _, _, pkg, _, _, assoc_pkg = scenarios.example2_state(1.5, -2.0)
    result = sweep("example2", p_grid=[1.5], q_grid=[-2.0], beta_grid=[beta], t0_grid=[-1, 2])
    for row in result.rows:
        k = VerticalScalar(-2.0 * row.params["t0"], -2.0)
        _, _, single = solve_vertical_soliton(beta, k, pkg.tau, assoc_pkg.tau, 2)
        assert _solve_span(row.report.checks) == [tuple(c) for c in single.checks]
        assert row.report.notes == single.notes

    path, a = _semidirect_n2_file(tmp_path)
    code, out, _ = run(
        capsys,
        "soliton", "--input", path, f"--beta={beta!r}", "--k", "0.5", "--k-prime=-2",
        "--solve", "--format", "json",
    )
    payload = json.loads(out)
    _, _, single = solve_vertical_soliton(
        beta, VerticalScalar(0.5, -2.0), a.pkg.tau, a.assoc_pkg.tau, 2
    )
    keys = ("name", "residual", "tol", "note")
    listed = [tuple(check[key] for key in keys) for check in payload["checks"]]
    assert code == 0
    assert _solve_span(listed) == [tuple(c) for c in single.checks]
    assert payload["notes"] == single.notes


def _option_flag(command, name):
    return ("--grid-" if command == "sweep" else "--") + name.replace("_", "-")


@pytest.mark.parametrize(
    "command,name",
    [
        (command, name)
        for name, (kind, _, commands, _) in OPTIONS.items()
        for command in commands.split()
        if command == "sweep" or kind is float
    ],
)
def test_nan_in_every_option_and_grid_exits_2(capsys, command, name):
    scenario = next(source for source in OPTIONS[name][3].split() if source != "input")
    flag = _option_flag(command, name)
    code, out, err = run(capsys, command, "--scenario", scenario, f"{flag}=nan")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("soliton", "--scenario", "example2", "--psi", "1"),
            "--psi is not read by soliton --scenario example2",
        ),
        (
            ("soliton", "--scenario", "example1", "--k", "1", "--k-prime", "0"),
            "--k is not read by soliton --scenario example1",
        ),
        (("inspect", "--input", "F", "--p", "3"), "--p is not read by inspect --input"),
        (
            (
                "sweep", "--scenario", "example1",
                "--grid-p", "5", "--grid-n", "1", "--grid-t", "0", "--grid-beta", "0",
            ),
            "--grid-p is not read by sweep --scenario example1",
        ),
        (
            ("soliton", "--input", "F", "--k", "0.5", "--k-prime=-4", "--t0", "2", "--solve"),
            "--t0 is not read by soliton --input",
        ),
        # an option that another given option leaves unread
        (
            ("soliton", "--input", "F", "--psi", "1", "--mu", "2"),
            "--mu is not read by soliton --input with --psi",
        ),
        (
            ("soliton", "--input", "F", "--psi", "1", "--solve"),
            "--solve is not read by soliton --input with --psi",
        ),
        (
            ("soliton", "--scenario", "example2", "--solve", "--lambda", "3"),
            "--lambda is not read by soliton --scenario example2 with --solve",
        ),
        (
            ("soliton", "--input", "F", "--k", "0.5", "--k-prime=-4", "--solve", "--lambda", "9"),
            "--lambda is not read by soliton --input with --solve",
        ),
        (
            ("soliton", "--scenario", "example2", "--mu=-4", "--lambda-tilde", "7"),
            "--lambda-tilde is not read by soliton --scenario example2 with --mu",
        ),
        (
            ("soliton", "--input", "F", "--k", "0", "--k-prime", "0", "--mu=-4",
             "--lambda-tilde", "7"),
            "--lambda-tilde is not read by soliton --input with --mu",
        ),
        (
            ("soliton", "--scenario", "example2", "--mu=-4", "--lambda", "0.5", "--solve"),
            "--lambda is not read by soliton --scenario example2 with --solve",
        ),
        (
            ("soliton", "--input", "F", "--k", "0", "--k-prime", "0", "--mu=-4",
             "--lambda", "0.5", "--solve"),
            "--lambda is not read by soliton --input with --solve",
        ),
        (
            ("soliton", "--scenario", "example2", "--solve", "--mu=-4", "--lambda", "3",
             "--k", "0", "--k-prime", "0"),
            "--lambda is not read by soliton --scenario example2 with --solve",
        ),
        (
            ("soliton", "--input", "F", "--psi", "0", "--k", "1", "--k-prime", "0"),
            "--k is not read by soliton --input with --psi",
        ),
        (
            ("soliton", "--scenario", "example2", "--k", "0.5", "--k-prime=-2", "--t0", "7",
             "--solve"),
            "--t0 is not read by soliton --scenario example2 with --k",
        ),
    ],
)
def test_an_option_the_source_does_not_read_exits_2(capsys, tmp_path, argv, message):
    path, _ = _semidirect_n2_file(tmp_path)
    code, out, err = run(capsys, *(path if arg == "F" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_DIM3_CARRIER = {
    "dim": 3,
    "phi": [[2, 1, 1.0], [1, 2, -1.0]],
    "xi": [1.0, 0.0, 0.0],
    "eta": [1.0, 0.0, 0.0],
    "g": [[0, 0, 1.0], [1, 1, 1.0], [2, 2, -1.0]],
}


@pytest.mark.parametrize(
    "case,message",
    [
        ("nan-bracket", "'structure_constants' entry 0: value must be finite, got nan"),
        ("infinite-xi", "'xi' component 1 must be finite, got inf"),
        ("dim3-bracket-1e200", "structure constants too large: max |c[k,i,j]| = 1.000e+200"),
        ("inspect-p-1e200", "structure constants too large: max |c[k,i,j]| = 1.000e+200"),
        ("sweep-p-1e200", "structure constants too large: max |c[k,i,j]| = 1.000e+200"),
        ("dim3-metric-1e200", "'g' entry 1: |value| = 1.000e+200 exceeds 5.875e+50"),
    ],
)
def test_non_finite_or_overflowing_input_exits_2(capsys, tmp_path, case, message):
    # json writes the non-finite floats as NaN and Infinity, which it also reads
    if case == "nan-bracket":
        path = _example2_file(tmp_path, "x.json", structure_constants=[[1, 2, 3, float("nan")]])
        argv = ["inspect", "--input", path]
    elif case == "infinite-xi":
        path = _example2_file(tmp_path, "x.json", xi=[1.0, float("inf"), 0.0, 0.0, 0.0])
        argv = ["inspect", "--input", path]
    elif case == "dim3-bracket-1e200":
        path = tmp_path / "x.json"
        path.write_text(json.dumps({**_DIM3_CARRIER, "structure_constants": [[1, 2, 0, 1e200]]}))
        argv = ["inspect", "--input", str(path)]
    elif case == "dim3-metric-1e200":
        g = [[0, 0, 1.0], [1, 1, 1e200], [2, 2, -1e200]]
        path = tmp_path / "x.json"
        path.write_text(
            json.dumps({**_DIM3_CARRIER, "structure_constants": [[1, 2, 0, 1.0]], "g": g})
        )
        argv = ["inspect", "--input", str(path)]
    elif case == "inspect-p-1e200":
        argv = ["inspect", "--scenario", "example2", "--p", "1e200"]
    else:
        argv = ["sweep", "--scenario", "example2", "--grid-p=1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


_DIM5_CARRIER = {
    "dim": 5,
    "structure_constants": [],
    "phi": [[3, 1, 1.0], [4, 2, 1.0], [1, 3, -1.0], [2, 4, -1.0]],
    "xi": [1.0, 0.0, 0.0, 0.0, 0.0],
    "eta": [1.0, 0.0, 0.0, 0.0, 0.0],
    "g": [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, -1.0], [4, 4, -1.0]],
}


def _dim5_carrier(**changes):
    return {**_DIM5_CARRIER, **changes}


@pytest.mark.parametrize(
    "definition,message",
    [
        ([1, 2], "definition must be a JSON object, got list"),
        (_dim5_carrier(dim=4), "'dim' must be odd and >= 3, got 4"),
        (_dim5_carrier(phi={"a": 1}), "'phi' must be a list of entries"),
        (
            _dim5_carrier(phi=[[3, 1], *_DIM5_CARRIER["phi"][1:]]),
            "'phi' entry 0: expected [2 indices, value]",
        ),
        (
            _dim5_carrier(g=[[0, 0.0, 1.0], *_DIM5_CARRIER["g"][1:]]),
            "'g' entry 0: index 1 must be an integer",
        ),
        (
            _dim5_carrier(g=[[0, True, 1.0], *_DIM5_CARRIER["g"][1:]]),
            "'g' entry 0: index 1 must be an integer",
        ),
        (_dim5_carrier(xi=1.0), "'xi' must be a list of 5 numbers"),
        (_dim5_carrier(eta=[1.0, "0", 0.0, 0.0, 0.0]), "'eta' component 1 must be a number"),
        (
            _dim5_carrier(xi=[10**399, 0.0, 0.0, 0.0, 0.0]),
            "'xi' component 0 must be finite, got inf",
        ),
        # every structure identity holds; only the signature test sees it
        (
            _dim5_carrier(
                g=[[0, 0, 1.0], [1, 1, 1e-10], [2, 2, 1.0], [3, 3, -1e-10], [4, 4, -1.0]]
            ),
            "metric has an eigenvalue within 1e-09 of zero",
        ),
    ],
)
def test_a_malformed_definition_file_exits_2_naming_its_fault(
    capsys, tmp_path, definition, message
):
    path = tmp_path / "definition.json"
    path.write_text(json.dumps(definition))
    code, out, err = run(capsys, "inspect", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command,options", [("inspect", ()), ("soliton", ("--k", "1", "--k-prime", "0", "--solve"))]
)
def test_a_definition_file_that_is_not_utf8_exits_2_naming_it(
    capsys, tmp_path, command, options
):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, "--input", str(path), *options)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "argv,key",
    [
        # with --lambda alone the report solves lambda_tilde = -2(t0 + 2 beta) = -2
        (("--lambda", "2"), "lambda_tilde"),
        # --mu alone evaluates the single-metric residual at lambda = 0
        (("--mu=-4", "--k", "0", "--k-prime", "0"), "lambda"),
    ],
)
def test_soliton_prints_the_constants_the_report_used(capsys, argv, key):
    code, out, _ = run(capsys, "soliton", "--scenario", "example2", *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["scalars"][key] == (-2.0 if key == "lambda_tilde" else 0.0)


def test_size_limit_arithmetic():
    # the bench's largest definition is dim 33; the inspect peak, under 1.3
    # dim^4 float64 arrays (test_inspect_peak_memory_at_dim33), stays under
    # 0.2 GB at the limit
    assert MAX_DIM % 2 == 1 and MAX_DIM >= 33
    assert 1.3 * MAX_DIM**4 * 8 < 0.2e9
    assert 2 * MAX_N + 1 == MAX_DIM


def _dim33_peak(capsys, tmp_path, command, *options):
    """Exit code, JSON output and tracemalloc peak of command on the dim-33
    semidirect file."""
    n = 16
    path = tmp_path / "dim33.json"
    alg = LieAlgebra(Frame(2 * n + 1), semidirect_constants(n))
    save_definition(ManifoldDefinition.from_structure(alg, flat_carrier_structure(n)), path)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, command, "--input", str(path), *options, "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, json.loads(out), peak


def test_inspect_peak_memory_at_dim33(capsys, tmp_path):
    # inspect builds the curvature tensor of g alone (1.0 dim^4 float64
    # arrays) for its listing; everything else it holds at once, the listing
    # and R's scratch block included, measured 0.21 more
    code, payload, peak = _dim33_peak(capsys, tmp_path, "inspect")
    assert code == 0 and payload["dim"] == 33
    assert peak < 1.3 * 8 * 33**4


def test_soliton_peak_memory_at_dim33(capsys, tmp_path):
    # soliton builds no curvature tensor: its peak measured 0.31 dim^4
    # float64 arrays
    code, payload, peak = _dim33_peak(
        capsys, tmp_path, "soliton", "--k", "0.5", "--k-prime=-16", "--beta", "0.3", "--solve"
    )
    assert code == 0 and payload["scalars"]["dim"] == 33
    assert peak < 0.5 * 8 * 33**4


@pytest.mark.parametrize("case", ["n", "grid-n", "input-dim"])
def test_sizes_above_the_limit_exit_2(capsys, tmp_path, case):
    # each is rejected while parsing, before any array of that size exists
    if case == "n":
        argv = ["soliton", "--scenario", "example1", "--n", str(MAX_N + 1)]
        message = f"--n must be between 1 and {MAX_N}, got {MAX_N + 1}"
    elif case == "grid-n":
        argv = ["sweep", "--scenario", "example1", "--grid-n", f"2,{MAX_N + 1}"]
        message = f"--grid-n values must be between 1 and {MAX_N}, got {MAX_N + 1}"
    else:
        path = tmp_path / "big.json"
        keys = ("structure_constants", "phi", "xi", "eta", "g")
        path.write_text(json.dumps({"dim": MAX_DIM + 2, **{key: [] for key in keys}}))
        argv = ["inspect", "--input", str(path)]
        message = f"'dim' must be at most {MAX_DIM}, got {MAX_DIM + 2}"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_json_floats = st.floats(allow_nan=False, allow_infinity=False)
_json_numbers = st.one_of(
    _json_floats,
    _json_floats.map(np.float64),
    st.sampled_from([-0.0, 1e16, 5e-324, np.float64(1.5)]),
    st.integers(min_value=-(2**80), max_value=2**80),
)


@st.composite
def _sweep_payloads(draw):
    """Payloads of cmd_sweep's schema: rows of one parameter layout."""
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    rows = []
    for index in range(draw(st.integers(0, 4))):
        row = {"index": index, "params": {name: draw(_json_numbers) for name in names}}
        if draw(st.booleans()):
            row.update(scalars={}, degenerate=True, passed=None, worst_check=None, worst_residual=None)
        else:
            row["scalars"] = draw(st.dictionaries(st.text(max_size=6), _json_numbers, max_size=5))
            row.update(degenerate=False, passed=draw(st.booleans()))
            worst = draw(st.none() | st.tuples(st.text(max_size=12), _json_numbers))
            row["worst_check"], row["worst_residual"] = worst or (None, None)
        rows.append(row)
    counts = st.integers(min_value=0, max_value=2**70)
    return {
        "scenario": draw(st.text(max_size=10)),
        "rows": rows,
        "summary": {key: draw(counts) for key in ("rows", "pass", "fail", "degenerate")},
        "notes": draw(st.lists(st.text(max_size=20), max_size=3)),
        "passed": draw(st.booleans()),
    }


_DEGENERATE_ROW = {
    "index": 1,
    "params": {"n": 2**64, "beta": np.float64(-0.25), "t": 2.356194490192345},
    "scalars": {},
    "degenerate": True,
    "passed": None,
    "worst_check": None,
    "worst_residual": None,
}
_ROW = {
    "index": 0,
    "params": {"n": 2, "beta": -0.0, "t": 1e16},
    "scalars": {"p": 5e-324, "tau": np.float64(1.5)},
    "degenerate": False,
    "passed": False,
    "worst_check": "tau_from_sums",
    "worst_residual": 1e-300,
}


@settings(max_examples=200, deadline=None)
@given(_sweep_payloads())
@example(
    {
        "scenario": "example1",
        "rows": [_ROW, _DEGENERATE_ROW],
        "summary": {"rows": 2, "pass": 0, "fail": 1, "degenerate": 1},
        "notes": ["β = −1/(2n): \u00e9\t\"quoted\"\n\\", ""],
        "passed": False,
    }
)
@example({"scenario": "example2", "rows": [], "summary": {}, "notes": [], "passed": True})
def test_sweep_json_matches_json_dumps(payload):
    assert to_json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("where", ["params", "scalars", "worst_residual"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -np.float64(math.inf)])
def test_sweep_json_rejects_non_finite(where, value):
    row = {**_ROW, "params": dict(_ROW["params"]), "scalars": dict(_ROW["scalars"])}
    if where == "worst_residual":
        row["worst_residual"] = value
    else:
        row[where]["x"] = value
    payload = {"scenario": "example1", "rows": [row], "summary": {}, "notes": [], "passed": True}
    with pytest.raises(ValueError, match="non-finite"):
        to_json(payload)


def _row_dicts(payload: dict, tol=None) -> dict:
    """payload with its rows as the list of one dict per row, from the
    SweepRows of the result and its verdicts."""
    result, rows = payload["rows"].result, []
    for row, verdict in zip(result.rows, result.verdicts(tol)):
        passed, worst, worst_residual = verdict or (None, None, None)
        rows.append(
            {
                "index": row.index,
                "params": row.params,
                "scalars": row.scalars,
                "degenerate": row.degenerate,
                "passed": passed,
                "worst_check": worst,
                "worst_residual": worst_residual,
            }
        )
    return {**payload, "rows": rows}


def _assert_sweep_json_matches_the_row_dicts(config: RunConfig) -> dict:
    payload, _ = cmd_sweep(config)
    assert to_json(payload) == json.dumps(_row_dicts(payload, config.tol), indent=2)
    return payload


@pytest.mark.parametrize("scenario", ["example1", "example2"])
def test_default_sweep_columns_write_the_row_dicts(scenario):
    payload = _assert_sweep_json_matches_the_row_dicts(RunConfig("sweep", scenario=scenario))
    assert len(payload["rows"]) == {"example1": 1295, "example2": 700}[scenario]


def _golden_small_sweeps():
    script = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"
    spec = importlib.util.spec_from_file_location("golden_outputs", script)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return list(golden.small_sweeps())


@pytest.mark.parametrize("stem,argv", _golden_small_sweeps())
def test_small_sweep_columns_write_the_row_dicts(stem, argv):
    config = RunConfig.from_args(cli._build_parser().parse_args(argv))
    summary = _assert_sweep_json_matches_the_row_dicts(config)["summary"]
    # the degenerate rows, and the failing rows of the strict override, are written
    assert (summary["degenerate"] > 0) == (stem == "sweep-ex1-degenerate")
    assert (summary["fail"] > 0) == (stem == "sweep-ex1-tol-1e-16")


_grid_values = st.sampled_from([-2.0, -1.0, -0.0, 0.5, 1.5])


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.fixed_dictionaries(
            {
                "n": st.lists(st.integers(1, 3), min_size=1, max_size=2),
                "beta": st.lists(
                    st.sampled_from([-0.5, -0.25, -1.0 / 6.0]) | st.floats(-2.0, 2.0),
                    min_size=1,
                    max_size=3,
                ),
                "t": st.lists(
                    st.sampled_from([3.0 * math.pi / 4.0, 2.3565]) | st.floats(0.0, 7.0),
                    min_size=1,
                    max_size=3,
                ),
            }
        ),
        st.fixed_dictionaries(
            {
                "p": st.lists(_grid_values, min_size=1, max_size=2),
                "q": st.lists(_grid_values, min_size=1, max_size=2),
                "beta": st.lists(
                    st.sampled_from([-0.25, -0.2]) | st.floats(-2.0, 2.0), min_size=1, max_size=3
                ),
                "t0": st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=2),
            }
        ),
    ),
    st.sampled_from([None, 1e-16, 1e-3]),
)
def test_drawn_sweep_columns_write_the_row_dicts(grids, tol):
    scenario = "example1" if "n" in grids else "example2"
    config = RunConfig("sweep", scenario=scenario, tol=tol, grids=grids)
    _assert_sweep_json_matches_the_row_dicts(config)


@st.composite
def _sweep_blocks(draw):
    """A column block of any names, values and degenerate rows, and the
    payload of its row dicts."""
    keys = st.lists(st.text(max_size=6), max_size=3, unique=True)
    params, scalars, rows = draw(keys), draw(keys), draw(st.integers(1, 4))
    excluded = [draw(st.none() | st.just("excluded")) for _ in range(rows)]
    judged = excluded.count(None)

    def columns(names, size):
        return {name: draw(st.lists(_json_numbers, min_size=size, max_size=size)) for name in names}

    param_columns, scalar_columns = columns(params, rows), columns(scalars, judged)
    verdicts = (
        draw(st.lists(st.booleans(), min_size=judged, max_size=judged)),
        draw(st.lists(st.text(max_size=12), min_size=judged, max_size=judged)),
        draw(st.lists(_json_numbers, min_size=judged, max_size=judged)),
    )
    result = SweepResult("example1", param_columns, scalar_columns, excluded, ())
    scalar_rows = [{name: scalar_columns[name][i] for name in scalars} for i in range(judged)]
    judged_rows = zip(scalar_rows, *verdicts)
    dicts = []
    for index, text in enumerate(excluded):
        row = {"index": index, "params": {name: param_columns[name][index] for name in params}}
        if text is None:
            values, passed, worst, residual = next(judged_rows)
            row.update(scalars=values, degenerate=False, passed=passed)
            row.update(worst_check=worst, worst_residual=residual)
        else:
            row.update(scalars={}, degenerate=True, passed=None)
            row.update(worst_check=None, worst_residual=None)
        dicts.append(row)
    block = cli._SweepRows(result, verdicts)
    return {"rows": block, "passed": True}, {"rows": dicts, "passed": True}


@settings(max_examples=200, deadline=None)
@given(_sweep_blocks())
def test_sweep_column_block_writes_its_row_dicts(drawn):
    # keys with %, JSON escapes and non-ASCII, ints, -0.0 and mixed float types
    block, dicts = drawn
    assert to_json(block) == json.dumps(dicts, indent=2)


def _small_sweep_payload() -> dict:
    grids = {"n": [2], "beta": [0.0, 0.5], "t": [0.0, 3.0 * math.pi / 4.0, 1.0]}
    payload, _ = cmd_sweep(RunConfig("sweep", scenario="example1", grids=grids))
    return payload


@pytest.mark.parametrize("where", ["params", "scalars", "worst_residual"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -np.float64(math.inf)])
def test_sweep_columns_reject_non_finite(where, value):
    payload = _small_sweep_payload()
    rows = payload["rows"]
    columns = {
        "params": rows.result.params["t"],
        "scalars": rows.result.scalars["tau"],
        "worst_residual": rows.verdicts[2],
    }
    columns[where][-1] = value
    with pytest.raises(ValueError, match="non-finite"):
        to_json(payload)


def test_sweep_columns_reject_other_types():
    payload = _small_sweep_payload()
    payload["rows"].result.scalars["p"][0] = np.float32(0.5)
    with pytest.raises(TypeError):
        to_json(payload)


def test_tracing_records_one_to_json_span_per_document(capsys):
    # the column writer's helpers are private, so the benchmark's tracer,
    # which wraps public functions, sees one span per document
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.SpanRecorder()
    bindings = tracing.install(recorder)
    try:
        for args in (
            ["sweep", "--scenario", "example1", "--grid-n", "2", "--grid-t=0,2.356194490192345"],
            ["sweep", "--scenario", "example2", "--grid-p", "1", "--grid-q", "0"],
            ["soliton", "--scenario", "example2", "--solve"],
        ):
            assert cli.main([*args, "--format", "json"]) == 0
    finally:
        bindings.set(False)
    capsys.readouterr()
    names = [recorder.names[i] for i in recorder.arrays()["name_id"]]
    assert names.count("cli.to_json") == names.count("cli.main") == 3
    assert {name for name in names if name.startswith("cli.")} == {
        "cli.main", "cli.cmd_sweep", "cli.cmd_soliton", "cli.to_json"
    }


def test_one_parser_serves_every_call_of_a_process(capsys):
    cli._build_parser.cache_clear()
    # argparse rejects the request: exit 2, its message on the current stderr
    code, out, err = run(capsys, "inspect", "--scenario", "example2", "--no-such-option")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --no-such-option" in err
    code, out, _ = run(capsys, "soliton", "--scenario", "example2", "--solve")
    assert code == 0 and "result = pass" in out
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["--help"]) == 0
    fresh = cli._build_parser.__wrapped__()
    assert stdout.getvalue() == fresh.format_help()
    assert cli._build_parser().prog == fresh.prog == "accrgeo"
    assert cli._build_parser.cache_info().misses == 1


def test_deeply_nested_definition_exits_2(tmp_path):
    # json's decoder raises RecursionError past the recursion limit; the
    # command reports it as invalid input, with no traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    src = str(Path(accrgeo.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "accrgeo.cli", "inspect", "--input", str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: invalid JSON: arrays or objects nested too deeply\n"


def test_import_builds_no_parser():
    src = str(Path(accrgeo.__file__).resolve().parent.parent)
    code = "import accrgeo.cli as cli; print(cli._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "0\n"


def test_json_writer_reuses_float_text_but_keeps_each_zero_and_rejects_non_finite():
    repeated = [0.0, -0.0, 1.5, np.float64(1.5), np.float64(-0.0), 0.0, 1e-300, np.float64(0.0)]
    payload = {"a": repeated, "b": {"x": -0.0, "y": 2.5, "z": [2.5, np.float64(2.5), 1e-300]}}
    assert to_json(payload) == json.dumps(payload, indent=2)
    assert to_json([-0.0, 0.0, -0.0]) == json.dumps([-0.0, 0.0, -0.0], indent=2)
    for value in (math.nan, math.inf, -np.float64(math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            to_json([1.5, value, value])


def test_json_writer_keeps_keys_outside_the_sweep_schema():
    row = {**_ROW, "trace": {"stage_ms": {"riemann": 0.5}, "margins": []}}
    payload = {
        "scenario": "example2",
        "rows": [row],
        "summary": {},
        "notes": [],
        "passed": True,
        "provenance": {"numpy": np.__version__, "tol": None},
    }
    text = to_json(payload)
    assert text == json.dumps(payload, indent=2)
    decoded = json.loads(text)
    assert decoded["provenance"] == {"numpy": np.__version__, "tol": None}
    assert decoded["rows"][0]["trace"] == {"stage_ms": {"riemann": 0.5}, "margins": []}


_indices = st.integers(min_value=0, max_value=64)


def _listing(entries: list, axes: int):
    """[*index, value] entries as cli's listing columns."""
    index = tuple([entry[axis] for entry in entries] for axis in range(axes))
    return cli._Listing(index, [entry[-1] for entry in entries])


_LISTING_AXES = {"curvature_nonzero": 4, "ricci_nonzero": 2}


def _inspect_forms(payload: dict):
    """(payload with its listings as columns, payload with them as lists)."""
    columns = {key: _listing(payload[key], axes) for key, axes in _LISTING_AXES.items()}
    return {**payload, **columns}, payload


def _as_lists(payload: dict) -> dict:
    """payload with its listing columns as the lists of [*index, value] entries."""
    lists = {
        key: [[*entry] for entry in zip(*payload[key].index, payload[key].values)]
        for key in _LISTING_AXES
    }
    return {**payload, **lists}


def _reference_listing_lines(payload: dict) -> list:
    """The lines of _render_inspect from "curvature_nonzero:" on, one entry
    of the listings as lists at a time."""
    lines = ["curvature_nonzero:"]
    for i, j, k, l, value in payload["curvature_nonzero"]:
        lines.append(f"  R[{i},{j},{k},{l}] = {cli._fmt(value)}")
    lines.append("ricci_nonzero:")
    for i, j, value in payload["ricci_nonzero"]:
        lines.append(f"  rho[{i},{j}] = {cli._fmt(value)}")
    return lines


def _assert_inspect_forms_agree(columns: dict, lists: dict, *, text=True):
    expected = json.dumps(lists, indent=2)
    assert to_json(lists) == expected
    assert to_json(columns) == expected
    if text:
        lines = cli._render_inspect(columns)
        assert lines[lines.index("curvature_nonzero:") :] == _reference_listing_lines(lists)


@st.composite
def _inspect_payloads(draw):
    """Payloads of cmd_inspect's schema, with any scalars and component
    lists: (the payload with its listings as columns, with them as lists)."""
    scalars = {
        key: draw(_json_numbers)
        for key in ("sasaki_residual", "tau", "tau_star", "tau_tilde")
    }
    # values drawn from a few, so that entries repeat them
    values = st.sampled_from(draw(st.lists(_json_numbers, min_size=1, max_size=3)))
    payload = {
        "dim": draw(_indices),
        "n": draw(_indices),
        "signature": [draw(_indices), draw(_indices)],
        "structure": "valid",
        "sasaki_like": draw(st.booleans()),
        **scalars,
        "tau_tilde_cross_route_gap": draw(st.none() | _json_numbers),
        "reeb_derivative_residual": draw(_json_numbers),
        "einstein_like": {
            "kind": draw(st.text(max_size=10)),
            **{key: draw(_json_numbers) for key in ("a", "b", "c", "residual")},
        },
        "curvature_nonzero": draw(
            st.lists(st.tuples(_indices, _indices, _indices, _indices, values).map(list), max_size=5)
        ),
        "ricci_nonzero": draw(st.lists(st.tuples(_indices, _indices, values).map(list), max_size=5)),
    }
    return _inspect_forms(payload)


_INSPECT_PAYLOAD = {
    "dim": 5,
    "n": 2,
    "signature": [3, 2],
    "structure": "valid",
    "sasaki_like": True,
    "sasaki_residual": 5e-324,
    "tau": np.float64(4.0),
    "tau_star": -0.0,
    "tau_tilde": 1e16,
    "tau_tilde_cross_route_gap": None,
    "reeb_derivative_residual": 0.0,
    "einstein_like": {"kind": "eta_einstein", "a": 0.0, "b": -0.0, "c": 4.0, "residual": 1e-300},
    "curvature_nonzero": [[0, 1, 0, 1, -1.0], [4, 3, 2, 1, np.float64(0.5)]],
    "ricci_nonzero": [[0, 0, 4.0]],
}

#: repeated values, -0.0 beside 0.0 and both float types in one listing
_REPEATED_VALUES = {
    **_INSPECT_PAYLOAD,
    "curvature_nonzero": [
        [0, 1, 0, 1, -1.0],
        [1, 0, 0, 1, 1.0],
        [1, 0, 1, 0, -1.0],
        [2, 3, 2, 3, np.float64(-1.0)],
        [3, 2, 2, 3, 0.0],
        [3, 2, 3, 2, -0.0],
    ],
    "ricci_nonzero": [[0, 0, 4.0], [1, 1, 4.0], [2, 2, np.float64(4.0)]],
}


@settings(max_examples=200, deadline=None)
@given(_inspect_payloads())
@example(_inspect_forms(_INSPECT_PAYLOAD))
@example(_inspect_forms(_REPEATED_VALUES))
@example(_inspect_forms({**_INSPECT_PAYLOAD, "curvature_nonzero": [], "ricci_nonzero": []}))
def test_inspect_json_matches_json_dumps(forms):
    # JSON as json.dumps writes the listings as lists, and the same text lines
    _assert_inspect_forms_agree(*forms)


def test_inspect_json_writes_an_empty_dict():
    _assert_inspect_forms_agree(
        *_inspect_forms({**_INSPECT_PAYLOAD, "ricci_nonzero": [], "einstein_like": {}}),
        text=False,
    )


@pytest.mark.parametrize("where", ["tau", "einstein_like", "curvature_nonzero"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -np.float64(math.inf)])
def test_inspect_json_rejects_non_finite(where, value):
    payload = dict(_INSPECT_PAYLOAD)
    if where == "tau":
        payload["tau"] = value
    elif where == "einstein_like":
        payload["einstein_like"] = {**payload["einstein_like"], "c": value}
    else:
        payload["curvature_nonzero"] = _listing([[0, 1, 0, 1, -1.0], [0, 1, 1, 0, value]], 4)
    with pytest.raises(ValueError, match="non-finite"):
        to_json(payload)


def test_inspect_json_rejects_other_listing_types():
    payload = {**_INSPECT_PAYLOAD, "ricci_nonzero": _listing([[0, 0, np.float32(4.0)]], 2)}
    with pytest.raises(TypeError):
        to_json(payload)


@pytest.mark.parametrize("source", ["example2", "semidirect-dim9", "abelian"])
def test_inspect_json_matches_json_dumps_on_inspect_payloads(tmp_path, source):
    # the writer's exact-type table covers every type cmd_inspect puts in,
    # and its listings are columns, repeated values among them
    if source == "example2":
        config = RunConfig(command="inspect", scenario="example2", options={"p": 1.5, "q": -2.0})
    else:
        n = 4 if source == "semidirect-dim9" else 2
        c = semidirect_constants(n) if source == "semidirect-dim9" else np.zeros((5, 5, 5))
        path = tmp_path / "definition.json"
        alg = LieAlgebra(Frame(2 * n + 1), c)
        save_definition(ManifoldDefinition.from_structure(alg, flat_carrier_structure(n)), path)
        config = RunConfig(command="inspect", input_path=str(path))
    payload, _ = cmd_inspect(config)
    listing = payload["curvature_nonzero"]
    assert type(listing) is cli._Listing and len(listing.index) == 4
    assert bool(listing) == (source != "abelian")
    if source != "abelian":
        assert len(set(listing.values)) < len(listing)
    _assert_inspect_forms_agree(payload, _as_lists(payload))


def test_listing_lines_format_each_entry_as_fmt():
    # each distinct value is formatted once per listing; every line is the
    # one a per-entry _fmt gives, for repeated values, both zeros, both
    # float types, an int equal to a float and NaNs
    values = [1.0, -1.0, 1.0, 0.0, -0.0, np.float64(-1.0), 1, 2.5e-13, math.nan, math.nan, 1.0]
    listing = cli._Listing((list(range(len(values))), [7] * len(values)), values)
    expected = [f"  x[{i},7] = {cli._fmt(value)}" for i, value in enumerate(values)]
    assert list(cli._listing_lines("x", listing)) == expected


def test_sweep_text_formats_each_parameter_as_fmt():
    # a repeated grid value, -0.0 beside 0.0, and n as an int column: every
    # parameter cell of the text table is the per-entry _fmt of its value
    grids = {"p": [0.0, -0.0, 1.5], "q": [1.5], "beta": [-0.25, 0.5], "t0": [1.0, 1.0]}
    for scenario, grid in (("example2", grids), ("example1", {"n": [1, 2], "t": [0.5, 0.5]})):
        payload, _ = cmd_sweep(RunConfig("sweep", scenario=scenario, grids=grid))
        params = payload["rows"].result.params
        lines = cli._render_sweep(payload)
        header = lines[1].split()
        assert header[1 : 1 + len(params)] == list(params)
        cells = [line.split()[1 : 1 + len(params)] for line in lines[2 : 2 + len(payload["rows"])]]
        assert cells == [list(map(cli._fmt, values)) for values in zip(*params.values())]


_json_trees = st.recursive(
    st.none() | st.booleans() | _json_numbers | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
@example(
    {
        "": [],
        "\u00e9t\u00e9": {},
        "\u043a\u043b\u044e\u0447 \U0001d70f": [None, True, False, np.float64(-0.0), [[]], [{}]],
        "\u2028\t\"": {"a": [[1, [2.5, {"b": None}]]]},
    }
)
@example([])
@example({})
@example("")
def test_json_writer_matches_json_dumps_on_nested_values(value):
    assert to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [(1.0, 2.0), np.int64(3), np.float32(1.5), {1: 2.0}, {"a": {None: 1}}, [set()], np.bool_(True)],
    ids=["tuple", "int64", "float32", "int-key", "none-key", "set", "bool_"],
)
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_pipe_keeps_the_verdict(fmt):
    # as with `accrgeo sweep --scenario example1 | head -1`: the reader goes
    # away before the output is written, which is not a failed check
    src = str(Path(accrgeo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "accrgeo.cli", "sweep", "--scenario", "example1", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("inspect", "--input", "/nonexistent.json"),
        ("soliton", "--scenario", "example2", "--beta", "nan"),
    ],
    ids=["missing-file", "nan-beta"],
)
def test_closed_stderr_pipe_keeps_exit_2(argv):
    # malformed input exits 2 also when nobody reads the error line
    src = str(Path(accrgeo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "accrgeo.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stderr.close()
    out = proc.stdout.read()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2
    assert out == b""
