"""Command-line interface: output contracts, exit codes, round-trips."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accrgeo import (
    Frame,
    LieAlgebra,
    ManifoldDefinition,
    build_example2,
    flat_carrier_structure,
    save_definition,
    scenarios,
    solitons,
    sweep,
)
from accrgeo.cli import MAX_N, RunConfig, cmd_inspect, main, to_json
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
    code, _, err = run(capsys, "soliton", "--scenario", "example9", "--solve")
    assert code == 2


def test_inspect_example1_rejected(capsys):
    # example1 is a formula-level curve, not a concrete manifold
    code, _, err = run(capsys, "inspect", "--scenario", "example1")
    assert code == 2
    assert "example1" in err


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


def test_mu_single_metric_route(capsys):
    code, out, _ = run(
        capsys,
        "soliton", "--scenario", "example2", "--beta", "0", "--t0", "1",
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
        (("soliton", "--scenario", "example2", "--solve"), "vertical_soliton_constants"),
        (("soliton", "--scenario", "example1"), "_curve_scalars"),
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


@pytest.mark.parametrize(
    "argv,key",
    [
        # with --lambda alone the report solves lambda_tilde = -2(t0 + 2 beta) = -2
        (("--lambda", "2"), "lambda_tilde"),
        # --solve with --mu evaluates the single-metric residual at lambda = 0
        (("--solve", "--mu=-4", "--lambda", "3", "--k", "0", "--k-prime", "0"), "lambda"),
    ],
)
def test_soliton_prints_the_constants_the_report_used(capsys, argv, key):
    code, out, _ = run(capsys, "soliton", "--scenario", "example2", *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["scalars"][key] == (-2.0 if key == "lambda_tilde" else 0.0)


def test_size_limit_arithmetic():
    # the bench's largest definition is dim 33; about 2.4 dim^4 float64
    # arrays at the inspect peak stay under 0.35 GB at the limit
    assert MAX_DIM % 2 == 1 and MAX_DIM >= 33
    assert 2.4 * MAX_DIM**4 * 8 < 0.35e9
    assert 2 * MAX_N + 1 == MAX_DIM


def test_inspect_peak_memory_at_dim33(capsys, tmp_path):
    # inspect keeps one curvature tensor per metric; every other array it
    # holds at once, scratch blocks and the component listing included,
    # stays under half of one more dim^4 array
    n = 16
    path = tmp_path / "dim33.json"
    alg = LieAlgebra(Frame(2 * n + 1), semidirect_constants(n))
    save_definition(ManifoldDefinition.from_structure(alg, flat_carrier_structure(n)), path)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "inspect", "--input", str(path), "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["dim"] == 33
    assert peak < 2.5 * 8 * 33**4


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


@st.composite
def _inspect_payloads(draw):
    """Payloads of cmd_inspect's schema, with any scalars and component lists."""
    scalars = {
        key: draw(_json_numbers)
        for key in ("sasaki_residual", "tau", "tau_star", "tau_tilde")
    }
    return {
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
            st.lists(st.tuples(_indices, _indices, _indices, _indices, _json_numbers).map(list), max_size=5)
        ),
        "ricci_nonzero": draw(st.lists(st.tuples(_indices, _indices, _json_numbers).map(list), max_size=5)),
    }


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


@settings(max_examples=200, deadline=None)
@given(_inspect_payloads())
@example(_INSPECT_PAYLOAD)
@example({**_INSPECT_PAYLOAD, "curvature_nonzero": [], "ricci_nonzero": [], "einstein_like": {}})
def test_inspect_json_matches_json_dumps(payload):
    assert to_json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("where", ["tau", "einstein_like", "curvature_nonzero"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -np.float64(math.inf)])
def test_inspect_json_rejects_non_finite(where, value):
    payload = dict(_INSPECT_PAYLOAD)
    if where == "tau":
        payload["tau"] = value
    elif where == "einstein_like":
        payload["einstein_like"] = {**payload["einstein_like"], "c": value}
    else:
        payload["curvature_nonzero"] = [[0, 1, 0, 1, value]]
    with pytest.raises(ValueError, match="non-finite"):
        to_json(payload)


@pytest.mark.parametrize("source", ["example2", "semidirect-dim9", "abelian"])
def test_inspect_json_matches_json_dumps_on_inspect_payloads(tmp_path, source):
    # the writer's exact-type table covers every type cmd_inspect puts in
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
    assert bool(payload["curvature_nonzero"]) == (source != "abelian")
    assert to_json(payload) == json.dumps(payload, indent=2)


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
