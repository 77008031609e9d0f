"""Built-in scenario reports, curve values, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accrgeo import (
    Example2Params,
    VerticalScalar,
    example1_curve,
    example2_expected_curvature,
    example2_state,
    run_example1_report,
    solve_vertical_soliton,
    sweep,
)
from accrgeo.errors import DegenerateParameter, EmptyGrid, GeometryError
from accrgeo.scenarios import (
    DEFAULT_BETA_GRID,
    DEFAULT_T_GRID,
    SQRT2,
    example1_point,
    example2_point,
)

DEG_T = 3.0 * math.pi / 4.0


def _counts(result) -> tuple:
    """(pass, fail, degenerate) rows of a sweep, each row that is not
    degenerate judged by its report's verdict."""
    judged = [row.report.verdict()[0] for row in result.rows if not row.degenerate]
    return sum(judged), len(judged) - sum(judged), len(result.rows) - len(judged)


def test_example2_report_defaults_pass():
    report = example2_point(Example2Params())[3]
    assert report.passed, report.worst()
    for name in (
        "curvature_table",
        "ricci_form",
        "tau_value",
        "tau_star_value",
        "tau_assoc_pipeline",
        "tau_assoc_two_routes",
        "sasaki_like",
        "lie_g_closed_vs_connection",
        "h_form",
        "soliton_residual",
        "einstein_fit_residual",
    ):
        assert name in report, name


def test_example2_report_away_from_origin():
    report = example2_point(Example2Params(p=2.0, q=-1.5, beta=0.5, t0=-1.0))[3]
    assert report.passed, report.worst()


def test_example2_expected_table_size():
    frame = example2_state(0.0, 0.0)[1].frame
    table = example2_expected_curvature(frame)
    assert int(np.count_nonzero(table.data)) == 40


def test_example2_supplied_lambda_pass_and_fail():
    params = Example2Params(beta=0.0, t0=1.0)
    good = example2_point(params, lam=2.0, lam_assoc=-2.0)[3]
    assert good.passed
    bad = example2_point(params, lam=5.0, lam_assoc=-2.0)[3]
    assert not bad.passed
    assert not bad["lambda_matches_solution"].passed


def test_example2_eta_variant():
    # rho = 4 eta(.)eta solves the single-metric equation with zero
    # potential, lam = 0, mu = -4 at beta = 0
    from accrgeo import VerticalScalar

    params = Example2Params(beta=0.0, t0=0.0)
    report = example2_point(params, k=VerticalScalar(0.0, 0.0), mu=-4.0)[3]
    assert report.passed, report.worst()
    assert "eta_soliton_residual" in report


def test_example1_point_t0_n2():
    point = example1_curve(0.0, 2, 0.0)
    assert point.p == pytest.approx((1.0 + SQRT2) / 2.0, abs=1e-12)
    assert point.q == pytest.approx(-0.5, abs=1e-12)
    assert point.tau == pytest.approx(4.0 + 8.0 * SQRT2, abs=1e-9)
    assert point.tau_assoc == pytest.approx(20.0 - 8.0 * SQRT2, abs=1e-9)
    assert point.tau + point.tau_assoc == pytest.approx(24.0, abs=1e-9)


def test_example1_scalar_sum_all_n():
    for n in range(1, 6):
        point = example1_curve(1.0, n, 0.25)
        assert point.tau + point.tau_assoc == pytest.approx(
            4.0 * n * (n + 1), abs=1e-9
        )


@pytest.mark.parametrize("n", [0, -1])
def test_example1_n_below_one_raises(n):
    with pytest.raises(GeometryError, match="needs n >= 1"):
        example1_curve(0.5, n, 0.0)


def test_example1_degenerate_t_raises():
    with pytest.raises(DegenerateParameter):
        example1_curve(DEG_T, 2, 0.0)
    # the other branches of the excluded family too
    with pytest.raises(DegenerateParameter):
        example1_curve(DEG_T + 2.0 * math.pi, 2, 0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.integers(min_value=1, max_value=5),
)
@example(t=2.359375, n=1)
@example(t=2.3565, n=2)
def test_example1_curve_constraint(t, n):
    try:
        point = example1_curve(t, n, 0.0)
    except DegenerateParameter:
        return
    # the defining curve equation
    assert abs(
        point.p ** 2 + point.q ** 2 - point.p + point.q
    ) < 1e-12


def test_example1_report_passes_on_grid():
    for beta in DEFAULT_BETA_GRID:
        report = run_example1_report(0.5, 2, beta)
        assert report.passed, (beta, report.worst())


def test_example1_degenerate_beta_unit_sums():
    point = example1_curve(1.0, 2, -0.25)
    assert point.sum_g == 1.0
    assert point.sum_assoc == 1.0
    report = run_example1_report(1.0, 2, -0.25)
    assert report.passed, report.worst()
    assert "unit_sum_g" in report


def test_example1_sums_override_inconsistent_fails():
    report = example1_point(0.0, 2, 0.0, sums_override=(3.0, 0.0, 0.0, 0.0))[1]
    assert not report.passed


def test_sweep_example2_counts():
    result = sweep(
        "example2",
        p_grid=[0.0, 1.0],
        q_grid=[0.0, -1.0],
        beta_grid=[0.0, -0.25],
        t0_grid=[1.0],
    )
    assert result.scenario == "example2"
    assert len(result.rows) == 8
    assert _counts(result) == (8, 0, 0)


def test_sweep_example1_degenerate_row_excluded():
    result = sweep(
        "example1",
        t_grid=[0.0, DEG_T, 1.0],
        n_grid=[2],
        beta_grid=[0.0],
    )
    assert len(result.rows) == 3
    assert _counts(result) == (2, 0, 1)
    degenerate_rows = [row for row in result.rows if row.degenerate]
    assert len(degenerate_rows) == 1
    assert degenerate_rows[0].params["t"] == pytest.approx(DEG_T)


def test_sweep_scalars_are_computed():
    result = sweep(
        "example2",
        p_grid=[0.0],
        q_grid=[0.0],
        beta_grid=[0.5],
        t0_grid=[2.0],
    )
    row = result.rows[0]
    assert row.scalars["tau"] == pytest.approx(4.0, abs=1e-10)
    # lam = 2(t0 - 2 beta) = 2(2 - 1) = 2
    assert row.scalars["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert row.scalars["lambda_tilde"] == pytest.approx(-2.0 * (2.0 + 1.0), abs=1e-9)


def test_sweep_empty_grid_raises():
    with pytest.raises(EmptyGrid):
        sweep("example2", p_grid=[], q_grid=[0.0], beta_grid=[0.0], t0_grid=[0.0])


def test_sweep_unknown_scenario():
    with pytest.raises(GeometryError):
        sweep("example3")


def test_default_t_grid_avoids_degenerate_point():
    for t in DEFAULT_T_GRID:
        assert abs(t - DEG_T) > 1e-3


def _assert_same_report(row_report, single):
    """Exact equality, check by check, of a sweep row and a single point."""
    assert [
        (c.name, c.residual, c.tol, c.note) for c in row_report.checks
    ] == [(c.name, c.residual, c.tol, c.note) for c in single.checks]
    assert row_report.notes == single.notes


def _assert_example2_rows_match_single_points(result):
    for row in result.rows:
        params = Example2Params(**row.params)
        _assert_same_report(row.report, example2_point(params)[3])
        _, _, pkg, _, classification, assoc_pkg = example2_state(params.p, params.q)
        lam, lam_assoc, _ = solve_vertical_soliton(
            params.beta,
            VerticalScalar(-2.0 * params.t0, -2.0),
            pkg.tau,
            assoc_pkg.tau,
            2,
            classification=classification,
        )
        assert (row.scalars["lambda"], row.scalars["lambda_tilde"]) == (lam, lam_assoc)


def _assert_example1_rows_match_single_points(result):
    for row in result.rows:
        t, n, beta = row.params["t"], row.params["n"], row.params["beta"]
        if row.degenerate:
            with pytest.raises(DegenerateParameter) as excinfo:
                run_example1_report(t, n, beta)
            assert row.report.checks == []
            assert row.report.notes == [str(excinfo.value)]
            continue
        _assert_same_report(row.report, run_example1_report(t, n, beta))
        point = example1_curve(t, n, beta)
        assert row.scalars == {
            "p": point.p,
            "q": point.q,
            "tau": point.tau,
            "tau_tilde": point.tau_assoc,
            "psi_plus_lambda": point.sum_g,
            "psi_tilde_plus_lambda_tilde": point.sum_assoc,
        }


def test_default_example2_sweep_rows_equal_single_points():
    result = sweep("example2")
    assert len(result.rows) == 700
    _assert_example2_rows_match_single_points(result)


def test_default_example1_sweep_rows_equal_single_points():
    result = sweep("example1")
    assert len(result.rows) == 1295
    _assert_example1_rows_match_single_points(result)


def test_small_example2_grid_rows_equal_single_points():
    # -1/(2n) = -0.25 and -1/(2n+1) = -0.2 for n = 2
    result = sweep(
        "example2",
        p_grid=[0.5, -3.0],
        q_grid=[1.25],
        beta_grid=[-0.25, -0.2, 0.0, -0.25 + 5e-10, 0.7],
        t0_grid=[2.5, -0.5],
    )
    assert len(result.rows) == 20
    assert "branch point" in result.rows[0].report.notes[0]
    _assert_example2_rows_match_single_points(result)


def test_small_example1_grid_rows_equal_single_points():
    n_grid = [1, 2, 3]
    special = [-1.0 / (2 * n) for n in n_grid] + [-1.0 / (2 * n + 1) for n in n_grid]
    result = sweep(
        "example1",
        n_grid=n_grid,
        beta_grid=[*special, 0.0, 0.4],
        t_grid=[0.0, DEG_T, 1.3, DEG_T + 2.0 * math.pi],
    )
    assert len(result.rows) == 3 * 8 * 4
    assert _counts(result)[2] == 3 * 8 * 2
    notes = {note for row in result.rows for note in row.report.notes}
    assert any("branch point" in note for note in notes)
    assert any("nested tau elimination skipped" in note for note in notes)
    assert any("tau_assoc elimination skipped" in note for note in notes)
    _assert_example1_rows_match_single_points(result)


def _counting(monkeypatch, module, name, calls, size=None):
    """Count the calls of module.name in calls[name] (or the stack sizes that
    size(args) reads off each call)."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + (1 if size is None else size(args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_large_example2_sweep_analyses_each_point_once(monkeypatch):
    # more (p, q) than any per-point cache held: each algebra is analysed once
    import accrgeo.scenarios as scenarios

    scenarios._example2_stack.cache_clear()
    calls = {}
    _counting(monkeypatch, scenarios, "analyze", calls, lambda args: len(args[0].c.data))
    grid = [float(v) for v in np.linspace(-2.0, 2.0, 9)]
    result = sweep("example2", p_grid=grid, q_grid=grid, beta_grid=[0.3], t0_grid=[1.0])
    assert len(result.rows) == 81
    assert calls == {"analyze": 81}


def test_cold_example2_sweep_runs_each_kernel_once(monkeypatch):
    import accrgeo.geometry as geometry
    import accrgeo.scenarios as scenarios
    import accrgeo.structure as structure

    scenarios._example2_stack.cache_clear()
    scenarios._cached_carrier.cache_clear()
    calls = {}
    _counting(monkeypatch, scenarios, "validate_structure", calls)
    _counting(monkeypatch, structure, "validate_structure", calls)
    for name in ("levi_civita", "ricci", "riemann"):
        _counting(monkeypatch, geometry, name, calls)
    sweep("example2")
    assert calls == {"validate_structure": 1, "levi_civita": 2, "ricci": 2, "riemann": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "example2", "--format", "json"],
        ["soliton", "--scenario", "example2", "--solve", "--format", "json"],
    ],
)
def test_cold_and_warm_runs_print_the_same_bytes(argv):
    import contextlib
    import io
    import os
    import subprocess
    import sys

    import accrgeo.cli

    src = os.path.dirname(os.path.dirname(accrgeo.__file__))
    code = f"import accrgeo.cli, sys; sys.exit(accrgeo.cli.main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": src}
    cold = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert cold.returncode == 0
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert accrgeo.cli.main(argv) == 0
    assert out.getvalue().encode() == cold.stdout
