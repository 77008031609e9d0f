"""Check tables against scalar references.

The batched builders (solitons.conformal_row, solitons.vertical_solutions,
solitons.vertical_rows) compute each check of a sweep as one array
expression over its rows. The references here are the per-row forms they
replaced, one Python float at a time, with every operation in the same
order: a batched residual must equal its reference to the last bit. The
verdict of a table is compared with the scan over a report's checks that
TheoremReport.verdict used to be.
"""

import dataclasses
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accrgeo import (
    Check,
    Example2Params,
    Frame,
    LieAlgebra,
    SolitonSpec,
    TheoremReport,
    VerticalPotential,
    VerticalScalar,
    analyze,
    eta_rb_residual,
    example2_state,
    flat_carrier_structure,
    lie_derivative_metric,
    rb_like_residual,
    run_example2_report,
    scenarios,
    solitons,
    sweep,
    vertical_lie_closed_form,
)
from accrgeo.cli import RunConfig, _render_sweep, cmd_sweep, to_json
from accrgeo.errors import DegenerateParameter
from accrgeo.scenarios import _SUMS_NOTE, _example1_level
from accrgeo.solitons import DEGENERATE_BETA_TOL, CheckTable, Column, is_degenerate_beta
from accrgeo.tensors import Tensor

from conftest import semidirect_constants

DEG_T = 3.0 * math.pi / 4.0


# --- scalar references ------------------------------------------------------


def _reference_curve_sums(beta, n, tau, tau_assoc):
    if is_degenerate_beta(beta, n):
        return 1.0, 1.0
    factor = 1.0 + 2.0 * n * beta
    return 1.0 - factor * tau / (2.0 * n), 1.0 - factor * tau_assoc / (2.0 * n)


def _reference_conformal_row(level, beta, sum_g, sum_assoc, notes=()):
    """(checks, notes) of the conformal theorem at one beta of one level."""
    tau, tau_assoc, n = level.tau, level.tau_assoc, level.n
    checks, notes = list(level.head), [*level.notes, *notes]
    factor = 1.0 + 2.0 * n * beta

    def add(name, residual, note):
        checks.append(Check.measure(name, residual, note=note))

    add(
        "g_trace_closure",
        (1.0 + (2.0 * n + 1.0) * beta) * tau
        + beta * tau_assoc
        + (2.0 * n + 1.0) * sum_g
        + sum_assoc,
        "g-trace of the soliton equation",
    )
    add(
        "reeb_trace_closure",
        beta * (tau + tau_assoc) + sum_g + sum_assoc + 2.0 * n,
        "evaluation on (xi, xi)",
    )
    add(
        "phi_trace_relation",
        level.tau_star - 2.0 * n * (sum_assoc + beta * tau_assoc),
        "phi-trace of the soliton equation",
    )
    if is_degenerate_beta(beta, n):
        notes.append(
            "beta at the branch point -1/(2n): the scalar curvatures decouple "
            "from the potential sums"
        )
        add("unit_sum_g", sum_g - 1.0, "psi + lam = 1 at the branch point")
        add("unit_sum_assoc", sum_assoc - 1.0, "psi_assoc + lam_assoc = 1 at the branch point")
    else:
        add(
            "tau_from_sums",
            tau + 2.0 * n * (sum_g - 1.0) / factor,
            "tau = -2n(psi + lam - 1)/(1 + 2n beta)",
        )
        add(
            "tau_assoc_from_sums",
            tau_assoc + 2.0 * n * (sum_assoc - 1.0) / factor,
            "tau_assoc = -2n(psi_assoc + lam_assoc - 1)/(1 + 2n beta)",
        )
        add(
            "sums_closure",
            sum_g + sum_assoc + 2.0 * n * (1.0 + 2.0 * (n + 1.0) * beta),
            "the two sums are not independent",
        )
        nested_factor = 1.0 + (2.0 * n + 1.0) * beta
        if abs(nested_factor) > DEGENERATE_BETA_TOL:
            add(
                "tau_nested_form",
                tau
                + ((2.0 * n + 1.0) * sum_g + 1.0 + (sum_assoc - 1.0) / factor) / nested_factor,
                "tau eliminated through the g-trace instead of the sums",
            )
        else:
            notes.append("beta = -1/(2n+1): nested tau elimination skipped (guarded division)")
        if abs(beta) > DEGENERATE_BETA_TOL:
            add(
                "tau_assoc_solved_form",
                tau_assoc + ((sum_g - 1.0) / factor + sum_assoc + 2.0 * n + 1.0) / beta,
                "tau_assoc eliminated through the g-trace",
            )
        else:
            notes.append("beta = 0: tau_assoc elimination skipped (guarded division)")
    structure = level.structure
    if structure is not None:
        soliton_form = (
            level.ricci_tensor.data
            + (sum_g + beta * tau) * structure.g.matrix
            + (sum_assoc + beta * tau_assoc) * structure.g_assoc.matrix
        )
        add(
            "ricci_from_soliton_coeffs",
            soliton_form,
            "rho + (psi+lam+beta tau) g + (psi_assoc+lam_assoc+beta tau_assoc) g_assoc = 0",
        )
    checks.extend(level.tail)
    return checks, notes


def _reference_vertical_solution(k, tau, tau_assoc, n, beta):
    """(scalar_sum, lam, lam_assoc, checks, notes) of one potential at one beta."""
    k_prime = k.xi_derivative
    scalar_sum = Check.between(
        "scalar_sum_from_k_derivative",
        tau + tau_assoc,
        4.0 * n * (k_prime + n + 1.0),
        note="tau + tau_assoc = 4n(k' + n + 1)",
    )
    factor = 1.0 + 2.0 * n * beta
    degenerate = is_degenerate_beta(beta, n)
    if degenerate:
        lam, lam_assoc = 1.0 - k.value, 1.0 + k.value
    else:
        lam = 1.0 - k.value - tau * factor / (2.0 * n)
        lam_assoc = 1.0 + k.value - tau_assoc * factor / (2.0 * n)
    checks = [
        Check.measure(
            "k_derivative_from_trace",
            k_prime + 0.5 * (lam + lam_assoc + beta * (tau + tau_assoc) + 2.0 * n),
            note="k' = -(lam + lam_assoc + beta(tau + tau_assoc) + 2n)/2",
        )
    ]
    if not degenerate:
        checks += [
            Check.measure(
                "k_derivative_consistency",
                k_prime - (-(lam + lam_assoc - 2.0) / (2.0 * factor) - n - 1.0),
                note="k' recovered from the solved constants",
            ),
            Check.measure(
                "scalar_sum_from_lambdas",
                tau + tau_assoc + 2.0 * n * (lam + lam_assoc - 2.0) / factor,
                note="tau + tau_assoc recovered from the solved constants",
            ),
        ]
    notes = (
        [
            "beta at the branch point -1/(2n): scalar curvatures are not "
            "separately determined, only their sum is constrained"
        ]
        if degenerate
        else []
    )
    return scalar_sum, lam, lam_assoc, checks, notes


def _reference_example2(params, checks, lam=None, lam_assoc=None):
    """The checks, notes and constants of the example2 family report at
    params: the solve, the constants and the soliton residual from the
    references, the geometry, Lie-derivative and reconstruction checks (which
    no batched builder computes) taken from checks, the report under test."""
    a = example2_state(params.p, params.q)
    tau, tau_assoc, n = a.pkg.tau, a.assoc_pkg.tau, a.s.n
    t0, beta = params.t0, params.beta
    k = VerticalScalar(-2.0 * t0, -2.0)
    scalar_sum, solved, solved_assoc, solve_checks, notes = _reference_vertical_solution(
        k, tau, tau_assoc, n, beta
    )
    row_lam = solved if lam is None else lam
    row_assoc = solved_assoc if lam_assoc is None else lam_assoc
    if lam is None and lam_assoc is None:
        constants = [
            Check.between(
                "lambda_family_value",
                row_lam,
                2.0 * (t0 - 2.0 * beta),
                tol=1e-10,
                note="lam = 2(t0 - 2 beta)",
            ),
            Check.between(
                "lambda_assoc_family_value",
                row_assoc,
                -2.0 * (t0 + 2.0 * beta),
                tol=1e-10,
                note="lam_assoc = -2(t0 + 2 beta)",
            ),
        ]
    else:
        constants = [
            Check.between(
                "lambda_matches_solution",
                row_lam,
                solved,
                tol=1e-10,
                note="supplied lam against the solved value",
            ),
            Check.between(
                "lambda_assoc_matches_solution",
                row_assoc,
                solved_assoc,
                tol=1e-10,
                note="supplied lam_assoc against the solved value",
            ),
        ]
    level = solitons.vertical_level(a, k)
    spec = SolitonSpec(beta=beta, lam=row_lam, lam_assoc=row_assoc)
    lhs = rb_like_residual(a.pkg.ricci, level.lie_g, level.lie_assoc, a.s, spec, tau, tau_assoc)
    residual = Check.measure("soliton_residual", lhs.data, tol=1e-10)
    names = [check.name for check in checks]
    start, reconstruction = names.index(scalar_sum.name), names.index("ricci_reconstruction")
    expected = [
        *checks[:start],
        scalar_sum,
        *solve_checks,
        checks[reconstruction],
        *constants,
        residual,
        *checks[-2:],
    ]
    return expected, notes, (row_lam, row_assoc)


def _reference_eta_residual(a, level, beta, lam, mu):
    """The single-metric soliton residual of one potential at one beta, as
    the per-beta loop over eta_rb_residual computed it."""
    lhs = (
        a.pkg.ricci.data
        + 0.5 * level.lie_g.data
        + (lam + beta * a.pkg.tau) * a.s.g.matrix
        + mu * a.s.eta_outer
    )
    return Check.measure("eta_soliton_residual", lhs, tol=1e-10)


def _fields(checks):
    return [(c.name, repr(c.residual), c.tol, c.note) for c in checks]


def _point_level(t, n):
    """The curve's conformal level at one (t, n) as the scalar reference reads
    it: numbers, the Checks of head and tail, and a Ricci Tensor."""
    curve = _example1_level((t,), n)
    if curve.excluded[0] is not None:
        raise DegenerateParameter(curve.excluded[0])
    level = curve.conformal

    def checks(columns):
        return [Check(c.name, float(c.residual[0]), c.tol, c.note) for c in columns]

    return SimpleNamespace(
        tau=float(level.tau[0]),
        tau_assoc=float(level.tau_assoc[0]),
        n=n,
        tau_star=float(level.tau_star[0]),
        ricci_tensor=Tensor(level.structure.frame, level.ricci[0]),
        structure=level.structure,
        head=checks(level.head),
        tail=checks(level.tail),
        notes=level.notes,
    )


def _assert_example1_rows_match_references(result):
    for row in result.rows:
        t, n, beta = row.params["t"], row.params["n"], row.params["beta"]
        report = row.report
        try:
            level = _point_level(t, n)
        except DegenerateParameter as exc:
            assert row.degenerate
            assert (report.checks, report.notes) == ([], [str(exc)])
            continue
        sums = _reference_curve_sums(beta, n, level.tau, level.tau_assoc)
        checks, notes = _reference_conformal_row(level, beta, *sums, (_SUMS_NOTE,))
        assert _fields(report.checks) == _fields(checks), row.params
        assert report.notes == notes
        assert (row.scalars["psi_plus_lambda"], row.scalars["psi_tilde_plus_lambda_tilde"]) == sums


def _assert_example2_rows_match_references(result):
    for row in result.rows:
        report = row.report
        params = Example2Params(**row.params)
        expected, notes, constants = _reference_example2(params, report.checks)
        assert _fields(report.checks) == _fields(expected), row.params
        assert report.notes == notes
        assert (row.scalars["lambda"], row.scalars["lambda_tilde"]) == constants


# --- batched builders against the references ---------------------------------


def test_default_example1_sweep_matches_the_scalar_reference():
    result = sweep("example1")
    assert len(result.rows) == 1295
    _assert_example1_rows_match_references(result)


def test_default_example2_sweep_matches_the_scalar_reference():
    result = sweep("example2")
    assert len(result.rows) == 700
    _assert_example2_rows_match_references(result)


def test_example1_special_betas_and_excluded_t_match_the_scalar_reference():
    n_grid = [1, 2, 3]
    special = [-1.0 / (2 * n) for n in n_grid] + [-1.0 / (2 * n + 1) for n in n_grid]
    result = sweep(
        "example1",
        n_grid=n_grid,
        beta_grid=[*special, 0.0, -0.25 + 5e-10, 0.7],
        t_grid=[0.0, DEG_T, 1.3, 5.5],
    )
    assert sum(row.degenerate for row in result.rows) == 3 * 9
    notes = {note for row in result.rows for note in row.report.notes}
    for fragment in ("branch point", "nested tau elimination skipped", "elimination skipped"):
        assert any(fragment in note for note in notes), fragment
    _assert_example1_rows_match_references(result)


def test_example2_special_betas_match_the_scalar_reference():
    result = sweep(
        "example2",
        p_grid=[0.0, 1.5],
        q_grid=[-2.0],
        beta_grid=[-0.25, -0.2, 0.0],
        t0_grid=[1.0, -0.5, 3.0],
    )
    assert len(result.rows) == 18
    _assert_example2_rows_match_references(result)


@pytest.mark.parametrize("beta", [-0.25, -0.2, 0.0, 0.6])
@pytest.mark.parametrize("lam,lam_assoc", [(2.0, None), (None, -3.0), (1.0, 1.0)])
def test_example2_point_with_supplied_constants_matches_the_scalar_reference(
    beta, lam, lam_assoc
):
    params = Example2Params(p=-1.0, q=0.5, beta=beta, t0=1.0)
    report = run_example2_report(params, lam=lam, lam_assoc=lam_assoc)
    expected, notes, _ = _reference_example2(params, report.checks, lam, lam_assoc)
    assert _fields(report.checks) == _fields(expected)
    assert report.notes == notes


@pytest.mark.parametrize("mu", [0.0, -1.5, 3.0])
@pytest.mark.parametrize("lam", [None, 1.25])
def test_single_metric_rows_match_the_per_beta_reference(mu, lam):
    # --mu: one array expression over (beta, potential), including the
    # betas where the two-metric theorem branches; each row equals the
    # per-beta loop and the table of its one row alone
    a = example2_state(0.5, -1.0)
    n = a.s.n
    betas = [-1.0, -1.0 / (2 * n), -1.0 / (2 * n + 1), 0.0, 0.3]
    ks = [VerticalScalar(0.7, -2.0), VerticalScalar(-1.0, 0.5), VerticalScalar(0.0, 0.0)]
    levels = [solitons.vertical_level(a, k) for k in ks]
    row_lam, row_lam_assoc, table = solitons.vertical_rows(a, levels, betas, lam, mu=mu)
    eta_lam = 0.0 if lam is None else lam
    assert (row_lam, row_lam_assoc) == (eta_lam, None)
    for i, beta in enumerate(betas):
        for j, level in enumerate(levels):
            report = table.report(i * len(levels) + j)
            expected = _reference_eta_residual(a, level, beta, eta_lam, mu)
            assert _fields(report.checks[-1:]) == _fields([expected]), (beta, j)
            spec = SolitonSpec(beta=beta, lam=eta_lam, mu=mu)
            lhs = eta_rb_residual(a.pkg.ricci, level.lie_g, a.s, spec, a.pkg.tau)
            assert repr(Check.measure("", lhs.data).residual) == repr(expected.residual)
            *_, alone = solitons.vertical_rows(a, (level,), (beta,), lam, mu=mu)
            assert _fields(alone.report(0).checks) == _fields(report.checks)


@pytest.mark.parametrize("beta", [-1.0, -0.25, -0.2, 0.0, 0.6])
@pytest.mark.parametrize("t0", [-1.0, 2.0])
def test_rb_like_residual_is_the_two_metric_left_hand_side(beta, t0):
    # the public one-row form of the soliton equation, at the solved
    # constants of the scenario family: zero to the gate's 1e-10, and the
    # residual vertical_rows reports
    a = example2_state(-1.0, 0.5)
    s, pkg, tau, tau_assoc = a.s, a.pkg, a.pkg.tau, a.assoc_pkg.tau
    level = solitons.vertical_level(a, VerticalScalar(-2.0 * t0, -2.0))
    lam, lam_assoc, table = solitons.vertical_rows(a, (level,), (beta,))
    spec = SolitonSpec(beta=beta, lam=lam, lam_assoc=lam_assoc)
    lhs = rb_like_residual(pkg.ricci, level.lie_g, level.lie_assoc, s, spec, tau, tau_assoc)
    expected = (
        pkg.ricci.data
        + 0.5 * level.lie_g.data
        + 0.5 * level.lie_assoc.data
        + (lam + beta * tau) * s.g.matrix
        + (lam_assoc + beta * tau_assoc) * s.g_assoc.matrix
    )
    assert np.array_equal(lhs.data, expected)
    assert np.max(np.abs(lhs.data)) < 1e-10
    reported = table.report(0)["soliton_residual"]
    assert repr(reported.residual) == repr(Check.measure("", expected).residual)


# --- level checks against the one-potential routes ---------------------------

#: three potentials k xi as (k, k'), one of them zero
_POTENTIALS = (VerticalScalar(0.7, -2.0), VerticalScalar(-1.0, 0.5), VerticalScalar(0.0, 0.0))
_CLOSED_FORM_NAMES = ("lie_g_closed_vs_connection", "lie_assoc_closed_vs_connection")


def _closed_form_references(a, k):
    """The closed-form checks of one potential through the public one-potential
    routes: vertical_lie_closed_form against lie_derivative_metric."""
    s, potential = a.s, VerticalPotential(k)
    closed = vertical_lie_closed_form(k, s, a.classification)
    lie = (lie_derivative_metric(m, a.pkg.conn, potential, s) for m in (s.g, s.g_assoc))
    return [
        Check.between(name, form.data, connection.data, 1e-10)
        for name, form, connection in zip(_CLOSED_FORM_NAMES, closed, lie)
    ]


@pytest.mark.parametrize("case", [(1.5, -2.0), (-1.0, 0.5), "semidirect-n2"])
def test_closed_form_columns_equal_the_one_potential_routes(case):
    # the Lie derivatives against their closed forms, one array expression
    # over the potentials, in a table over (beta, potential) and in the
    # one-row table of each (beta, potential), which computes in numbers
    if isinstance(case, str):
        a = analyze(LieAlgebra(Frame(5), semidirect_constants(2)), flat_carrier_structure(2))
    else:
        a = example2_state(*case)
    betas = [-1.0 / (2 * a.s.n), 0.0, 0.6]
    levels = [solitons.vertical_level(a, k) for k in _POTENTIALS]
    *_, table = solitons.vertical_rows(a, levels, betas)
    for i, beta in enumerate(betas):
        for j, k in enumerate(_POTENTIALS):
            expected = _fields(_closed_form_references(a, k))
            report = table.report(i * len(levels) + j)
            assert _fields([report[name] for name in _CLOSED_FORM_NAMES]) == expected, (beta, k)
            *_, alone = solitons.vertical_rows(a, levels[j : j + 1], (beta,))
            assert _fields(alone.report(0).checks[:2]) == expected, (beta, k)


def _family_references(a, t0):
    """h_form and the family values of the Lie derivatives at one t0, each
    Check.between of the per-potential expressions."""
    s, eta_outer = a.s, a.s.eta_outer
    level = solitons.vertical_level(a, VerticalScalar(-2.0 * t0, -2.0))
    return [
        Check.between("h_form", 2.0 * level.k.xi_derivative * eta_outer, -4.0 * eta_outer, 1e-12),
        Check.between(
            "lie_g_family_value",
            level.lie_g.data,
            4.0 * t0 * s.g_assoc.matrix - 4.0 * (t0 + 1.0) * eta_outer,
            1e-10,
        ),
        Check.between(
            "lie_assoc_family_value",
            level.lie_assoc.data,
            -4.0 * t0 * s.g.matrix + 4.0 * (t0 - 1.0) * eta_outer,
            1e-10,
        ),
    ]


def test_example2_family_columns_equal_the_per_t0_checks():
    references = {}
    for row in sweep("example2").rows:
        p, q, t0 = (row.params[name] for name in ("p", "q", "t0"))
        if (p, q, t0) not in references:
            references[p, q, t0] = _fields(_family_references(example2_state(p, q), t0))
        expected = references[p, q, t0]
        report = row.report
        assert _fields([report[name] for name, *_ in expected]) == expected, row.params


@pytest.mark.parametrize(
    "kwargs", [{"lam": 0.5, "lam_assoc": -1.5, "solve": False}, {"lam": 0.5, "mu": -4.0}]
)
def test_no_closed_form_columns_where_the_structure_is_not_sasaki_like(kwargs):
    # the abelian algebra on the dim-5 carrier: every row, of one potential
    # or of several, notes that the closed forms do not apply and holds none
    a = analyze(LieAlgebra(Frame(5), np.zeros((5, 5, 5))), flat_carrier_structure(2))
    assert not a.classification.is_sasaki_like
    note = (
        "structure is not Sasaki-like: closed-form Lie derivatives do not "
        "apply, connection-based values used throughout"
    )
    levels = [solitons.vertical_level(a, k) for k in _POTENTIALS]
    for chosen, betas in (((levels[0],), (0.3,)), (levels, (-0.25, 0.0, 0.3))):
        *_, table = solitons.vertical_rows(a, chosen, betas, **kwargs)
        for row in range(table.rows):
            report = table.report(row)
            assert not any(name in report for name in _CLOSED_FORM_NAMES)
            assert report.notes == [note]


# --- the one-row path ---------------------------------------------------------

_NUMPY_DIR = os.path.dirname(np.__file__)


def _numpy_calls(fn):
    """The calls fn makes into numpy: Python functions of the numpy package,
    and C functions and methods of numpy (array and ufunc methods too). An
    operator or a direct ufunc call on an array is not seen."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_NUMPY_DIR):
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            if str(getattr(arg, "__module__", "")).startswith("numpy") or isinstance(
                owner, (np.ndarray, np.ufunc, np.generic)
            ):
                calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_one_row_report_makes_few_numpy_calls():
    # one soliton --input --solve report: the solve and its checks run in
    # Python numbers; numpy is left with the residuals of the dim x dim
    # equations and the verdict. Per-element work on 1-element arrays made
    # about 110 such calls.
    a = example2_state(0.3, -1.2)
    level = solitons.vertical_level(a, VerticalScalar(0.7, -2.0))

    def one_row():
        *_, table = solitons.vertical_rows(a, (level,), (0.3,))
        return table.report(0).verdict()

    one_row()
    calls = _numpy_calls(one_row)
    assert len(calls) <= 40, calls


# --- the vectorised verdict --------------------------------------------------


def _scan_verdict(checks, tol=None):
    """(passed, worst) as a scan over checks: the first largest margin, a
    later margin replacing the worst only when it is larger."""
    passed, worst, worst_margin = True, None, None
    for check in checks:
        limit = check.tol if tol is None else tol
        if not check.residual < limit:
            passed = False
        margin = check.residual / limit
        if worst is None or margin > worst_margin:
            worst, worst_margin = check, margin
    return passed, worst


def _assert_verdicts_match_the_scan(table_rows, tol):
    """table_rows: (table, row) pairs; the table's verdict of each row equals
    the scan over the row's report, which is the report's own verdict."""
    judged = {}
    for table, row in table_rows:
        if id(table) not in judged:
            judged[id(table)] = list(zip(*table.verdicts(tol)))
        passed, name, residual = judged[id(table)][row]
        report = table.report(row)
        expected_passed, worst = _scan_verdict(report.checks, tol)
        assert (passed, name) == (expected_passed, worst.name)
        assert repr(residual) == repr(worst.residual)
        assert report.verdict(tol) == (expected_passed, worst)


@pytest.mark.parametrize("scenario", ["example1", "example2"])
@pytest.mark.parametrize("tol", [None, 1e-16, 1e-3])
def test_default_sweep_verdicts_equal_the_scan(scenario, tol):
    result = sweep(scenario)
    judged = [(row.table, row.position) for row in result.rows if not row.degenerate]
    _assert_verdicts_match_the_scan(judged, tol)
    verdicts = result.verdicts(tol)
    assert [v is None for v in verdicts] == [row.degenerate for row in result.rows]
    if tol == 1e-16:
        assert not all(v[0] for v in verdicts if v is not None)
    if tol == 1e-3:
        assert all(v[0] for v in verdicts if v is not None)


def _table(residuals, tols, present=None):
    """A table of one column per entry of tols, rows as given."""
    residuals = np.array(residuals, dtype=float)
    present = np.ones(residuals.shape, bool) if present is None else np.array(present)
    columns = tuple(
        Column(f"c{j}", residuals[:, j], tol, "", present[:, j]) for j, tol in enumerate(tols)
    )
    return CheckTable(len(residuals), columns)


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_verdict_with_nan_residuals_and_tied_margins(tol):
    nan = math.nan
    table = _table(
        [
            [nan, 1e-10, 5e-9, 0.0],  # NaN first: it stays the worst
            [1e-10, nan, 5e-9, 0.0],  # NaN later: skipped
            [nan, nan, nan, nan],
            [2e-9, 2e-10, 1e-10, 2e-9],  # tied margins under each tol: the first wins
            [1e-12, nan, 3e-10, 1e-11],  # the first present check is NaN
            [0.0, 0.0, 0.0, 0.0],
        ],
        [1e-9, 1e-10, 1e-9, 1e-9],
        present=[[True] * 4] * 4 + [[False, True, True, True], [True] * 4],
    )
    _assert_verdicts_match_the_scan([(table, row) for row in range(table.rows)], tol)
    _, names, _ = table.verdicts(tol)
    assert names[:2] == ["c0", "c2"]
    assert names[4] == "c1"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.tuples(
            st.lists(st.sampled_from([1e-10, 1e-9]), min_size=width, max_size=width),
            st.lists(
                st.lists(
                    st.tuples(
                        st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, math.inf, math.nan]),
                        st.booleans(),
                    ),
                    min_size=width,
                    max_size=width,
                ).filter(lambda row: any(held for _, held in row)),
                min_size=1,
                max_size=6,
            ),
        )
    ),
    st.sampled_from([None, 1e-9]),
)
def test_table_verdict_equals_the_scan_of_each_row(drawn, tol):
    tols, rows = drawn
    table = _table(
        [[value for value, _ in row] for row in rows],
        tols,
        present=[[held for _, held in row] for row in rows],
    )
    _assert_verdicts_match_the_scan([(table, row) for row in range(table.rows)], tol)


# --- sweeps hold tables, not reports ----------------------------------------


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


#: the checks of example1 that each (n, t) shares among its betas
_EXAMPLE1_LEVEL_CHECKS = (
    "curve_constraint",
    "tau_route_agreement",
    "tau_assoc_route_agreement",
    "ricci_reeb_value",
    "scalar_sum",
    "ricci_einstein_like",
)


def _record_level_checks(monkeypatch, built):
    """Append to built the name of every example1 level Check constructed."""
    original = Check.__new__

    def recorded(cls, *args, **kwargs):
        check = original(cls, *args, **kwargs)
        if check.name in _EXAMPLE1_LEVEL_CHECKS:
            built.append(check.name)
        return check

    monkeypatch.setattr(Check, "__new__", recorded)


@pytest.mark.parametrize(
    "scenario,builder,calls,rows",
    [("example1", "conformal_row", 5, 1295), ("example2", "vertical_solutions", 25, 700)],
)
def test_a_default_sweep_builds_one_table_per_level_and_no_row_report(
    monkeypatch, scenario, builder, calls, rows
):
    # one builder call and one verdict (_judge) per table
    counts, built, expected = {}, [], {builder: calls, "_judge": calls}
    _count_calls(monkeypatch, solitons, "_judge", counts)
    module = scenarios if builder == "conformal_row" else solitons
    _count_calls(monkeypatch, module, builder, counts)
    _count_calls(monkeypatch, CheckTable, "report", counts)
    if scenario == "example1":
        # one array pass per n, no Tensor per (n, t) (the carriers are
        # cached before counting), and no level Check until a report is read
        for n in scenarios.DEFAULT_N_GRID:
            scenarios._cached_carrier(n)
        _count_calls(monkeypatch, scenarios, "_example1_level", counts)
        _count_calls(monkeypatch, Tensor, "__post_init__", counts)
        _record_level_checks(monkeypatch, built)
        expected["_example1_level"] = 5
    # the rows stay columns up to the output text: no SweepRow and no row dict
    _count_calls(monkeypatch, scenarios.SweepRow, "__init__", counts)
    payload, code = cmd_sweep(RunConfig("sweep", scenario=scenario))
    assert (code, len(payload["rows"])) == (0, rows)
    to_json(payload)
    _render_sweep(payload)
    assert counts == expected
    assert built == []
    result = payload["rows"].result
    assert len(result.tables) == calls
    assert not isinstance(payload["rows"], list)
    assert all(len(column) == rows for column in result.params.values())
    # a row read from the result is still the single-point report
    for index in (0, rows // 2, rows - 1):
        row = result.rows[index]
        assert isinstance(row, scenarios.SweepRow) and row.index == index
        params = row.params
        if scenario == "example1":
            single = scenarios.run_example1_report(params["t"], params["n"], params["beta"])
        else:
            single = run_example2_report(Example2Params(**params))
        assert row.report == single


def test_reports_and_sweeps_are_frozen():
    report = TheoremReport([Check("x", 0.0)], ["note"])
    result = sweep("example2", p_grid=[0.0], q_grid=[0.0], beta_grid=[0.0], t0_grid=[1.0])
    # rows, a cached_property, is still built on the frozen result
    assert result.rows[0].report.checks
    for value, name in (
        (report, "checks"), (report, "notes"), (result, "notes"), (result, "tables")
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, [])
    assert not hasattr(TheoremReport, "add")


def test_reading_a_row_builds_the_checks_of_its_level_once(monkeypatch):
    built = []
    _record_level_checks(monkeypatch, built)
    result = sweep("example1", n_grid=[2], beta_grid=[0.0, 0.5], t_grid=[0.0, 1.0, 2.0])
    assert built == []
    result.rows[0].report
    assert built == list(_EXAMPLE1_LEVEL_CHECKS)
