"""The conformal theorem derived in exact arithmetic, then evaluated through
the real conformal_row.

The hypotheses are typed once, from the published statements. On a
Sasaki-like structure rho(xi, xi) = 2n, tr_g rho = tau and tau_tilde =
2n - tau_star, tau_star the phi-trace of rho (as tensors.phi_trace takes
it). An Einstein-like rho = a g + b g_assoc + c eta (.) eta is fixed by
these three, which gives the Sasaki-like Ricci form. A conformal potential
turns the soliton equation into

    rho + (psi + lam + beta tau) g + (psi_assoc + lam_assoc + beta tau_tilde) g_assoc = 0,

and sympy solves it, entry by entry on the carrier of n, for the sums
psi + lam, psi_assoc + lam_assoc and for tau_tilde. conformal_row is then
run at rational points of that solution: every check it holds is 0 to
float rounding, and a perturbed input moves exactly the checks whose
formula reads it. No check formula is retyped here.
"""

import functools

import numpy as np
import pytest
import sympy as sp

from accrgeo import Frame, LieAlgebra, analyze, example2_state, flat_carrier_structure
from accrgeo.solitons import conformal_row

from conftest import semidirect_constants

beta, tau, tau_tilde, sum_g, sum_assoc = sp.symbols("beta tau tau_tilde sum_g sum_assoc")
a, b, c = sp.symbols("a b c")

N_VALUES = (1, 2, 3)
BETAS = (sp.Rational(-3, 2), sp.Rational(1, 3), sp.Rational(5, 2))
TAUS = (sp.Rational(-7, 3), sp.Integer(4), sp.Rational(23, 2))
#: a perturbation of an input, and the rounding a check of an unperturbed
#: point stays within at these sizes
DELTA = 1e-3
ROUNDING = 1e-11

#: the inputs of conformal_row that each check reads besides beta (notes
#: of the checks); ricci_* read the Ricci tensor too, phi_trace_relation
#: its phi-trace
READS = {
    "scalar_sum": {"tau", "tau_assoc"},
    "g_trace_closure": {"tau", "tau_assoc", "sum_g", "sum_assoc"},
    "reeb_trace_closure": {"tau", "tau_assoc", "sum_g", "sum_assoc"},
    "phi_trace_relation": {"tau_assoc", "sum_assoc"},
    "tau_from_sums": {"tau", "sum_g"},
    "tau_assoc_from_sums": {"tau_assoc", "sum_assoc"},
    "sums_closure": {"sum_g", "sum_assoc"},
    "tau_nested_form": {"tau", "sum_g", "sum_assoc"},
    "tau_assoc_solved_form": {"tau_assoc", "sum_g", "sum_assoc"},
    "ricci_from_soliton_coeffs": {"tau", "tau_assoc", "sum_g", "sum_assoc"},
    "ricci_einstein_like": {"tau", "tau_assoc"},
}


def _exact(array):
    """The integer array as a sympy Matrix (a vector as a column)."""
    exact = sp.Matrix(np.rint(array).astype(int).tolist())
    assert np.array_equal(np.array(exact, dtype=float).reshape(array.shape), array)
    return exact


@functools.lru_cache(maxsize=None)
def derivation(n: int) -> tuple:
    """(carrier, ricci, solution): the carrier of n, the Sasaki-like Ricci
    form in tau and tau_tilde, and the solution of the conformal soliton
    equation for (sum_g, sum_assoc, tau_tilde)."""
    s = flat_carrier_structure(n)
    g, g_assoc, phi, xi, eta = (
        _exact(m) for m in (s.g.matrix, s.g_assoc.matrix, s.phi.data, s.xi.data, s.eta.data)
    )
    g_inverse = g.inv()
    rho = a * g + b * g_assoc + c * eta * eta.T
    facts = (
        (xi.T * rho * xi)[0] - 2 * n,
        (g_inverse * rho).trace() - tau,
        tau_tilde - (2 * n - (g_inverse * rho * phi).trace()),
    )
    (coefficients,) = sp.solve(facts, (a, b, c), dict=True)
    rho = rho.subs(coefficients)
    soliton = rho + (sum_g + beta * tau) * g + (sum_assoc + beta * tau_tilde) * g_assoc
    (solution,) = sp.solve(list(soliton), (sum_g, sum_assoc, tau_tilde), dict=True)
    return s, rho.subs(solution), solution


def _inputs(n: int, beta_value, tau_value) -> dict:
    """conformal_row's inputs at the solution's point (beta, tau), floats."""
    _, rho, solution = derivation(n)
    point = {beta: beta_value, tau: tau_value}
    return {
        "beta": float(beta_value),
        "tau": float(tau_value),
        "tau_assoc": float(solution[tau_tilde].subs(point)),
        "sum_g": float(solution[sum_g].subs(point)),
        "sum_assoc": float(solution[sum_assoc].subs(point)),
        "ricci": np.array(rho.subs(point), dtype=float),
    }


def _checks(n: int, inputs: dict) -> tuple:
    """({name: residual} of the checks the one row holds, its notes)."""
    table = conformal_row(
        [inputs["tau"]], [inputs["tau_assoc"]], n, (inputs["beta"],),
        inputs["sum_g"], inputs["sum_assoc"],
        ricci=inputs["ricci"][None], structure=flat_carrier_structure(n),
    )
    report = table.report(0)
    return {check.name: check.residual for check in report.checks}, report.notes


def test_the_hypotheses_hold_on_sasaki_like_algebras():
    # the three Sasaki-like facts, through analyze: example2 off the origin
    # and the semidirect family (conftest), which is Sasaki-like for every n
    cases = [example2_state(1.5, -2.0)] + [
        analyze(LieAlgebra(Frame(2 * n + 1), semidirect_constants(n)), flat_carrier_structure(n))
        for n in N_VALUES
    ]
    for analysis in cases:
        s, pkg, assoc_pkg = analysis.s, analysis.pkg, analysis.assoc_pkg
        rho = pkg.ricci.data
        assert bool(analysis.classification.is_sasaki_like)
        assert abs(s.xi.data @ rho @ s.xi.data - 2 * s.n) < 1e-12
        assert abs(np.sum(s.g.inverse * rho) - pkg.tau) < 1e-12
        assert abs(assoc_pkg.tau - (2 * s.n - pkg.tau_star)) < 1e-12


@pytest.mark.parametrize("n", N_VALUES)
def test_the_solution_is_the_published_one(n):
    _, _, solution = derivation(n)
    factor = 1 + 2 * n * beta
    assert sp.simplify(solution[tau_tilde] - (4 * n * (n + 1) - tau)) == 0
    assert sp.simplify(solution[sum_g] - (1 - factor * tau / (2 * n))) == 0
    assert sp.simplify(solution[sum_assoc] - (1 - factor * solution[tau_tilde] / (2 * n))) == 0
    # at the branch point the scalar curvatures drop out: both sums are 1
    branch = {beta: sp.Rational(-1, 2 * n)}
    assert [sp.simplify(solution[name].subs(branch)) for name in (sum_g, sum_assoc)] == [1, 1]


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("beta_value", BETAS)
@pytest.mark.parametrize("tau_value", TAUS)
def test_conformal_row_vanishes_on_the_solution(n, beta_value, tau_value):
    checks, _ = _checks(n, _inputs(n, beta_value, tau_value))
    assert set(checks) == set(READS)
    assert max(checks.values()) <= ROUNDING, checks


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("name", ["tau", "tau_assoc", "sum_g", "sum_assoc"])
def test_a_perturbed_input_moves_the_checks_that_read_it(n, name):
    inputs = _inputs(n, BETAS[1], TAUS[0])
    inputs[name] += DELTA
    checks, _ = _checks(n, inputs)
    moved = {check for check, residual in checks.items() if residual > DELTA * 1e-3}
    assert moved == {check for check, reads in READS.items() if name in reads}, checks
    assert all(checks[check] <= ROUNDING for check in set(checks) - moved), checks


@pytest.mark.parametrize("n", N_VALUES)
def test_the_guarded_betas_hold_the_checks_that_stay_present(n):
    # beta = -1/(2n): tau drops out and both sums are 1; beta = -1/(2n+1)
    # and beta = 0 each leave one elimination route undivided
    skipped = {
        sp.Rational(-1, 2 * n): (
            {"unit_sum_g", "unit_sum_assoc"},
            {"tau_from_sums", "tau_assoc_from_sums", "sums_closure", "tau_nested_form",
             "tau_assoc_solved_form"},
        ),
        sp.Rational(-1, 2 * n + 1): (set(), {"tau_nested_form"}),
        sp.Integer(0): (set(), {"tau_assoc_solved_form"}),
    }
    for beta_value, (added, removed) in skipped.items():
        inputs = _inputs(n, beta_value, TAUS[2])
        checks, notes = _checks(n, inputs)
        assert set(checks) == (set(READS) - removed) | added
        assert max(checks.values()) <= ROUNDING, (beta_value, checks)
        if added:
            assert inputs["sum_g"] == inputs["sum_assoc"] == 1.0
            assert any("branch point" in note for note in notes)
