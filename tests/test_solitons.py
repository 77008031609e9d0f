"""Soliton equation checks, Lie derivatives, Einstein-like fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accrgeo import (
    DEFAULT_TOL,
    Check,
    SolitonSpec,
    Tensor,
    VerticalPotential,
    VerticalScalar,
    build_example2,
    einstein_like_fit,
    eta_rb_residual,
    example2_state,
    flat_carrier_structure,
    is_degenerate_beta,
    lie_derivative_metric,
    rb_like_residual,
    solve_vertical_soliton,
    verify_conformal_theorem,
    vertical_lie_closed_form,
)
from accrgeo.errors import GeometryError, NotSasakiLike, UnsupportedPotential
from accrgeo.solitons import ricci_reconstruction_check

from conftest import oracle_lie_derivative

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(finite, finite)
def test_vertical_closed_form_equals_connection(k_value, k_prime):
    _, s, pkg, _, classification, _ = example2_state(0.0, 0.0)
    k = VerticalScalar(value=k_value, xi_derivative=k_prime)
    potential = VerticalPotential(k)
    lie_g = lie_derivative_metric(s.g, pkg.conn, potential, s)
    lie_assoc = lie_derivative_metric(s.g_assoc, pkg.conn, potential, s)
    closed_g, closed_assoc = vertical_lie_closed_form(k, s, classification)
    assert np.max(np.abs(lie_g.data - closed_g.data)) < 1e-10
    assert np.max(np.abs(lie_assoc.data - closed_assoc.data)) < 1e-10


def test_vertical_lie_derivative_constant_k_matches_oracle(ex2_origin):
    # constant k: the scalar-derivative term vanishes and theta = k xi is
    # genuinely left-invariant
    _, s, pkg, _, _, _ = ex2_origin
    k = VerticalScalar(value=3.0, xi_derivative=0.0)
    lie_g = lie_derivative_metric(s.g, pkg.conn, VerticalPotential(k), s)
    expected = oracle_lie_derivative(3.0 * s.xi.data, pkg.conn.gamma.data, s.g.matrix)
    assert np.max(np.abs(lie_g.data - expected)) < 1e-12


def test_rank_checked_on_potential(ex2_origin):
    # a bare component array is not a potential the Lie derivative accepts
    _, s, pkg, _, _, _ = ex2_origin
    with pytest.raises(UnsupportedPotential):
        lie_derivative_metric(s.g, pkg.conn, np.zeros((5, 5)), s)


def test_closed_form_requires_sasaki_like():
    from accrgeo import SasakiLikeResult

    _, s, _, _, _, _ = example2_state(0.0, 0.0)
    fake = SasakiLikeResult(is_sasaki_like=False, residual=1.0)
    with pytest.raises(NotSasakiLike):
        vertical_lie_closed_form(VerticalScalar(1.0, 0.0), s, fake)


def test_rb_residual_affine_in_lambda(ex2_origin):
    # the defining expression is affine in lambda: residual difference of
    # two lambda values is exactly (dlambda) * g
    _, s, pkg, _, classification, assoc_pkg = ex2_origin
    k = VerticalScalar(-2.0, -2.0)
    lie_g, lie_assoc = vertical_lie_closed_form(k, s, classification)
    r1 = rb_like_residual(
        pkg.ricci, lie_g, lie_assoc, s,
        SolitonSpec(beta=0.0, lam=1.0, lam_assoc=0.0), pkg.tau, assoc_pkg.tau,
    )
    r2 = rb_like_residual(
        pkg.ricci, lie_g, lie_assoc, s,
        SolitonSpec(beta=0.0, lam=3.0, lam_assoc=0.0), pkg.tau, assoc_pkg.tau,
    )
    assert np.max(np.abs((r2.data - r1.data) - 2.0 * s.g.matrix)) < 1e-12


def test_eta_equation_with_mu_zero_matches_two_metric_without_assoc(ex2_origin):
    # with mu = 0 and no associated-metric terms the single-metric
    # expression coincides with the two-metric one at lie_assoc = 0,
    # lam_assoc = 0, beta tau_assoc dropped
    _, s, pkg, _, classification, assoc_pkg = ex2_origin
    k = VerticalScalar(-2.0, -2.0)
    lie_g, _ = vertical_lie_closed_form(k, s, classification)
    spec = SolitonSpec(beta=0.25, lam=0.5, mu=0.0)
    a = eta_rb_residual(pkg.ricci, lie_g, s, spec, pkg.tau)
    b = rb_like_residual(
        pkg.ricci, lie_g, Tensor(s.frame, np.zeros((5, 5))), s,
        SolitonSpec(beta=0.25, lam=0.5, lam_assoc=-0.25 * assoc_pkg.tau),
        pkg.tau, assoc_pkg.tau,
    )
    assert np.max(np.abs(a.data - b.data)) == 0.0


def test_eta_equation_requires_mu(ex2_origin):
    _, s, pkg, _, classification, _ = ex2_origin
    k = VerticalScalar(-2.0, -2.0)
    lie_g, _ = vertical_lie_closed_form(k, s, classification)
    with pytest.raises(GeometryError):
        eta_rb_residual(
            pkg.ricci, lie_g, s, SolitonSpec(beta=0.0, lam=0.0), pkg.tau
        )


def test_solve_vertical_example_values():
    _, s, pkg, _, classification, assoc_pkg = example2_state(0.0, 0.0)
    # t0 = 1, beta = 0: lam = 2(t0 - 2 beta) = 2, lam_assoc = -2(t0 + 2 beta) = -2
    k = VerticalScalar(-2.0, -2.0)
    lam, lam_assoc, report = solve_vertical_soliton(
        0.0, k, pkg.tau, assoc_pkg.tau, s.n, classification=classification
    )
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert lam_assoc == pytest.approx(-2.0, abs=1e-12)
    assert report.passed
    # vertical_rows adds the reconstruction of rho to the solved checks
    reconstruction = ricci_reconstruction_check(pkg.ricci.data, pkg.tau, assoc_pkg.tau, 2, s, ())
    assert reconstruction.residual[0] <= DEFAULT_TOL


@settings(max_examples=40, deadline=None)
@given(finite, st.floats(min_value=-2.0, max_value=2.0))
def test_solve_vertical_family(t0, beta):
    _, s, pkg, _, classification, assoc_pkg = example2_state(0.0, 0.0)
    k = VerticalScalar(-2.0 * t0, -2.0)
    lam, lam_assoc, report = solve_vertical_soliton(
        beta, k, pkg.tau, assoc_pkg.tau, s.n, classification=classification
    )
    if is_degenerate_beta(beta, s.n):
        assert lam == pytest.approx(1.0 - k.value)
        assert lam_assoc == pytest.approx(1.0 + k.value)
    else:
        assert lam == pytest.approx(2.0 * (t0 - 2.0 * beta), abs=1e-9)
        assert lam_assoc == pytest.approx(-2.0 * (t0 + 2.0 * beta), abs=1e-9)
    assert report.passed


def test_degenerate_beta_routing():
    _, s, pkg, _, classification, assoc_pkg = example2_state(0.0, 0.0)
    k = VerticalScalar(-2.0, -2.0)
    # within 1e-9 of -1/(2n): routed to the division-free branch
    beta = -0.25 + 1e-12
    lam, lam_assoc, report = solve_vertical_soliton(
        beta, k, pkg.tau, assoc_pkg.tau, s.n, classification=classification
    )
    assert np.isfinite(lam) and np.isfinite(lam_assoc)
    assert lam == pytest.approx(3.0)       # 1 - k = 1 + 2
    assert lam_assoc == pytest.approx(-1.0)  # 1 + k
    assert any("branch point" in note for note in report.notes)


def test_solve_requires_sasaki_like():
    from accrgeo import SasakiLikeResult

    fake = SasakiLikeResult(is_sasaki_like=False, residual=0.5)
    with pytest.raises(NotSasakiLike):
        solve_vertical_soliton(
            0.0, VerticalScalar(1.0, 0.0), 4.0, 4.0, 2, classification=fake
        )


def test_conformal_theorem_consistent_point():
    # synthetic consistent data: n = 2, beta = 0, tau = 24, tau_assoc = 0,
    # sums fixed by the closure relations
    n, beta, tau, tau_assoc = 2, 0.0, 24.0, 0.0
    sum_g = 1.0 - tau / (2 * n)      # psi + lam = -5
    sum_assoc = 1.0 - tau_assoc / (2 * n)  # psi~ + lam~ = 1
    report = verify_conformal_theorem(
        beta, psi=sum_g, psi_assoc=sum_assoc, lam=0.0, lam_assoc=0.0,
        tau=tau, tau_assoc=tau_assoc, n=n,
    )
    assert report.passed, report.worst()


def test_conformal_theorem_flags_inconsistent_point():
    # same scalars but sum_g shifted: closure relations must fail
    n, beta, tau, tau_assoc = 2, 0.0, 24.0, 0.0
    report = verify_conformal_theorem(
        beta, psi=-5.0 + 0.5, psi_assoc=1.0, lam=0.0, lam_assoc=0.0,
        tau=tau, tau_assoc=tau_assoc, n=n,
    )
    assert not report.passed


def test_conformal_degenerate_beta_branch():
    # beta = -1/(2n): both sums are forced to 1 and tau drops out
    n = 2
    report = verify_conformal_theorem(
        -0.25, psi=1.0, psi_assoc=1.0, lam=0.0, lam_assoc=0.0,
        tau=17.5, tau_assoc=24.0 - 17.5, n=n,
    )
    assert report.passed, report.worst()
    assert "unit_sum_g" in report
    assert "tau_from_sums" not in report


def test_einstein_fit_on_example2(ex2_origin):
    _, s, pkg, _, _, _ = ex2_origin
    fit = einstein_like_fit(pkg.ricci, s)
    assert fit.kind == "eta_einstein"
    assert fit.a == 0.0 and fit.b == 0.0
    assert fit.c == pytest.approx(4.0, abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.tau_residual < 1e-10
    assert fit.tau_star_residual < 1e-10


def test_einstein_fit_detects_non_fit(carrier_n2):
    # a Ricci-shaped tensor outside span{g, g_assoc, eta x eta}
    m = np.zeros((5, 5))
    m[1, 2] = m[2, 1] = 1.0
    fake_ricci = Tensor(carrier_n2.frame, m)
    fit = einstein_like_fit(fake_ricci, carrier_n2)
    assert fit.kind == "not_einstein_like"
    assert fit.residual > 0.1


def _fit_structure(name):
    if name == "example2(1.5,-2)":
        return build_example2(1.5, -2.0)[1]
    return flat_carrier_structure(int(name[-1]))


_FIT_STRUCTURES = ["carrier-n2", "carrier-n3", "example2(1.5,-2)"]


@pytest.mark.parametrize("structure", _FIT_STRUCTURES)
@pytest.mark.parametrize(
    "coeffs,kind",
    [
        ((2.0, 0.0, 0.0), "einstein"),
        ((0.5, 0.0, 3.0), "eta_einstein"),
        ((0.5, -1.25, 3.0), "einstein_like"),
        ((0.0, 1.0, 0.0), "einstein_like"),
    ],
)
def test_einstein_fit_recovers_its_coefficients_and_trace_consequences(structure, coeffs, kind):
    # tr(g^-1 g_assoc) = 1 and tr(g^-1 g_assoc phi) = -2n, so the trace
    # consequences tau = (2n+1)a + b + c and tau* = -2nb test the sign of b
    s = _fit_structure(structure)
    a, b, c = coeffs
    rho = a * s.g.matrix + b * s.g_assoc.matrix + c * s.eta_outer
    fit = einstein_like_fit(Tensor(s.frame, rho), s)
    assert fit.kind == kind
    assert (fit.a, fit.b, fit.c) == pytest.approx(coeffs, abs=1e-12)
    assert fit.tau_residual < 1e-12
    assert fit.tau_star_residual < 1e-12


@pytest.mark.parametrize("structure", _FIT_STRUCTURES)
def test_einstein_fit_of_a_single_entry_is_not_einstein_like(structure):
    s = _fit_structure(structure)
    rho = np.zeros((s.frame.dim, s.frame.dim))
    rho[1, 1] = 1.0
    assert einstein_like_fit(Tensor(s.frame, rho), s).kind == "not_einstein_like"


def test_vertical_scalar_is_frozen():
    k = VerticalScalar(1.0, 2.0)
    with pytest.raises(AttributeError):
        k.value = 3.0


def test_check_record():
    check = Check("x", 2e-9)
    assert (check.tol, check.note) == (DEFAULT_TOL, "")
    assert not check.passed
    measured = Check.measure("x", -1e-10, tol=1e-9, note="n")
    assert measured == Check("x", 1e-10, 1e-9, "n") and measured.passed
    assert measured.passes(2e-10) and not measured.passes(1e-10)
    assert check.passes(1e-8)
    assert type(measured.residual) is float
    with pytest.raises(AttributeError):
        check.residual = 0.0
