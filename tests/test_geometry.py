"""Connection, curvature, scalar invariants against loop oracles."""

import numpy as np
import pytest

from accrgeo import (
    Connection,
    Frame,
    LieAlgebra,
    Tensor,
    analyze,
    build_example2,
    classify_sasaki_like,
    curvature_package,
    example2_state,
    flat_carrier_structure,
    fundamental_tensor,
    invert_metric,
    levi_civita,
    phi_trace,
    reeb_derivative_residual,
    ricci,
    riemann,
    trace_g,
)
from accrgeo.errors import AntisymmetryViolation, GeometryError, JacobiViolation

from conftest import (
    oracle_connection,
    oracle_fundamental_tensor,
    oracle_jacobiator,
    oracle_ricci,
    oracle_riemann_lowered,
)


def test_antisymmetry_enforced():
    f = Frame(3)
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0  # missing the mirror entry
    with pytest.raises(AntisymmetryViolation):
        LieAlgebra(f, c)


def test_jacobi_violation_names_worst_triple():
    f = Frame(5)
    alg0, _ = build_example2(1.0, -2.0)
    c = alg0.c.data.copy()
    c[3, 1, 2] = 1.0
    c[3, 2, 1] = -1.0
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(f, c)
    assert err.value.residual == 2.0
    assert err.value.triple == (0, 1, 2)
    assert all(isinstance(i, int) for i in err.value.triple)


def test_jacobi_residual_matches_loop_oracle():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((9, 9, 9))
    c = c - np.swapaxes(c, 1, 2)
    expected = oracle_jacobiator(c)
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(Frame(9), c)
    worst = np.max(np.abs(expected))
    assert err.value.residual == pytest.approx(worst, rel=1e-12)
    # the Jacobiator is alternating in (i, j, l), so rounding may pick any
    # ordering of the worst triple
    flat = np.argmax(np.abs(expected))
    assert sorted(err.value.triple) == sorted(np.unravel_index(flat, expected.shape)[1:])


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (1.0, 0.5), (-2.0, 2.0)])
def test_connection_matches_koszul_oracle(p, q):
    alg, s = build_example2(p, q)
    conn = levi_civita(alg, s.g)
    expected = oracle_connection(alg.c.data, s.g.matrix, s.g.inverse)
    assert np.max(np.abs(conn.gamma.data - expected)) < 1e-12


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (1.0, 0.5), (-2.0, 2.0)])
def test_riemann_matches_loop_oracle(p, q):
    alg, s = build_example2(p, q)
    conn = levi_civita(alg, s.g)
    riem = riemann(conn, alg, s.g)
    expected = oracle_riemann_lowered(alg.c.data, conn.gamma.data, s.g.matrix)
    assert np.max(np.abs(riem.data - expected)) < 1e-12


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (1.0, 0.5)])
def test_ricci_matches_loop_oracle(p, q):
    alg, s = build_example2(p, q)
    conn = levi_civita(alg, s.g)
    riem = riemann(conn, alg, s.g)
    rho = ricci(riem, s.g)
    expected = oracle_ricci(riem.data, s.g.inverse)
    assert np.max(np.abs(rho.data - expected)) < 1e-12


def _dense_metric(s):
    """A seeded dense perturbation of the structure's metric: every gamma entry is live."""
    m = np.random.default_rng(3).standard_normal((s.frame.dim,) * 2)
    return invert_metric(Tensor(s.frame, s.g.matrix + 0.3 * (m + m.T)))


@pytest.mark.parametrize("dense", [False, True], ids=["carrier", "dense"])
def test_dim9_curvature_matches_loop_oracles(semidirect_n4, dense):
    alg, s = semidirect_n4
    metric = _dense_metric(s) if dense else s.g
    conn = levi_civita(alg, metric)
    gamma = conn.gamma.data
    assert np.max(np.abs(gamma - oracle_connection(alg.c.data, metric.matrix, metric.inverse))) < 1e-12
    riem = riemann(conn, alg, metric)
    expected = oracle_riemann_lowered(alg.c.data, gamma, metric.matrix)
    assert np.max(np.abs(riem.data - expected)) < 1e-12
    rho = ricci(riem, metric)
    assert np.max(np.abs(rho.data - oracle_ricci(riem.data, metric.inverse))) < 1e-12


def _heisenberg(defect=0.0):
    """[e_1, e_2] = [e_3, e_4] = e_0; defect is added to c[0, 2, 1]."""
    c = np.zeros((5, 5, 5))
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0 + defect
    c[0, 3, 4], c[0, 4, 3] = 1.0, -1.0
    return LieAlgebra(Frame(5), c)


@pytest.mark.parametrize("case", [(0.0, 0.0), (1.0, 0.5), (-2.0, 2.0), "dim9", "heisenberg"])
def test_fundamental_tensor_matches_loop_oracle(semidirect_n4, carrier_n2, case):
    # on the Heisenberg algebra F(x, phi y, phi z) != 0, so the
    # phi-recomposition postcondition is exercised with a nonzero term
    if case == "dim9":
        alg, s = semidirect_n4
    elif case == "heisenberg":
        alg, s = _heisenberg(), carrier_n2
    else:
        alg, s = build_example2(*case)
    conn = levi_civita(alg, s.g)
    expected = oracle_fundamental_tensor(conn.gamma.data, s.phi.data, s.g.matrix)
    fund = fundamental_tensor(conn, s)
    assert np.max(np.abs(fund.data - expected)) < 1e-12
    assert classify_sasaki_like(fund, s).is_sasaki_like == (case != "heisenberg")


def _symmetry_residuals(r):
    """The four curvature postconditions of riemann, in the order it checks them."""
    return [
        np.max(np.abs(r + np.transpose(r, (1, 0, 2, 3)))),
        np.max(np.abs(r + np.transpose(r, (0, 1, 3, 2)))),
        np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1)))),
        np.max(np.abs(r + np.transpose(r, (2, 0, 1, 3)) + np.transpose(r, (1, 2, 0, 3)))),
    ]


def _form(*pairs, scale=1.0):
    """Bilinear form on R^5 with entries (k, l, value), skew pairs listed once."""
    b = np.zeros((5, 5))
    for k, l, value in pairs:
        b[k, l] += scale * value
    return b


@pytest.mark.parametrize(
    "failing,b0,bracket_defect",
    [
        # the bracket is antisymmetric only to LINALG_TOL, and a huge
        # connection amplifies that defect past DEFAULT_TOL
        (0, _form((1, 2, 1.0), (2, 1, -1.0), (3, 4, 1.0), (4, 3, -1.0), scale=1e4), 5e-13),
        # a symmetric D_0: not metric, so R is not skew in (k, l)
        (1, _form((1, 1, 1.0)), 0.0),
        # a skew D_0 that is not the bracket form: R = -omega (x) sigma
        (2, _form((1, 3, 1.0), (3, 1, -1.0)), 0.0),
        # D_0 = the bracket form omega: R = -omega (x) omega has every pair
        # symmetry, but omega ^ omega != 0 breaks the first Bianchi identity
        (3, _form((1, 2, 1.0), (2, 1, -1.0), (3, 4, 1.0), (4, 3, -1.0)), 0.0),
    ],
    ids=["ij-antisymmetry", "kl-antisymmetry", "pair-swap", "bianchi"],
)
def test_curvature_postconditions_reject_corrupt_connection(carrier_n2, failing, b0, bracket_defect):
    # Heisenberg algebra and a connection whose only nonzero derivative is
    # g(D_0 e_k, e_l) = b0[k, l]. D_i D_j = 0 unless i = j = 0, so
    # R_ijkl = -omega_ij b0[k, l] with omega = e^12 + e^34.
    alg = _heisenberg(bracket_defect)
    frame, c = alg.frame, alg.c.data
    metric = carrier_n2.g
    gamma = np.zeros((5, 5, 5))
    gamma[:, 0, :] = metric.inverse @ b0.T
    conn = Connection(frame, Tensor(frame, gamma))

    # every check before the named one holds, so the named check is the one
    # that raises
    residuals = _symmetry_residuals(oracle_riemann_lowered(c, gamma, metric.matrix))
    assert all(r < 1e-9 for r in residuals[:failing])
    assert residuals[failing] > 1e-9
    with pytest.raises(GeometryError, match="curvature symmetry postcondition failed"):
        riemann(conn, alg, metric)


def test_curvature_symmetries(ex2_generic):
    _, _, pkg, _, _, _ = ex2_generic
    r = pkg.riemann.data
    assert np.max(np.abs(r + np.swapaxes(r, 0, 1))) < 1e-12
    assert np.max(np.abs(r + np.swapaxes(r, 2, 3))) < 1e-12
    assert np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1)))) < 1e-12
    bianchi = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
    assert np.max(np.abs(bianchi)) < 1e-12


def test_curvature_independent_of_parameters():
    # verified numerically, not assumed: the lowered curvature of the
    # family is the same tensor at every (p, q)
    base = example2_state(0.0, 0.0)[2].riemann.data
    for p, q in [(2.0, -2.0), (-1.0, 1.0), (0.5, 0.25)]:
        r = example2_state(p, q)[2].riemann.data
        assert np.max(np.abs(r - base)) < 1e-12


def test_scalar_invariants(ex2_origin):
    _, s, pkg, _, _, assoc_pkg = ex2_origin
    assert pkg.tau == pytest.approx(4.0, abs=1e-12)
    assert pkg.tau_star == pytest.approx(0.0, abs=1e-12)
    assert assoc_pkg.tau == pytest.approx(4.0, abs=1e-12)
    assert pkg.tau == trace_g(pkg.ricci, s.g)
    assert pkg.tau_star == phi_trace(pkg.ricci, s.g, s.phi)


def test_tau_tilde_two_routes(ex2_generic):
    # the associated metric's own pipeline against tau_tilde = 2n - tau_star
    alg, s = ex2_generic[0], ex2_generic[1]
    _, _, pkg, _, classification, assoc_pkg = analyze(alg, s)
    assert classification.is_sasaki_like
    assert abs(assoc_pkg.tau - (2.0 * s.n - pkg.tau_star)) < 1e-10


def test_fundamental_tensor_symmetry(ex2_generic):
    _, s, pkg, fund, _, _ = ex2_generic
    f = fund.data
    # symmetric in the last two slots
    assert np.max(np.abs(f - np.swapaxes(f, 1, 2))) < 1e-9


def test_classification_positive(ex2_structures):
    for _, _, alg, s in ex2_structures:
        pkg = curvature_package(alg, s.g, s.phi)
        fund = fundamental_tensor(pkg.conn, s)
        res = classify_sasaki_like(fund, s, conn=pkg.conn, ricci_tensor=pkg.ricci)
        assert res.is_sasaki_like
        assert res.residual < 1e-9


def test_classification_negative_on_abelian():
    # abelian algebra: flat connection, F = 0, but the defining right side
    # is nonzero, so the class test must fail cleanly
    f = Frame(5)
    alg = LieAlgebra(f, np.zeros((5, 5, 5)))
    s = flat_carrier_structure(2)
    pkg = curvature_package(alg, s.g, s.phi)
    fund = fundamental_tensor(pkg.conn, s)
    res = classify_sasaki_like(fund, s)
    assert not res.is_sasaki_like
    assert res.residual == pytest.approx(1.0)


def test_reeb_derivative_is_minus_phi(ex2_structures):
    for _, _, alg, s in ex2_structures:
        conn = levi_civita(alg, s.g)
        assert reeb_derivative_residual(conn, s) < 1e-9
        conn_assoc = levi_civita(alg, s.g_assoc)
        assert reeb_derivative_residual(conn_assoc, s) < 1e-9


def test_ricci_reeb_line(ex2_structures):
    for _, _, alg, s in ex2_structures:
        pkg = curvature_package(alg, s.g, s.phi)
        line = pkg.ricci.data @ s.xi.data - 2.0 * s.n * s.eta.data
        assert np.max(np.abs(line)) < 1e-9
