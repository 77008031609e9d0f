"""Connection, curvature, scalar invariants against loop oracles."""

import numpy as np
import pytest

from accrgeo import (
    Check,
    Connection,
    Frame,
    LieAlgebra,
    Tensor,
    analyze,
    build_example2,
    classify_sasaki_like,
    curvature_package,
    einstein_like_fit,
    example2_state,
    flat_carrier_structure,
    fundamental_tensor,
    geometry,
    invert_metric,
    levi_civita,
    phi_trace,
    reeb_derivative_residual,
    ricci,
    riemann,
    trace_g,
    validate_structure,
)
from accrgeo.errors import (
    AntisymmetryViolation,
    GeometryError,
    JacobiViolation,
    NotSymmetric,
    StructureViolation,
)
from accrgeo.geometry import _block_rows
from accrgeo.tensors import MetricPair, require

from conftest import (
    oracle_connection,
    oracle_fundamental_tensor,
    oracle_jacobiator,
    oracle_ricci,
    oracle_riemann_lowered,
    semidirect_constants,
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


def _full_jacobiator(c):
    """|[[e_i,e_j],e_l] + cyclic| as one (r, i, j, l) array: the unblocked formula."""
    d = c.shape[0]
    u = np.matmul(c.reshape(d, d * d).T, c).reshape((d,) * 4)
    return np.abs(u + u.transpose(0, 3, 1, 2) + u.transpose(0, 2, 3, 1))


@pytest.mark.parametrize(
    "n,defects,blocks",
    [
        # [e_3, e_5] = e_20: the residual 1 is reached at r = 4 and at r = 20,
        # with different triples
        (16, ((20, 3, 5, 1.0),), {4, 20}),
        # [e_7, e_9] = 2 e_30 as well: residual 2 at r = 14 and r = 30, and
        # the earlier block of r = 4 holds a smaller maximum
        (16, ((20, 3, 5, 1.0), (30, 7, 9, 2.0)), {14, 30}),
        # dim 17 runs in blocks of 6, 6 and 5 rows: [e_1, e_2] = 2 e_3 and
        # [e_3, e_4] = 2 e_16 give the residual 4 at r = 16 alone, in the
        # short last block, and 2 in each earlier block
        (8, ((3, 1, 2, 2.0), (16, 3, 4, 2.0)), {2}),
    ],
    ids=["tie-across-blocks", "larger-in-later-block", "dim17-short-last-block"],
)
def test_blocked_jacobi_matches_full_array(n, defects, blocks):
    # the semidirect algebra at dim 2n + 1 with extra brackets that break Jacobi
    c = semidirect_constants(n)
    d = c.shape[0]
    for k, i, j, value in defects:
        c[k, i, j], c[k, j, i] = value, -value
    jac = _full_jacobiator(c)
    residual = jac.max()
    worst = np.unravel_index(np.argmax(jac), jac.shape)
    maximal = np.argwhere(jac == residual)
    first_triple_by_r = {int(r): tuple(maximal[maximal[:, 0] == r][0][1:]) for r in maximal[:, 0]}
    # the maximum lies outside the first block of r, in the given blocks,
    # and the blocks name different triples
    rows = _block_rows(d)
    assert worst[0] >= rows
    assert {r // rows for r in first_triple_by_r} == blocks
    assert len(set(first_triple_by_r.values())) == len(blocks)
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(Frame(d), c)
    assert err.value.residual == residual
    assert err.value.triple == tuple(int(i) for i in worst[1:])


@pytest.mark.parametrize("d", [17, 33])
def test_jacobi_violation_names_the_first_maximum_across_blocks_of_rows(d):
    # the check runs in blocks of rows i. Two defects of residual 1:
    # [e_1, e_2] = e_3, [e_3, e_4] = e_(d-1) in the first block, at r = d - 1,
    # and [e_(d-5), e_(d-4)] = e_(d-3), [e_(d-3), e_(d-2)] = e_5 in the last,
    # at r = 5, which comes first in C order
    c = np.zeros((d,) * 3)
    for k, i, j in ((3, 1, 2), (d - 1, 3, 4), (d - 3, d - 5, d - 4), (5, d - 3, d - 2)):
        c[k, i, j], c[k, j, i] = 1.0, -1.0
    jac = _full_jacobiator(c)
    maximal = np.argwhere(jac == jac.max())
    assert jac.max() == 1.0 and tuple(maximal[0]) == (5, d - 5, d - 4, d - 2)
    assert (d - 5) // _block_rows(d) > 0 and min(maximal[:, 1]) == 1
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(Frame(d), c)
    assert err.value.residual == 1.0
    assert err.value.triple == (d - 5, d - 4, d - 2)


def _levi_civita_residuals(c, metric):
    """(torsion, metric compatibility) of the loop oracle's Koszul connection."""
    gamma = oracle_connection(c, metric.matrix, metric.inverse)
    torsion = gamma - np.swapaxes(gamma, 1, 2) - c
    lowered = np.einsum("lij,lk->ijk", gamma, metric.matrix)
    compat = lowered + np.swapaxes(lowered, 1, 2)
    return np.max(np.abs(torsion)), np.max(np.abs(compat))


def _levi_civita_corrupt_input(case):
    alg, s = build_example2(1.0, -2.0)
    frame, c = alg.frame, alg.c.data
    if case == "torsion":
        # the bracket loses its antisymmetry after validation: the Koszul
        # solution is then neither torsion-free nor metric
        broken = c.copy()
        broken[3, 1, 2] += 1.0
        alg = LieAlgebra(frame, c)
        object.__setattr__(alg, "c", Tensor(frame, broken))
        return alg, s.g
    if case == "torsion-only":
        # g paired with twice its inverse: the connection doubles, so it
        # stays metric but its torsion is 2c
        return alg, MetricPair(s.g.g, Tensor(frame, 2.0 * s.g.inverse))
    # case == "parallel": a non-symmetric g off the bracket image (row and
    # column 0 of the Heisenberg algebra) with its exact inverse
    g = flat_carrier_structure(2).g.matrix.copy()
    g[1, 3] = 1.0
    inverse = np.linalg.inv(g)
    assert np.array_equal(g @ inverse, np.eye(5))
    return _heisenberg(), MetricPair(Tensor(frame, g), Tensor(frame, inverse))


@pytest.mark.parametrize(
    "case,failing,message",
    [
        ("torsion", (True, True), "torsion is nonzero"),
        ("torsion-only", (True, False), "torsion is nonzero"),
        ("parallel", (False, True), "metric not parallel"),
    ],
    ids=["torsion", "torsion-only", "parallel"],
)
def test_levi_civita_postconditions_reject_corrupt_input(case, failing, message):
    # failing: whether (torsion, metric compatibility) fail on the input;
    # torsion is checked first
    alg, metric = _levi_civita_corrupt_input(case)
    residuals = _levi_civita_residuals(alg.c.data, metric)
    assert tuple(bool(r > 1e-9) for r in residuals) == failing
    with pytest.raises(GeometryError, match=f"Levi-Civita postcondition failed: {message}"):
        levi_civita(alg, metric)


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
    rho = ricci(conn, alg)
    expected = oracle_ricci(riem.data, s.g.inverse)
    assert np.max(np.abs(rho.data - expected)) < 1e-12


def _ricci_routes(alg, metric):
    """Ricci from the connection, and as the loop contraction g^il R_ijkl."""
    conn = levi_civita(alg, metric)
    contracted = oracle_ricci(riemann(conn, alg, metric).data, metric.inverse)
    return ricci(conn, alg).data, contracted


@pytest.mark.parametrize(
    "case", [(p, q) for p in (-2.0, 0.0, 1.5) for q in (-2.0, 0.0, 1.0)] + [1, 2, 3, 4]
)
def test_ricci_from_connection_equals_contraction_of_curvature(case):
    # example2 over a (p, q) grid, and the semidirect algebra at n = 1 .. 4
    if isinstance(case, int):
        alg = LieAlgebra(Frame(2 * case + 1), semidirect_constants(case))
        s = flat_carrier_structure(case)
    else:
        alg, s = build_example2(*case)
    for metric in (s.g, s.g_assoc):
        direct, contracted = _ricci_routes(alg, metric)
        assert np.max(np.abs(direct - contracted)) == 0.0


def _acting_on_ideal(n, action):
    """c[k, i, j] of the algebra on dim 2n+1 in which e_0 acts on the abelian
    ideal spanned by the other e_a as the matrix of action, a dict
    {a: {b: value}} for [e_0, e_a] = sum_b value e_b."""
    dim = 2 * n + 1
    c = np.zeros((dim, dim, dim))
    for a, images in action.items():
        for b, value in images.items():
            c[b, 0, a], c[b, a, 0] = value, -value
    return c


#: non-unimodular algebras (tr ad e_0 != 0), as (n, action of e_0): the
#: Bianchi class-B types on the dim-3 carrier, then one dim-5 member
NON_UNIMODULAR = {
    "III": (1, {1: {1: 1.0}}),
    "IV": (1, {1: {1: 1.0}, 2: {1: 1.0, 2: 1.0}}),
    "V": (1, {1: {1: 1.0}, 2: {2: 1.0}}),
    "VI_h=0.5": (1, {1: {1: 1.0}, 2: {2: 0.5}}),
    "VI_h=-3": (1, {1: {1: 1.0}, 2: {2: -3.0}}),
    "VII_h=0.5": (1, {1: {1: 0.5, 2: -1.0}, 2: {1: 1.0, 2: 0.5}}),
    "VII_h=2": (1, {1: {1: 2.0, 2: -1.0}, 2: {1: 1.0, 2: 2.0}}),
    "dim5": (2, {1: {1: 1.0}, 2: {3: 1.0}, 4: {4: 2.0}}),
}


@pytest.mark.parametrize("name", sorted(NON_UNIMODULAR))
def test_ricci_trace_term_on_non_unimodular_algebras(name):
    # example2 and the semidirect family are unimodular, so the term
    # sum_m tr[m] gamma[m, j, k] of ricci vanishes on them; here tr =
    # trace(gamma) is nonzero, and the direct Ricci is still the loop
    # contraction of R, for both metrics
    n, action = NON_UNIMODULAR[name]
    alg = LieAlgebra(Frame(2 * n + 1), _acting_on_ideal(n, action))
    s = flat_carrier_structure(n)
    for metric in (s.g, s.g_assoc):
        assert np.max(np.abs(np.trace(levi_civita(alg, metric).gamma.data))) >= 1.0
        direct, contracted = _ricci_routes(alg, metric)
        assert np.max(np.abs(direct - contracted)) == 0.0


def _unimodular_frame(seed, dim=5):
    """A seeded integer matrix A with det A = +-1, and its integer inverse."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.integers(-1, 2, (dim, dim)), -1) + np.eye(dim, dtype=int)
    upper = np.triu(rng.integers(-1, 2, (dim, dim)), 1) + np.eye(dim, dtype=int)
    a = (lower @ upper)[rng.permutation(dim)].astype(float)
    inverse = np.rint(np.linalg.inv(a))
    assert np.array_equal(a @ inverse, np.eye(dim))
    return a, inverse


@pytest.mark.parametrize("seed", range(8))
def test_ricci_routes_under_integer_unimodular_frames(seed):
    # in the frame f_a = A[i, a] e_i the brackets and both metrics of
    # example2 at (0, 0) stay integers, and rho = 4 eta (x) eta of either
    # metric becomes A^T (4 eta (x) eta) A exactly; both routes round, to
    # within 1e-10 of its largest entry, and the direct one no worse
    alg, s = build_example2(0.0, 0.0)
    a, inverse = _unimodular_frame(seed)
    c = np.einsum("ck,kij,ia,jb->cab", inverse, alg.c.data, a, a)
    moved = LieAlgebra(alg.frame, c)
    exact = a.T @ (4.0 * s.eta_outer) @ a
    bound = 1e-10 * np.max(np.abs(exact))
    for metric in (s.g, s.g_assoc):
        moved_metric = invert_metric(Tensor(alg.frame, a.T @ metric.matrix @ a))
        direct, contracted = _ricci_routes(moved, moved_metric)
        direct_error = np.max(np.abs(direct - exact))
        contracted_error = np.max(np.abs(contracted - exact))
        assert contracted_error < bound
        assert direct_error <= contracted_error


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
    rho = ricci(conn, alg)
    assert np.max(np.abs(rho.data - oracle_ricci(riem.data, metric.inverse))) < 1e-12


def _full_riemann(c, gamma, g):
    """R_ijkl as whole-array products, with no blocks."""
    d = g.shape[0]
    gl = (gamma.reshape(d, d * d).T @ g).reshape(d, d, d)
    inner = np.matmul(gamma.reshape(d, d * d).T, gl).reshape((d,) * 4)
    brackets = (c.reshape(d, d * d).T @ gl.reshape(d, d * d)).reshape((d,) * 4)
    return inner - inner.transpose(1, 0, 2, 3) - brackets


@pytest.mark.parametrize("n", [8, 16], ids=["dim17", "dim33"])
def test_dim33_curvature_matches_whole_array_products(n):
    # a dense metric makes every gamma entry live; riemann works in more
    # than one block of rows: 6, 6 and 5 rows at dim 17, one row at dim 33
    d = 2 * n + 1
    alg = LieAlgebra(Frame(d), semidirect_constants(n))
    metric = _dense_metric(flat_carrier_structure(n))
    assert _block_rows(d) < d
    conn = levi_civita(alg, metric)
    riem = riemann(conn, alg, metric)
    expected = _full_riemann(alg.c.data, conn.gamma.data, metric.matrix)
    assert np.max(np.abs(riem.data - expected)) < 1e-12


#: frame indices that e_0 .. e_4 of the Heisenberg cases take at each dim;
#: at dim 33 e_1 .. e_4 lie past the first block of rows, and e_1, e_2 keep
#: g = +1 and e_3, e_4 keep g = -1. At dim 17 (blocks of rows 0-5, 6-11 and
#: 12-16) e_1 lies in the first block, e_3 and e_4 in the second and e_2 in
#: the short last one; the curvature of the corrupt connections does not
#: depend on the signs of the diagonal g
_HEISENBERG_INDICES = {5: (0, 1, 2, 3, 4), 17: (0, 5, 12, 6, 11), 33: (0, 14, 15, 31, 32)}


def _heisenberg(defect=0.0, dim=5):
    """[e_1, e_2] = [e_3, e_4] = e_0; defect is added to c[0, 2, 1]."""
    e = _HEISENBERG_INDICES[dim]
    c = np.zeros((dim,) * 3)
    c[0, e[1], e[2]], c[0, e[2], e[1]] = 1.0, -1.0 + defect
    c[0, e[3], e[4]], c[0, e[4], e[3]] = 1.0, -1.0
    return LieAlgebra(Frame(dim), c)


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


def _form(*pairs, scale=1.0, dim=5):
    """Bilinear form with entries (k, l, value) on the Heisenberg cases' e_0 .. e_4."""
    e = _HEISENBERG_INDICES[dim]
    b = np.zeros((dim, dim))
    for k, l, value in pairs:
        b[e[k], e[l]] += scale * value
    return b


_OMEGA = ((1, 2, 1.0), (2, 1, -1.0), (3, 4, 1.0), (4, 3, -1.0))

_CORRUPT_CONNECTIONS = pytest.mark.parametrize(
    "failing,pairs,scale,bracket_defect",
    [
        # the bracket is antisymmetric only to LINALG_TOL, and a huge
        # connection amplifies that defect past DEFAULT_TOL
        (0, _OMEGA, 1e4, 5e-13),
        # a symmetric D_0: not metric, so R is not skew in (k, l)
        (1, ((1, 1, 1.0),), 1.0, 0.0),
        # a skew D_0 that is not the bracket form: R = -omega (x) sigma
        (2, ((1, 3, 1.0), (3, 1, -1.0)), 1.0, 0.0),
        # D_0 = the bracket form omega: R = -omega (x) omega has every pair
        # symmetry, but omega ^ omega != 0 breaks the first Bianchi identity
        (3, _OMEGA, 1.0, 0.0),
        # D_0 = e^34, half of omega: R = -omega (x) e^34 fails the pair swap
        # only where one pair is (1, 2) and the other (3, 4), never at k = i
        (2, ((3, 4, 1.0), (4, 3, -1.0)), 1.0, 0.0),
    ],
    ids=["ij-antisymmetry", "kl-antisymmetry", "pair-swap", "bianchi", "pair-swap-across"],
)


def _assert_corrupt_connection_rejected(monkeypatch, dim, failing, pairs, scale, bracket_defect):
    # Heisenberg algebra and a connection whose only nonzero derivative is
    # g(D_0 e_k, e_l) = b0[k, l]. D_i D_j = 0 unless i = j = 0, so
    # R_ijkl = -omega_ij b0[k, l] with omega = e^12 + e^34 = c[0].
    alg = _heisenberg(bracket_defect, dim)
    frame, c = alg.frame, alg.c.data
    metric = flat_carrier_structure(dim // 2).g
    b0 = _form(*pairs, scale=scale, dim=dim)
    gamma = np.zeros((dim,) * 3)
    gamma[:, 0, :] = metric.inverse @ b0.T
    conn = Connection(frame, Tensor(frame, gamma))
    lowered = -np.multiply.outer(c[0], b0)
    if dim == 5:
        assert np.max(np.abs(lowered - oracle_riemann_lowered(c, gamma, metric.matrix))) < 1e-12

    # the checks before the named one hold and the named one fails; all
    # four raise the same message
    residuals = _symmetry_residuals(lowered)
    assert all(r < 1e-9 for r in residuals[:failing])
    assert residuals[failing] > 1e-9
    checks = []

    def counted(residual, message, *args):
        checks.append(message)
        return require(residual, message, *args)

    monkeypatch.setattr(geometry, "require", counted)
    with pytest.raises(GeometryError, match="curvature symmetry postcondition failed"):
        riemann(conn, alg, metric)
    # riemann runs the four checks in order, block after block, so the named
    # check raised: a later one would also fail on some of these defects
    assert (len(checks) - 1) % 4 == failing


@_CORRUPT_CONNECTIONS
def test_curvature_postconditions_reject_corrupt_connection(
    monkeypatch, failing, pairs, scale, bracket_defect
):
    _assert_corrupt_connection_rejected(monkeypatch, 5, failing, pairs, scale, bracket_defect)


@_CORRUPT_CONNECTIONS
def test_curvature_postconditions_reject_corrupt_connection_past_first_block(
    monkeypatch, failing, pairs, scale, bracket_defect
):
    # at dim 33 riemann works in more than one block of rows, and every
    # nonzero row of R lies outside the first
    assert _block_rows(33) <= min(_HEISENBERG_INDICES[33][1:])
    _assert_corrupt_connection_rejected(monkeypatch, 33, failing, pairs, scale, bracket_defect)


@_CORRUPT_CONNECTIONS
def test_curvature_postconditions_reject_corrupt_connection_across_blocks(
    monkeypatch, failing, pairs, scale, bracket_defect
):
    # each block of rows i reads j >= its first row for the (i, j) check,
    # k >= it for the pair swap and j, k >= it for Bianchi. Every failing
    # entry of the ij-antisymmetry, bianchi and pair-swap-across cases pairs
    # rows of different blocks, and the short last block holds a row of
    # every ij-antisymmetry entry and of some of the others
    assert [r // _block_rows(17) for r in _HEISENBERG_INDICES[17]] == [0, 0, 2, 1, 1]
    _assert_corrupt_connection_rejected(monkeypatch, 17, failing, pairs, scale, bracket_defect)


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


@pytest.mark.parametrize(
    "layer,error,marker",
    [
        ("invert_metric", NotSymmetric, "metric asymmetry"),
        ("validate_structure", StructureViolation, "phi(xi) = 0"),
        ("LieAlgebra", AntisymmetryViolation, "c[k,i,j] + c[k,j,i]"),
        ("LieAlgebra", JacobiViolation, "Jacobi identity"),
        ("levi_civita", GeometryError, "metric not parallel"),
        ("riemann", GeometryError, "curvature symmetry"),
        ("CurvaturePackage.riemann", GeometryError, "curvature symmetry"),
        ("ricci", GeometryError, "Ricci postcondition"),
        ("fundamental_tensor", GeometryError, "phi-recomposition"),
    ],
)
def test_every_postcondition_is_judged_by_check_passes(monkeypatch, layer, error, marker):
    # Check.passes rejects the checks named after the marker, and only the
    # layer that states that postcondition raises, with its own error
    a = example2_state(1.0, 0.5)
    s, conn, metric = a.s, a.pkg.conn, a.s.g
    calls = {
        "invert_metric": lambda: invert_metric(metric.g),
        "validate_structure": lambda: validate_structure(s.phi, s.xi, s.eta, metric.g, s.frame),
        "LieAlgebra": lambda: LieAlgebra(s.frame, a.alg.c),
        "levi_civita": lambda: levi_civita(a.alg, metric),
        "riemann": lambda: riemann(conn, a.alg, metric),
        # a new package, whose curvature tensor is built when it is read
        "CurvaturePackage.riemann": lambda: curvature_package(a.alg, metric, s.phi).riemann,
        "ricci": lambda: ricci(conn, a.alg),
        "fundamental_tensor": lambda: fundamental_tensor(conn, s),
    }
    calls[layer]()
    monkeypatch.setattr(Check, "passes", lambda self, tol=None: marker not in self.name)
    with pytest.raises(error) as err:
        calls[layer]()
    assert type(err.value) is error
    if error is not JacobiViolation:
        assert marker in str(err.value)


def _stack_cases():
    """(constants, structure) of the stacks the stacked analysis is checked on:
    example2's default grid, semidirect n = 1..4 (one algebra each) and
    example2 at (0, 0) in a dense integer frame of determinant 1."""
    grid = [(p, q) for p in range(-2, 3) for q in range(-2, 3)]
    cases = [([build_example2(float(p), float(q))[0].c.data for p, q in grid], flat_carrier_structure(2))]
    cases += [([semidirect_constants(n)], flat_carrier_structure(n)) for n in range(1, 5)]
    frame = np.array([[min(i, j) + 1.0 for j in range(5)] for i in range(5)])
    inverse = np.rint(np.linalg.inv(frame))
    carrier = flat_carrier_structure(2)
    moved = validate_structure(
        inverse @ carrier.phi.data @ frame,
        inverse @ carrier.xi.data,
        carrier.eta.data @ frame,
        frame.T @ carrier.g.matrix @ frame,
        Frame(5),
    )
    c = build_example2(0.0, 0.0)[0].c.data
    cases.append(([np.einsum("Kk,kij,iI,jJ->KIJ", inverse, c, frame, frame)], moved))
    return cases


@pytest.mark.parametrize("case", range(6), ids=["example2-grid", "n1", "n2", "n3", "n4", "dense"])
def test_stacked_analysis_equals_each_algebra_bytewise(case):
    from conftest import analyze_stack

    constants, s = _stack_cases()[case]
    stack = analyze_stack(constants, s)
    for a, c in enumerate(constants):
        single = analyze(LieAlgebra(s.frame, c), s)
        for got, want in (
            (stack.pkg.conn.gamma.data[a], single.pkg.conn.gamma.data),
            (stack.pkg.ricci.data[a], single.pkg.ricci.data),
            (stack.pkg.riemann.data[a], single.pkg.riemann.data),
            (stack.assoc_pkg.ricci.data[a], single.assoc_pkg.ricci.data),
            (stack.fund.data[a], single.fund.data),
        ):
            assert got.tobytes() == want.tobytes()
        scalars = (stack.pkg.tau, stack.pkg.tau_star, stack.assoc_pkg.tau, stack.assoc_pkg.tau_star)
        assert [float(v[a]) for v in scalars] == [
            single.pkg.tau, single.pkg.tau_star, single.assoc_pkg.tau, single.assoc_pkg.tau_star
        ]
        assert float(stack.classification.residual[a]) == single.classification.residual
        assert bool(stack.classification.is_sasaki_like[a]) is single.classification.is_sasaki_like
        fit, one = einstein_like_fit(stack.pkg.ricci, s), einstein_like_fit(single.pkg.ricci, s)
        assert [float(fit.a[a]), float(fit.b[a]), float(fit.c[a]), float(fit.residual[a])] == [
            one.a, one.b, one.c, one.residual
        ]
        assert str(fit.kind[a]) == one.kind


@pytest.mark.parametrize(
    "defect,error",
    [("antisymmetry", AntisymmetryViolation), ("jacobi", JacobiViolation)],
)
def test_stack_with_one_corrupt_algebra_raises_as_that_algebra_alone(defect, error):
    from conftest import analyze_stack

    constants = [build_example2(float(p), 0.5)[0].c.data.copy() for p in range(-2, 3)]
    bad = constants[3]
    if defect == "antisymmetry":
        bad[2, 0, 1] += 1e-6
    else:
        bad[1, 2, 3], bad[1, 3, 2] = 0.7, -0.7
    s = flat_carrier_structure(2)
    with pytest.raises(error) as alone:
        LieAlgebra(s.frame, bad)
    with pytest.raises(error) as stacked:
        analyze_stack(constants, s)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)
