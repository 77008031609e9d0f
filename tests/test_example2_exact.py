"""example2's expected values derived in exact arithmetic over Q(p, q).

The scenario compares its floating-point pipeline with closed forms: the
curvature table, rho = 4 eta (.) eta, tau = tau_assoc = 4, tau_star = 0,
the Lie derivatives along k xi for k = -2 t0, k' = -2, and the soliton
constants lam = 2(t0 - 2 beta), lam_assoc = -2(t0 + 2 beta). Here each of
them is derived a second way, with sympy, for symbolic p, q, t0 and beta:
the Koszul formula and the curvature from their definitions, the Lie
derivatives from brackets alone (no connection), and the constants by
solving the soliton equation itself. A closed form that holds here holds
for every real parameter, not only at grid points.
"""

import itertools

import numpy as np
import pytest
import sympy as sp

from accrgeo import Frame, build_example2, example2_expected_curvature

p, q, t0, beta = sp.symbols("p q t0 beta", real=True)
DIM = 5
# (i, k, value): [e_0, e_i] has e_k-component value, as the paper lists them
BRACKETS = (
    (1, 2, p), (1, 3, 1), (1, 4, q),
    (2, 1, -p), (2, 3, -q), (2, 4, 1),
    (3, 1, -1), (3, 2, -q), (3, 4, p),
    (4, 1, q), (4, 2, -1), (4, 3, -p),
)


def structure_constants():
    """c[k][i][j]: the e_k-component of [e_i, e_j]."""
    c = [[[sp.Integer(0)] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for i, k, value in BRACKETS:
        c[k][0][i] = sp.sympify(value)
        c[k][i][0] = -sp.sympify(value)
    return c


def exact(array) -> sp.Matrix:
    """A package array of small integers as an exact matrix."""
    array = np.asarray(array)
    assert np.array_equal(array, np.round(array))
    return sp.Matrix(array.astype(int).tolist())


def connection(c, g: sp.Matrix):
    """gamma[l][i][j], the e_l-component of D_i e_j, from the Koszul formula
    2 g(D_i e_j, e_k) = g([e_i, e_j], e_k) - g([e_j, e_k], e_i) + g([e_k, e_i], e_j)."""
    g_inv = g.inv()
    r = range(DIM)

    def lowered(i, j, k):  # g([e_i, e_j], e_k)
        return sum(c[m][i][j] * g[m, k] for m in r)

    koszul = {
        (i, j, k): (lowered(i, j, k) - lowered(j, k, i) + lowered(k, i, j)) / 2
        for i, j, k in itertools.product(r, repeat=3)
    }
    return [
        [[sp.expand(sum(g_inv[l, k] * koszul[i, j, k] for k in r)) for j in r] for i in r]
        for l in r
    ]


def curvature(c, g: sp.Matrix):
    """R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l) with
    R(x, y) z = D_x D_y z - D_y D_x z - D_[x,y] z."""
    gamma = connection(c, g)
    r = range(DIM)
    riemann = {}
    for i, j, k in itertools.product(r, repeat=3):
        # components of R(e_i, e_j) e_k
        vector = [
            sum(
                gamma[m][j][k] * gamma[u][i][m]
                - gamma[m][i][k] * gamma[u][j][m]
                - c[m][i][j] * gamma[u][m][k]
                for m in r
            )
            for u in r
        ]
        for l in r:
            riemann[i, j, k, l] = sp.expand(sum(vector[u] * g[u, l] for u in r))
    return riemann


def ricci(riemann, g: sp.Matrix) -> sp.Matrix:
    """rho_jk = g^il R_ijkl."""
    g_inv = g.inv()
    r = range(DIM)
    return sp.Matrix(
        DIM,
        DIM,
        lambda j, k: sp.expand(sum(g_inv[i, l] * riemann[i, j, k, l] for i in r for l in r)),
    )


def trace(form: sp.Matrix, g: sp.Matrix):
    """g^jk form_jk."""
    return sp.expand(sum((g.inv().multiply_elementwise(form))))


def lie_derivative(c, metric: sp.Matrix, eta: sp.Matrix, k, k_prime) -> sp.Matrix:
    """(L_{k xi} m)(e_i, e_j) for xi = e_0 and k constant on the contact
    distribution, from brackets alone:
    [k xi, e_i] = k [xi, e_i] - eta_i k' xi, and m is constant on the frame."""

    def bracket_with_theta(i):
        column = sp.Matrix([k * c[m][0][i] for m in range(DIM)])
        column[0] -= eta[i] * k_prime
        return column

    columns = [bracket_with_theta(i) for i in range(DIM)]
    return sp.Matrix(
        DIM,
        DIM,
        lambda i, j: sp.expand(
            -(columns[i].T * metric[:, j])[0] - (metric[i, :] * columns[j])[0]
        ),
    )


@pytest.fixture(scope="module")
def exact_example2():
    _, s = build_example2(0.0, 0.0)
    g, phi = exact(s.g.matrix), exact(s.phi.data)
    eta = exact(s.eta.data.reshape(1, DIM))
    eta_outer = eta.T * eta
    g_assoc = g * phi + eta_outer
    assert g_assoc == exact(s.g_assoc.matrix)
    c = structure_constants()
    riemann = curvature(c, g)
    rho = ricci(riemann, g)
    return {
        "c": c,
        "g": g,
        "g_assoc": g_assoc,
        "phi": phi,
        "eta": eta,
        "eta_outer": eta_outer,
        "riemann": riemann,
        "rho": rho,
        "rho_assoc": ricci(curvature(c, g_assoc), g_assoc),
    }


@pytest.mark.parametrize("point", [(0.0, 0.0), (1.5, -2.0), (-0.25, 3.0), (1e8, -0.0)])
def test_package_brackets_are_the_table(point):
    alg, _ = build_example2(*point)
    table = structure_constants()
    substitution = {p: sp.Float(point[0]), q: sp.Float(point[1])}
    for k, i, j in itertools.product(range(DIM), repeat=3):
        assert alg.c.data[k, i, j] == float(table[k][i][j].subs(substitution)), (k, i, j)


def test_curvature_table_for_every_p_and_q(exact_example2):
    riemann = exact_example2["riemann"]
    expected = example2_expected_curvature(Frame(DIM)).data
    nonzero = {index: value for index, value in riemann.items() if value != 0}
    assert len(nonzero) == 40
    assert all(value.free_symbols == set() for value in nonzero.values())
    for index, value in riemann.items():
        assert expected[index] == float(value), (index, value)


def test_ricci_form_and_scalar_curvatures(exact_example2):
    e = exact_example2
    rho, g, g_assoc = e["rho"], e["g"], e["g_assoc"]
    assert rho == 4 * e["eta_outer"]
    assert trace(rho, g) == 4
    # tau_star = g^jk rho(e_j, phi e_k)
    assert trace(rho * e["phi"], g) == 0
    assert trace(e["rho_assoc"], g_assoc) == 4


def test_family_lie_derivatives(exact_example2):
    e = exact_example2
    g, g_assoc, eta_outer = e["g"], e["g_assoc"], e["eta_outer"]
    k, k_prime = -2 * t0, -2
    lie_g = lie_derivative(e["c"], g, e["eta"], k, k_prime)
    lie_assoc = lie_derivative(e["c"], g_assoc, e["eta"], k, k_prime)
    assert sp.expand(lie_g - (4 * t0 * g_assoc - 4 * (t0 + 1) * eta_outer)) == sp.zeros(DIM)
    assert sp.expand(lie_assoc - (-4 * t0 * g + 4 * (t0 - 1) * eta_outer)) == sp.zeros(DIM)
    # h = 2 k' eta (.) eta
    assert 2 * k_prime * eta_outer == -4 * eta_outer


def test_soliton_constants_solve_the_equation(exact_example2):
    e = exact_example2
    g, g_assoc = e["g"], e["g_assoc"]
    lam, lam_assoc = sp.symbols("lam lam_assoc")
    lie_g = lie_derivative(e["c"], g, e["eta"], -2 * t0, -2)
    lie_assoc = lie_derivative(e["c"], g_assoc, e["eta"], -2 * t0, -2)
    tau, tau_assoc = trace(e["rho"], g), trace(e["rho_assoc"], g_assoc)
    lhs = (
        e["rho"]
        + (lie_g + lie_assoc) / 2
        + (lam + beta * tau) * g
        + (lam_assoc + beta * tau_assoc) * g_assoc
    )
    solutions = sp.solve(list(sp.expand(lhs)), [lam, lam_assoc], dict=True)
    assert len(solutions) == 1
    (solution,) = solutions
    assert sp.expand(solution[lam] - 2 * (t0 - 2 * beta)) == 0
    assert sp.expand(solution[lam_assoc] + 2 * (t0 + 2 * beta)) == 0
    assert sp.expand(lhs.subs(solution)) == sp.zeros(DIM)
