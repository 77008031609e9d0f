"""Shared fixtures and independent loop-based oracles.

The oracles recompute connection, curvature, and Lie derivatives with
plain Python loops straight from the defining formulas, no shared code
with the library's vectorized implementations. Slow but unambiguous.
"""

import numpy as np
import pytest

from accrgeo import Frame, LieAlgebra, build_example2, example2_state, flat_carrier_structure


@pytest.fixture(scope="session")
def ex2_origin():
    """Example 2 bundle at (p, q) = (0, 0)."""
    return example2_state(0.0, 0.0)


@pytest.fixture(scope="session")
def ex2_generic():
    """Example 2 bundle at a transformed point away from the origin."""
    return example2_state(1.5, -2.0)


@pytest.fixture(scope="session")
def ex2_structures():
    """A small (p, q) sample of built structures, origin included."""
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (2.0, 2.0), (-1.5, 0.5)]
    return [(p, q, *build_example2(p, q)) for p, q in points]


@pytest.fixture(scope="session")
def carrier_n2():
    return flat_carrier_structure(2)


def semidirect_constants(n):
    """c[k, i, j] of [e_0, e_a] = e_{n+a}, [e_0, e_{n+a}] = -e_a on dim 2n+1."""
    dim = 2 * n + 1
    c = np.zeros((dim, dim, dim))
    for a in range(1, n + 1):
        c[n + a, 0, a], c[n + a, a, 0] = 1.0, -1.0
        c[a, 0, n + a], c[a, n + a, 0] = -1.0, 1.0
    return c


@pytest.fixture(scope="session")
def semidirect_n4():
    """The semidirect algebra on the dim-9 flat carrier.

    Sasaki-like for every n, so every fundamental-tensor postcondition holds.
    """
    return LieAlgebra(Frame(9), semidirect_constants(4)), flat_carrier_structure(4)


# --- loop oracles ------------------------------------------------------------


def oracle_connection(c, g, g_inv):
    """Koszul formula, one scalar product at a time."""
    dim = g.shape[0]

    def bracket(i, j):
        return c[:, i, j]

    def ip(u, v):
        return float(u @ g @ v)

    basis = np.eye(dim)
    gamma = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            rhs = np.zeros(dim)
            for k in range(dim):
                val = (
                    ip(bracket(i, j), basis[k])
                    - ip(bracket(j, k), basis[i])
                    + ip(bracket(k, i), basis[j])
                )
                rhs[k] = 0.5 * val
            gamma[:, i, j] = g_inv @ rhs
    return gamma


def oracle_riemann_lowered(c, gamma, g):
    """R(x,y)z = D_x D_y z - D_y D_x z - D_[x,y] z, looped."""
    dim = g.shape[0]

    def D(i, v):
        out = np.zeros(dim)
        for j in range(dim):
            out += v[j] * gamma[:, i, j]
        return out

    basis = np.eye(dim)
    low = np.zeros((dim, dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                r = D(i, gamma[:, j, k]) - D(j, gamma[:, i, k]) - D_along(
                    c[:, i, j], basis[k], gamma
                )
                for l in range(dim):
                    low[i, j, k, l] = low[i, j, k, l] + float(r @ g @ basis[l])
    return low


def D_along(w, v, gamma):
    """Covariant derivative along an arbitrary frame vector w."""
    dim = len(w)
    out = np.zeros(dim)
    for i in range(dim):
        if w[i] != 0.0:
            for j in range(dim):
                out += w[i] * v[j] * gamma[:, i, j]
    return out


def oracle_ricci(low, g_inv):
    dim = g_inv.shape[0]
    rho = np.zeros((dim, dim))
    for j in range(dim):
        for k in range(dim):
            val = 0.0
            for i in range(dim):
                for l in range(dim):
                    val += g_inv[i, l] * low[i, j, k, l]
            rho[j, k] = val
    return rho


def oracle_lie_derivative(theta, gamma, g):
    """(L_theta g)(x, y) = g(D_x theta, y) + g(x, D_y theta) for a
    left-invariant theta; for theta = k xi with frame-dependent k the
    caller folds the scalar-derivative term in separately."""
    dim = g.shape[0]
    basis = np.eye(dim)
    out = np.zeros((dim, dim))
    for i in range(dim):
        di = D_along(basis[i], theta, gamma)
        for j in range(dim):
            dj = D_along(basis[j], theta, gamma)
            out[i, j] = float(di @ g @ basis[j]) + float(basis[i] @ g @ dj)
    return out


def oracle_fundamental_tensor(gamma, phi, g):
    """F(x, y, z) = g((D_x phi) y, z) with (D_x phi) y = D_x (phi y) - phi (D_x y)."""
    dim = g.shape[0]
    basis = np.eye(dim)
    f = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            d_phi_y = D_along(basis[i], phi @ basis[j], gamma) - phi @ D_along(
                basis[i], basis[j], gamma
            )
            for k in range(dim):
                f[i, j, k] = float(d_phi_y @ g @ basis[k])
    return f


def oracle_jacobiator(c):
    """jac[r, i, j, l]: e_r-component of [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j]."""
    dim = c.shape[0]
    basis = np.eye(dim)

    def bracket(u, v):
        out = np.zeros(dim)
        for a in range(dim):
            if u[a] != 0.0:
                for b in range(dim):
                    out += u[a] * v[b] * c[:, a, b]
        return out

    jac = np.zeros((dim,) * 4)
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                e_i, e_j, e_l = basis[i], basis[j], basis[l]
                jac[:, i, j, l] = (
                    bracket(bracket(e_i, e_j), e_l)
                    + bracket(bracket(e_j, e_l), e_i)
                    + bracket(bracket(e_l, e_i), e_j)
                )
    return jac
