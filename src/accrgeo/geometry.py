"""Left-invariant pseudo-Riemannian geometry from structure constants.

On a Lie group with left-invariant frame and metric, all metric
coefficients are constant, so the Levi-Civita connection collapses to the
algebraic Koszul formula

    2 g(D_i e_j, e_k) = g([e_i, e_j], e_k) - g([e_j, e_k], e_i) + g([e_k, e_i], e_j)

with D_i short for the covariant derivative along e_i. Curvature follows
the convention

    R(x, y)z = D_x D_y z - D_y D_x z - D_[x,y] z
    R_ijkl   = g(R(e_i, e_j) e_k, e_l)
    rho_jk   = g^il R_ijkl, the trace of x -> R(x, e_j) e_k
    tau      = g^jk rho_jk
    tau_star = g^jk rho(e_j, phi e_k)

The sign conventions are fixed once here and everything downstream
(scalar curvatures, classification, soliton checks) inherits them.

Structure constants are stored as c[k, i, j], the e_k-component of
[e_i, e_j].

analyze(alg, s) is the one pipeline every report starts from: the
curvature of g, the fundamental tensor F, the Sasaki-like classification
and the curvature of the associated metric, returned as an Analysis.
Scenarios, definition files and sweeps all go through it. alg may be a
stack of algebras on one structure (its constants a stacked Tensor
c[a, k, i, j]): every kernel below is one batched expression over the
stack, each postcondition judges the whole stack, and every field of the
Analysis is stacked (its scalars arrays over the stack). The kernels index
from the last axis, so one algebra runs the same expressions with no
leading axis at all (an extra axis costs numpy time on every call at dim
5), and raises the same messages.

Every contraction (the Jacobi identity, the Koszul formula, Ricci, the
curvature tensor and the fundamental tensor) runs as reshapes plus matrix
products, so BLAS does the work; they are meant for dim up to about 33.
Ricci is summed from the connection, and the curvature tensor, the only
dim^4 array a call builds, only when CurvaturePackage.riemann is read. The
Jacobiator, the antisymmetrization and bracket term of the curvature, and
its four symmetry checks run in blocks of rows of the first index that
stay in cache. A block of rows i reads only the index range that holds
every value of its residual: the Jacobiator ad_[e_i,e_j] - [ad_i, ad_j] is
alternating in (i, j, l), so it takes j >= the block's first row, and so
do the (i, j)-antisymmetry (j), the pair swap (k) and the cyclic Bianchi
sum (j and k); the (k, l)-antisymmetry reads the block alone. Each check
still reads R itself: none is derived from another, and no half of R is
mirrored. At dim 33 (9.5 MB per dim^4 float64 array) `soliton --input
--solve` peaks at about 0.3 such arrays and `inspect --input` at 1.2
(tracemalloc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    AntisymmetryViolation,
    GeometryError,
    JacobiViolation,
)
from .structure import AccRStructure
from .tensors import (
    LINALG_TOL,
    Check,
    Frame,
    MetricPair,
    Tensor,
    as_tensor,
    phi_trace,
    require,
    trace_g,
)


_SQRT_FLOAT_MAX = float(np.finfo(np.float64).max) ** 0.5


#: float64 entries in one block of a blocked dim^4 computation (256 KiB), so
#: that a block of rows of the first index stays in a core's cache: one row
#: at dim 33, a single block at dim 9 and below
_BLOCK_ENTRIES = 1 << 15


def _block_rows(d: int) -> int:
    """Rows of the first index per block of a (d, d, d, d) array."""
    return max(1, _BLOCK_ENTRIES // d**3)


def _scratch(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of the flat buffer buf, as a C-contiguous array of shape."""
    return buf[: math.prod(shape)].reshape(shape)


def _jacobiator_rows(c, ad, pairs, i0, i1, j0, bufs) -> np.ndarray:
    """|J[..., i, j, r, l]| for i0 <= i < i1 and j >= j0, in the first of the
    three flat buffers bufs. J = ad_[e_i,e_j] - [ad_i, ad_j], so J[i, j, r, l]
    is the e_r-component of [[e_i,e_j],e_l] + cyclic; ad[..., i, r, l] =
    c[..., r, i, l] and pairs[..., i, j, m] = c[..., m, i, j]."""
    lead, d = c.shape[:-3], c.shape[-1]
    b, tail = i1 - i0, d - j0
    rows = ad[..., i0:i1, :, :]
    jac = _scratch(bufs[0], *lead, b, tail, d, d)
    flat_ad = ad.reshape(lead + (1, d, d * d))
    np.matmul(pairs[..., i0:i1, j0:, :], flat_ad, out=jac.reshape(lead + (b, tail, d * d)))
    # ad_i ad_j, indexed (i, r, j, l), and ad_j ad_i, indexed (i, j, r, l)
    ij = _scratch(bufs[1], *lead, b, d, tail, d)
    tail_c = c.reshape(lead + (1, d, d * d))[..., j0 * d :]
    np.matmul(rows, tail_c, out=ij.reshape(lead + (b, d, tail * d)))
    ji = _scratch(bufs[2], *lead, b, tail, d, d)
    tail_ad = ad[..., j0:, :, :].reshape(lead + (1, tail * d, d))
    np.matmul(tail_ad, rows, out=ji.reshape(lead + (b, tail * d, d)))
    jac -= ij.swapaxes(-3, -2)
    jac += ji
    return np.abs(jac, out=jac)


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants of a Lie algebra over a frame, or, with c
    stacked, of a stack of algebras on the frame.

    Antisymmetry in the bracket pair is required exactly (to 1e-12) and
    the Jacobi identity to 1e-9, of every algebra of a stack; both are hard
    errors, since curvature on top of a non-algebra is meaningless.
    """

    frame: Frame
    c: Tensor

    def __post_init__(self):
        object.__setattr__(self, "c", as_tensor(self.c, self.frame, 3))
        arr = self.c.data
        d = self.frame.dim
        # the Jacobi identity, curvature and Ricci sum products of two
        # constants (or of connection coefficients of their size) over dim
        # terms at a time; with |c| below sqrt(float max) / dim^3 these sums,
        # and the metric factors between them, stay inside float64
        largest, limit = float(np.max(np.abs(arr))), _SQRT_FLOAT_MAX / d**3
        if not largest <= limit:
            raise GeometryError(
                f"structure constants too large: max |c[k,i,j]| = {largest:.3e} "
                f"exceeds {limit:.3e}, past which products overflow float64 at dim {d}"
            )
        require(
            arr + arr.swapaxes(-2, -1),
            "c[k,i,j] + c[k,j,i] has residual {residual:.3e}",
            LINALG_TOL,
            AntisymmetryViolation,
        )
        # the Jacobiator runs in blocks of rows i, so no dim^4 array is
        # built; it is alternating in (i, j, l), so every value has its
        # smallest index in some block's rows i with j >= the block's first
        ad = np.ascontiguousarray(arr.swapaxes(-3, -2))
        pairs = np.ascontiguousarray(ad.swapaxes(-2, -1))
        rows = _block_rows(d)
        bufs = np.empty((3, math.prod(arr.shape[:-3]) * min(rows, d) * d**3))
        blocks = [(i0, min(i0 + rows, d)) for i0 in range(0, d, rows)]
        residual = max(
            float(_jacobiator_rows(arr, ad, pairs, i0, i1, i0, bufs).max()) for i0, i1 in blocks
        )
        if not Check("Jacobi identity", residual).passed:
            # one more pass over every j names the first maximal (a, r, i, j,
            # l) in C order, a over the stack: each block's first, then the
            # largest and first of those, which is an algebra's own when it
            # alone fails
            found = []
            for i0, i1 in blocks:
                jac = _jacobiator_rows(arr, ad, pairs, i0, i1, 0, bufs)
                jac = jac.reshape((-1,) + jac.shape[-4:]).transpose(0, 3, 1, 2, 4)
                a, r, i, j, l = map(int, np.unravel_index(np.argmax(jac), jac.shape))
                found.append((-float(jac[a, r, i, j, l]), (a, r, i0 + i, j, l)))
            residual, worst = min(found)
            raise JacobiViolation(-residual, worst[2:])


@dataclass(frozen=True)
class Connection:
    """Levi-Civita coefficients gamma[l, i, j]: the e_l-component of D_i e_j;
    stacked, one connection per algebra of a stack."""

    frame: Frame
    gamma: Tensor

    def derivative_of_field(self, v: np.ndarray) -> np.ndarray:
        """Matrix d[l, i] of components of D_i v for a constant field v,
        stacked as gamma is."""
        return np.einsum("...lij,j->...li", self.gamma.data, np.asarray(v, dtype=float))


@dataclass(frozen=True)
class CurvaturePackage:
    """Connection, Ricci and both scalar traces for one metric, and the
    curvature tensor when it is read; of a stack of algebras, each field is
    stacked, the traces arrays over the stack."""

    alg: LieAlgebra
    metric: MetricPair
    conn: Connection
    ricci: Tensor
    tau: float
    tau_star: float

    @cached_property
    def riemann(self) -> Tensor:
        """R_ijkl, a dim^4 array, built and checked on the first read."""
        return riemann(self.conn, self.alg, self.metric)


@dataclass(frozen=True)
class SasakiLikeResult:
    """Outcome of testing F against the Sasaki-like closed form: a bool and
    a float, or arrays over a stack."""

    is_sasaki_like: bool
    residual: float


def levi_civita(alg: LieAlgebra, metric: MetricPair) -> Connection:
    """Solve the Koszul formula for the connection coefficients.

    Zero torsion and metric compatibility are consequences of the formula;
    they are re-verified here as a guard against convention drift.
    """
    c = alg.c.data
    g = metric.matrix
    lead, d = c.shape[:-3], g.shape[0]
    # a[..., i,j,k] = g([e_i, e_j], e_k)
    a = (c.reshape(lead + (d, d * d)).swapaxes(-1, -2) @ g).reshape(c.shape)
    # b[..., i,j,k] = a[..., i,j,k] - a[..., j,k,i] + a[..., k,i,j]
    b = a - a.swapaxes(-3, -1).swapaxes(-2, -1) + a.swapaxes(-3, -2).swapaxes(-2, -1)
    gamma = 0.5 * (metric.inverse @ b.reshape(lead + (d * d, d)).swapaxes(-1, -2))
    gamma = gamma.reshape(c.shape)

    torsion = gamma - gamma.swapaxes(-2, -1) - c
    require(torsion, "Levi-Civita postcondition failed: torsion is nonzero")
    # gl[..., i,j,k] = g(D_i e_j, e_k); metric compatibility is gl[..., i,j,k] + gl[..., i,k,j] = 0
    gl = (gamma.reshape(lead + (d, d * d)).swapaxes(-1, -2) @ g).reshape(c.shape)
    require(gl + gl.swapaxes(-2, -1), "Levi-Civita postcondition failed: metric not parallel")
    return Connection(alg.frame, Tensor(alg.frame, gamma, alg.c.stacked))


def riemann(conn: Connection, alg: LieAlgebra, metric: MetricPair) -> Tensor:
    """Fully lowered curvature tensor R_ijkl, stacked as conn is.

    The pair antisymmetries, pair-swap symmetry and first Bianchi identity
    are asserted before returning; a violation indicates corrupt inputs.
    """
    gamma = conn.gamma.data
    lead, d = gamma.shape[:-3], gamma.shape[-1]
    rows = _block_rows(d)
    # gl[..., i, m, l] = g(D_i e_m, e_l)
    gl = (gamma.reshape(lead + (d, d * d)).swapaxes(-1, -2) @ metric.matrix).reshape(gamma.shape)
    # low, which the returned Tensor keeps, is the only dim^4 array of each
    # algebra; every step below works in a scratch block of rows of the
    # first index
    low = np.empty(lead + (d,) * 4)
    scratch = np.empty(lead + (min(rows, d), d, d, d))
    # low[..., i, j, k, l] = sum_m gamma[..., m, j, k] gl[..., i, m, l] = g(D_i D_j e_k, e_l);
    # one gemm per i
    first = gamma.reshape(lead + (1, d, d * d)).swapaxes(-1, -2)
    np.matmul(first, gl, out=low.reshape(lead + (d, d * d, d)))
    c = alg.c.data.reshape(lead + (d, d * d))
    gl = gl.reshape(lead + (d, d * d))
    for i0 in range(0, d, rows):
        i1 = min(i0 + rows, d)
        buf = scratch[..., : i1 - i0, :, :, :]
        # low[i, j] - low[j, i] in place, for the block's rows i and j >= i0;
        # the rows j < i0 were paired with them by the earlier blocks
        diag = low[..., i0:i1, i0:i1, :, :]
        before = buf[..., : i1 - i0, :, :]
        before[...] = diag
        np.subtract(before, before.swapaxes(-4, -3), out=diag)
        upper, lower = low[..., i0:i1, i1:, :, :], low[..., i1:, i0:i1, :, :]
        before = buf[..., : d - i1, :, :]
        before[...] = upper
        np.subtract(upper, lower.swapaxes(-4, -3), out=upper)
        np.subtract(lower, before.swapaxes(-4, -3), out=lower)
        # buf[..., i, j, k, l] = sum_m c[..., m, i, j] gl[..., m, k, l] = g(D_[e_i,e_j] e_k, e_l)
        bracket = c[..., i0 * d : i1 * d].swapaxes(-1, -2)
        np.matmul(bracket, gl, out=buf.reshape(lead + ((i1 - i0) * d, d * d)))
        low[..., i0:i1, :, :, :] -= buf

    # the four symmetries, block by block in the same scratch; each takes
    # its absolute value in place, so no check allocates. The absolute value
    # of a residual is symmetric in (i, j), in (i, k) for the pair swap, or
    # cyclic in (i, j, k) for Bianchi, so it takes every value with the
    # smallest of these in some block's rows i: a block reads only j >= i0,
    # k >= i0, or both
    message = "curvature symmetry postcondition failed"
    flat = scratch.reshape(-1)
    for i0 in range(0, d, rows):
        i1 = min(i0 + rows, d)
        b, tail = i1 - i0, d - i0
        block = low[..., i0:i1, :, :, :]
        buf = _scratch(flat, *lead, b, tail, d, d)
        np.add(block[..., i0:, :, :], low[..., i0:, i0:i1, :, :].swapaxes(-4, -3), out=buf)
        require(np.abs(buf, out=buf).max(), message)
        buf = scratch[..., :b, :, :, :]
        np.add(block, block.swapaxes(-2, -1), out=buf)
        require(np.abs(buf, out=buf).max(), message)
        # the pair swap (i, j, k, l) -> (k, l, i, j)
        buf = _scratch(flat, *lead, b, d, tail, d)
        swapped = low[..., i0:, :, i0:i1, :].swapaxes(-4, -2).swapaxes(-3, -1)
        np.subtract(block[..., :, i0:, :], swapped, out=buf)
        require(np.abs(buf, out=buf).max(), message)
        # Bianchi: R[i, j, k] + R[j, k, i] + R[k, i, j], over the last index
        buf = _scratch(flat, *lead, b, tail, tail, d)
        cycled = low[..., i0:, i0:, i0:i1, :].swapaxes(-4, -2).swapaxes(-3, -2)
        np.add(block[..., i0:, i0:, :], cycled, out=buf)
        buf += low[..., i0:, i0:i1, i0:, :].swapaxes(-4, -3).swapaxes(-3, -2)
        require(np.abs(buf, out=buf).max(), message)
    # frozen, low is handed to the Tensor without a copy
    low.setflags(write=False)
    return Tensor(alg.frame, low, conn.gamma.stacked)


def ricci(conn: Connection, alg: LieAlgebra) -> Tensor:
    """Ricci tensor rho_jk = g^il R_ijkl, stacked as conn is, summed from the
    connection without building R; symmetry is asserted. The trace of
    x -> R(x, e_j) e_k needs no metric. With tr[m] = sum_i gamma[i, i, m]:

        rho[j, k] =   sum_m tr[m] gamma[m, j, k]
                    - sum_{i,m} gamma[i, j, m] gamma[m, i, k]
                    - sum_{i,m} c[m, i, j] gamma[i, m, k]
    """
    gamma = conn.gamma.data
    lead, d = gamma.shape[:-3], gamma.shape[-1]
    # swapped[..., j, i, m] = gamma[..., i, j, m], copied once for both of its reshapes
    swapped = np.ascontiguousarray(gamma.swapaxes(-3, -2))
    trace = gamma.trace(0, -3, -2)[..., None, :]
    rho = (trace @ gamma.reshape(lead + (d, d * d))).reshape(lead + (d, d))
    rho -= swapped.reshape(lead + (d, d * d)) @ swapped.reshape(lead + (d * d, d))
    # the rows of c.swapaxes(-3, -1) are c[..., m, i, j] over (i, m) for each j
    c = alg.c.data.swapaxes(-3, -1)
    rho -= c.reshape(lead + (d, d * d)) @ gamma.reshape(lead + (d * d, d))
    require(rho - rho.swapaxes(-2, -1), "Ricci postcondition failed: not symmetric")
    return Tensor(alg.frame, rho, conn.gamma.stacked)


def curvature_package(alg: LieAlgebra, metric: MetricPair, phi: Tensor) -> CurvaturePackage:
    """Run the pipeline for one metric: connection, Ricci, then both scalars."""
    conn = levi_civita(alg, metric)
    rho = ricci(conn, alg)
    tau, tau_star = trace_g(rho, metric), phi_trace(rho, metric, phi)
    return CurvaturePackage(alg, metric, conn, rho, tau, tau_star)


def fundamental_tensor(conn: Connection, s: AccRStructure) -> Tensor:
    """F(x, y, z) = g((D_x phi) y, z), stacked as conn is, with its
    symmetries asserted.

    F is symmetric in the last two slots, satisfies
    F(x, y, z) = F(x, phi y, phi z) + eta(y) F(x, xi, z) + eta(z) F(x, y, xi),
    and F(x, phi y, xi) = g(D_x xi, y). All three are consequences of the
    structure identities plus metric compatibility.
    """
    gamma = conn.gamma.data
    phi, g = s.phi.data, s.g.matrix
    lead, d = gamma.shape[:-3], phi.shape[0]
    # components d_phi[..., l, i, j] of (D_i phi) e_j = D_i (phi e_j) - phi (D_i e_j)
    d_phi = (gamma.reshape(lead + (d * d, d)) @ phi).reshape(gamma.shape) - (
        phi @ gamma.reshape(lead + (d, d * d))
    ).reshape(gamma.shape)
    f = (d_phi.reshape(lead + (d, d * d)).swapaxes(-1, -2) @ g).reshape(gamma.shape)

    eta, xi = s.eta.data, s.xi.data
    f_xi_mid = np.matmul(xi, f)
    f_xi_last = f @ xi
    recompose = (
        np.matmul(phi.T, f @ phi)
        + eta[:, None] * f_xi_mid[..., None, :]
        + eta * f_xi_last[..., None]
    )
    nabla_xi = conn.derivative_of_field(xi)
    reeb_link = f_xi_last @ phi - nabla_xi.swapaxes(-1, -2) @ g
    message = "fundamental tensor postcondition failed: "
    require(f - f.swapaxes(-1, -2), message + "last-two-slot symmetry")
    require(f - recompose, message + "phi-recomposition")
    require(reeb_link, message + "Reeb-derivative link")
    return Tensor(s.frame, f, conn.gamma.stacked)


def classify_sasaki_like(
    F: Tensor, s: AccRStructure, *, conn: Connection = None, ricci_tensor: Tensor = None
) -> SasakiLikeResult:
    """Test F(x,y,z) = g(phi x, phi y) eta(z) + g(phi x, phi z) eta(y), of
    each F of a stack.

    When the test passes and a connection or Ricci tensor is supplied, the
    known consequences D_x xi = -phi x, rho(., xi) = 2n eta are verified as
    well (stacked as F, on the algebras that pass); their failure on a
    structure that classified positively is an internal error, not a
    classification result.
    """
    phi, g, eta = s.phi.data, s.g.matrix, s.eta.data
    phi_pullback = phi.T @ g @ phi
    closed_form = phi_pullback[:, :, None] * eta + phi_pullback[:, None, :] * eta[:, None]
    residual = np.abs(F.data - closed_form).max(axis=(-3, -2, -1))
    passed = Check("Sasaki-like", residual).passes()
    if conn is not None:
        reeb = conn.derivative_of_field(s.xi.data) + phi
        require(reeb[passed], "Sasaki-like consequence failed: D_x xi != -phi x")
    if ricci_tensor is not None:
        line = ricci_tensor.data @ s.xi.data - 2 * s.n * eta
        require(line[passed], "Sasaki-like consequence failed: rho(., xi) != 2n eta")
    if not F.stacked:
        passed, residual = bool(passed), float(residual)
    return SasakiLikeResult(is_sasaki_like=passed, residual=residual)


def reeb_derivative_residual(conn: Connection, s: AccRStructure) -> float:
    """max |D_x xi + phi x|; zero characterizes the Sasaki-like connection action."""
    reeb = conn.derivative_of_field(s.xi.data) + s.phi.data
    return Check.measure("reeb_derivative", reeb).residual


class Analysis(NamedTuple):
    """Everything derived from one (algebra, structure) that reports read."""

    alg: LieAlgebra
    s: AccRStructure
    pkg: CurvaturePackage
    fund: Tensor
    classification: SasakiLikeResult
    assoc_pkg: CurvaturePackage


def analyze(alg: LieAlgebra, s: AccRStructure) -> Analysis:
    """The one pipeline: curvature of g, the fundamental tensor F, the
    Sasaki-like classification, then curvature of the associated metric.

    Every field is computed, in the order of the fields; the curvature
    tensor of either metric is not, until its riemann is read.
    """
    pkg = curvature_package(alg, s.g, s.phi)
    fund = fundamental_tensor(pkg.conn, s)
    classification = classify_sasaki_like(fund, s, conn=pkg.conn, ricci_tensor=pkg.ricci)
    assoc_pkg = curvature_package(alg, s.g_assoc, s.phi)
    return Analysis(alg, s, pkg, fund, classification, assoc_pkg)
