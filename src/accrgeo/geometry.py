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
Scenarios, definition files and sweeps all go through it.

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
    """|J[i, j, r, l]| for i0 <= i < i1 and j >= j0, in the first of the three
    flat buffers bufs. J = ad_[e_i,e_j] - [ad_i, ad_j], so J[i, j, r, l] is the
    e_r-component of [[e_i,e_j],e_l] + cyclic; ad[i, r, l] = c[r, i, l] and
    pairs[i, j, m] = c[m, i, j]."""
    d = c.shape[0]
    b, tail = i1 - i0, d - j0
    jac = _scratch(bufs[0], b, tail, d, d)
    np.matmul(pairs[i0:i1, j0:], ad.reshape(d, d * d), out=jac.reshape(b, tail, d * d))
    # ad_i ad_j, indexed (i, r, j, l), and ad_j ad_i, indexed (i, j, r, l)
    ij = _scratch(bufs[1], b, d, tail, d)
    np.matmul(ad[i0:i1], c.reshape(d, d * d)[:, j0 * d :], out=ij.reshape(b, d, tail * d))
    ji = _scratch(bufs[2], b, tail, d, d)
    np.matmul(ad[j0:].reshape(tail * d, d), ad[i0:i1], out=ji.reshape(b, tail * d, d))
    jac -= ij.transpose(0, 2, 1, 3)
    jac += ji
    return np.abs(jac, out=jac)


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants of a Lie algebra over a frame.

    Antisymmetry in the bracket pair is required exactly (to 1e-12) and
    the Jacobi identity to 1e-9; both are hard errors, since curvature on
    top of a non-algebra is meaningless.
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
            arr + np.swapaxes(arr, 1, 2),
            "c[k,i,j] + c[k,j,i] has residual {residual:.3e}",
            LINALG_TOL,
            AntisymmetryViolation,
        )
        # the Jacobiator runs in blocks of rows i, so no dim^4 array is
        # built; it is alternating in (i, j, l), so every value has its
        # smallest index in some block's rows i with j >= the block's first
        ad = np.ascontiguousarray(arr.transpose(1, 0, 2))
        pairs = np.ascontiguousarray(arr.transpose(1, 2, 0))
        rows = _block_rows(d)
        bufs = np.empty((3, min(rows, d) * d**3))
        blocks = [(i0, min(i0 + rows, d)) for i0 in range(0, d, rows)]
        residual = max(
            float(_jacobiator_rows(arr, ad, pairs, i0, i1, i0, bufs).max()) for i0, i1 in blocks
        )
        if not Check("Jacobi identity", residual).passed:
            # one more pass over every j names the first maximal (r, i, j, l)
            # in C order: each block's first, then the largest and first of those
            found = []
            for i0, i1 in blocks:
                jac = _jacobiator_rows(arr, ad, pairs, i0, i1, 0, bufs).transpose(2, 0, 1, 3)
                r, i, j, l = map(int, np.unravel_index(np.argmax(jac), jac.shape))
                found.append((-float(jac[r, i, j, l]), (r, i0 + i, j, l)))
            residual, worst = min(found)
            raise JacobiViolation(-residual, worst[1:])


@dataclass(frozen=True)
class Connection:
    """Levi-Civita coefficients gamma[l, i, j]: the e_l-component of D_i e_j."""

    frame: Frame
    gamma: Tensor

    def derivative_of_field(self, v: np.ndarray) -> np.ndarray:
        """Matrix d[l, i] of components of D_i v for a constant field v."""
        return np.einsum("lij,j->li", self.gamma.data, np.asarray(v, dtype=float))


@dataclass(frozen=True)
class CurvaturePackage:
    """Connection, Ricci and both scalar traces for one metric, and the
    curvature tensor when it is read."""

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
    """Outcome of testing F against the Sasaki-like closed form."""

    is_sasaki_like: bool
    residual: float


def levi_civita(alg: LieAlgebra, metric: MetricPair) -> Connection:
    """Solve the Koszul formula for the connection coefficients.

    Zero torsion and metric compatibility are consequences of the formula;
    they are re-verified here as a guard against convention drift.
    """
    c = alg.c.data
    g = metric.matrix
    d = g.shape[0]
    # a[i,j,k] = g([e_i, e_j], e_k)
    a = (c.reshape(d, d * d).T @ g).reshape(d, d, d)
    # b[i,j,k] = a[i,j,k] - a[j,k,i] + a[k,i,j]
    b = a - a.transpose(2, 0, 1) + a.transpose(1, 2, 0)
    gamma = (0.5 * (metric.inverse @ b.reshape(d * d, d).T)).reshape(d, d, d)

    torsion = gamma - np.swapaxes(gamma, 1, 2) - c
    require(torsion, "Levi-Civita postcondition failed: torsion is nonzero")
    # gl[i,j,k] = g(D_i e_j, e_k); metric compatibility is gl[i,j,k] + gl[i,k,j] = 0
    gl = (gamma.reshape(d, d * d).T @ g).reshape(d, d, d)
    require(gl + gl.transpose(0, 2, 1), "Levi-Civita postcondition failed: metric not parallel")
    return Connection(alg.frame, Tensor(alg.frame, gamma))


def riemann(conn: Connection, alg: LieAlgebra, metric: MetricPair) -> Tensor:
    """Fully lowered curvature tensor R_ijkl.

    The pair antisymmetries, pair-swap symmetry and first Bianchi identity
    are asserted before returning; a violation indicates corrupt inputs.
    """
    gamma = conn.gamma.data
    d = gamma.shape[0]
    rows = _block_rows(d)
    # gl[i, m, l] = g(D_i e_m, e_l)
    gl = (gamma.reshape(d, d * d).T @ metric.matrix).reshape(d, d, d)
    # low, which the returned Tensor keeps, is the only dim^4 array; every
    # step below works in a scratch block of rows of the first index
    low = np.empty((d,) * 4)
    scratch = np.empty((min(rows, d), d, d, d))
    # low[i, j, k, l] = sum_m gamma[m, j, k] gl[i, m, l] = g(D_i D_j e_k, e_l);
    # one gemm per i
    np.matmul(gamma.reshape(d, d * d).T, gl, out=low.reshape(d, d * d, d))
    c = alg.c.data.reshape(d, d * d)
    gl = gl.reshape(d, d * d)
    for i0 in range(0, d, rows):
        i1 = min(i0 + rows, d)
        buf = scratch[: i1 - i0]
        # low[i, j] - low[j, i] in place, for the block's rows i and j >= i0;
        # the rows j < i0 were paired with them by the earlier blocks
        diag = low[i0:i1, i0:i1]
        before = buf[:, : i1 - i0]
        before[...] = diag
        np.subtract(before, before.transpose(1, 0, 2, 3), out=diag)
        upper, lower = low[i0:i1, i1:], low[i1:, i0:i1]
        before = buf[:, : d - i1]
        before[...] = upper
        np.subtract(upper, lower.transpose(1, 0, 2, 3), out=upper)
        np.subtract(lower, before.transpose(1, 0, 2, 3), out=lower)
        # buf[i, j, k, l] = sum_m c[m, i, j] gl[m, k, l] = g(D_[e_i,e_j] e_k, e_l)
        np.matmul(c[:, i0 * d : i1 * d].T, gl, out=buf.reshape((i1 - i0) * d, d * d))
        low[i0:i1] -= buf

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
        block = low[i0:i1]
        buf = _scratch(flat, b, tail, d, d)
        np.add(low[i0:i1, i0:], low[i0:, i0:i1].transpose(1, 0, 2, 3), out=buf)
        require(np.abs(buf, out=buf).max(), message)
        buf = scratch[:b]
        np.add(block, block.transpose(0, 1, 3, 2), out=buf)
        require(np.abs(buf, out=buf).max(), message)
        buf = _scratch(flat, b, d, tail, d)
        np.subtract(low[i0:i1, :, i0:], low[i0:, :, i0:i1].transpose(2, 3, 0, 1), out=buf)
        require(np.abs(buf, out=buf).max(), message)
        buf = _scratch(flat, b, tail, tail, d)
        np.add(low[i0:i1, i0:, i0:], low[i0:, i0:, i0:i1].transpose(2, 0, 1, 3), out=buf)
        buf += low[i0:, i0:i1, i0:].transpose(1, 2, 0, 3)
        require(np.abs(buf, out=buf).max(), message)
    # frozen, low is handed to the Tensor without a copy
    low.setflags(write=False)
    return Tensor(alg.frame, low)


def ricci(conn: Connection, alg: LieAlgebra) -> Tensor:
    """Ricci tensor rho_jk = g^il R_ijkl, summed from the connection without
    building R; symmetry is asserted. The trace of x -> R(x, e_j) e_k needs
    no metric. With tr[m] = sum_i gamma[i, i, m]:

        rho[j, k] =   sum_m tr[m] gamma[m, j, k]
                    - sum_{i,m} gamma[i, j, m] gamma[m, i, k]
                    - sum_{i,m} c[m, i, j] gamma[i, m, k]
    """
    gamma = conn.gamma.data
    d = gamma.shape[0]
    # swapped[j, i, m] = gamma[i, j, m], copied once for both of its reshapes
    swapped = np.ascontiguousarray(gamma.transpose(1, 0, 2))
    rho = (np.trace(gamma) @ gamma.reshape(d, d * d)).reshape(d, d)
    rho -= swapped.reshape(d, d * d) @ swapped.reshape(d * d, d)
    # the rows of c.transpose(2, 1, 0) are c[m, i, j] over (i, m) for each j
    rho -= alg.c.data.transpose(2, 1, 0).reshape(d, d * d) @ gamma.reshape(d * d, d)
    require(rho - rho.T, "Ricci postcondition failed: not symmetric")
    return Tensor(alg.frame, rho)


def curvature_package(alg: LieAlgebra, metric: MetricPair, phi: Tensor) -> CurvaturePackage:
    """Run the pipeline for one metric: connection, Ricci, then both scalars."""
    conn = levi_civita(alg, metric)
    rho = ricci(conn, alg)
    tau, tau_star = trace_g(rho, metric), phi_trace(rho, metric, phi)
    return CurvaturePackage(alg, metric, conn, rho, tau, tau_star)


def fundamental_tensor(conn: Connection, s: AccRStructure) -> Tensor:
    """F(x, y, z) = g((D_x phi) y, z), with its symmetries asserted.

    F is symmetric in the last two slots, satisfies
    F(x, y, z) = F(x, phi y, phi z) + eta(y) F(x, xi, z) + eta(z) F(x, y, xi),
    and F(x, phi y, xi) = g(D_x xi, y). All three are consequences of the
    structure identities plus metric compatibility.
    """
    gamma = conn.gamma.data
    phi, g = s.phi.data, s.g.matrix
    d = phi.shape[0]
    # components d_phi[l, i, j] of (D_i phi) e_j = D_i (phi e_j) - phi (D_i e_j)
    d_phi = (gamma.reshape(d * d, d) @ phi).reshape(d, d, d) - (
        phi @ gamma.reshape(d, d * d)
    ).reshape(d, d, d)
    f = (d_phi.reshape(d, d * d).T @ g).reshape(d, d, d)

    eta, xi = s.eta.data, s.xi.data
    f_xi_mid = np.matmul(xi, f)
    f_xi_last = f @ xi
    recompose = (
        np.matmul(phi.T, f @ phi)
        + eta[:, None] * f_xi_mid[:, None, :]
        + eta * f_xi_last[:, :, None]
    )
    nabla_xi = conn.derivative_of_field(xi)
    reeb_link = f_xi_last @ phi - nabla_xi.T @ g
    message = "fundamental tensor postcondition failed: "
    require(f - f.transpose(0, 2, 1), message + "last-two-slot symmetry")
    require(f - recompose, message + "phi-recomposition")
    require(reeb_link, message + "Reeb-derivative link")
    return Tensor(s.frame, f)


def classify_sasaki_like(
    F: Tensor, s: AccRStructure, *, conn: Connection = None, ricci_tensor: Tensor = None
) -> SasakiLikeResult:
    """Test F(x,y,z) = g(phi x, phi y) eta(z) + g(phi x, phi z) eta(y).

    When the test passes and a connection or Ricci tensor is supplied, the
    known consequences D_x xi = -phi x, rho(., xi) = 2n eta are verified as
    well; their failure on a structure that classified positively is an
    internal error, not a classification result.
    """
    phi, g, eta = s.phi.data, s.g.matrix, s.eta.data
    phi_pullback = phi.T @ g @ phi
    closed_form = np.einsum("ij,k->ijk", phi_pullback, eta) + np.einsum(
        "ik,j->ijk", phi_pullback, eta
    )
    test = Check.measure("Sasaki-like", F.data - closed_form)
    if test.passed:
        if conn is not None:
            reeb = conn.derivative_of_field(s.xi.data) + phi
            require(reeb, "Sasaki-like consequence failed: D_x xi != -phi x")
        if ricci_tensor is not None:
            line = ricci_tensor.data @ s.xi.data - 2 * s.n * eta
            require(line, "Sasaki-like consequence failed: rho(., xi) != 2n eta")
    return SasakiLikeResult(is_sasaki_like=test.passed, residual=test.residual)


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
