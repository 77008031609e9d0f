"""Dense tensors over a fixed odd-dimensional frame, and the one check rule.

Everything downstream works with dense float64 arrays of dimension 2n+1
(n = 2 for the paper's examples, up to about n = 16, dim 33, for
definition files). Tensor is only a holder: it checks that an array's
shape matches its frame and keeps the array frozen. It has no arithmetic;
every formula is written on the arrays (.data, or .matrix of a
MetricPair), and a result the caller hands out is wrapped once.

Every residual in the package is judged here: Check.passes is the one
comparison, report checks are Checks, and every internal postcondition is
one call of require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, GeometryError, NotSymmetric

#: default residual tolerance for identity checks
DEFAULT_TOL = 1e-9
#: tighter tolerance used inside linear algebra
LINALG_TOL = 1e-12
#: largest frame dimension accepted from the command line or a definition
#: file; inspect, the one command that builds the curvature tensor of a
#: definition file, peaks at about 1.2 dense dim^4 float64 arrays (measured
#: at dim 33), 0.17 GB at dim 65 (0.83 GB for a single array at dim 101)
MAX_DIM = 65


class Check(NamedTuple):
    """One named residual compared against one tolerance.

    A NamedTuple because a report read from a check table builds one per
    check: a tuple is built in one step, where a frozen dataclass would set
    each field through object.__setattr__.
    """

    name: str
    residual: float
    tol: float = DEFAULT_TOL
    note: str = ""

    def passes(self, tol: float = None) -> bool:
        """residual < tol, against the check's own tolerance when tol is
        None: the one rule that judges a check. A NaN residual fails. With
        arrays of residuals and tolerances it judges each pair."""
        return self.residual < (self.tol if tol is None else tol)

    @property
    def passed(self) -> bool:
        return self.passes()

    @classmethod
    def measure(cls, name: str, residual, tol: float = DEFAULT_TOL, note: str = "") -> "Check":
        """The check of a number or an array against tol: its residual is
        max |residual|, 0.0 for an empty array."""
        if isinstance(residual, np.ndarray):
            residual = np.abs(residual).max() if residual.size else 0.0
        return cls(name, abs(float(residual)), tol, note)


def require(residual, message: str, tol: float = DEFAULT_TOL, error=GeometryError) -> float:
    """The residual of Check.measure(message, residual, tol); unless the check
    passes, raise error(message), with the fields {residual} and {tol}
    of message filled in."""
    check = Check.measure(message, residual, tol)
    if not check.passes():
        raise error(message.format(residual=check.residual, tol=tol))
    return check.residual


@dataclass(frozen=True)
class Frame:
    """An ordered basis e_0 .. e_{dim-1} of an odd-dimensional tangent space."""

    dim: int

    def __post_init__(self):
        if self.dim < 3 or self.dim % 2 == 0:
            raise DimensionMismatch(
                f"frame dimension must be odd and >= 3, got {self.dim}"
            )

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2


@dataclass(frozen=True)
class Tensor:
    """A rank-r array of components over ``frame``.

    Components are stored fully covariant or fully contravariant at the
    caller's discretion; the wrapper only tracks the frame and the shape.

    The data is copied into a read-only float64 array, except an array
    that is already read-only float64 and owns its memory: that one is
    kept as it is, so a caller that built a large array can hand it over
    by freezing it, and must not write to it afterwards.
    """

    frame: Frame
    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.float64
            and arr.base is None
            and not arr.flags.writeable
        ):
            arr = np.array(arr, dtype=float, copy=True)
            arr.setflags(write=False)
        if arr.shape != (self.frame.dim,) * arr.ndim:
            raise DimensionMismatch(
                f"tensor shape {arr.shape} does not match frame dimension {self.frame.dim}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def rank(self) -> int:
        return self.data.ndim


def as_tensor(value, frame: Frame, rank: int) -> Tensor:
    """value as a rank-``rank`` Tensor on ``frame``: a Tensor is kept as it
    is, anything else is read as a float array."""
    tensor = value if isinstance(value, Tensor) else Tensor(frame, value)
    if tensor.frame != frame or tensor.rank != rank:
        raise DimensionMismatch(
            f"expected rank {rank} on frame dimension {frame.dim}, "
            f"got rank {tensor.rank} on frame dimension {tensor.frame.dim}"
        )
    return tensor


@dataclass(frozen=True)
class MetricPair:
    """A symmetric nondegenerate metric bundled with its inverse."""

    g: Tensor
    g_inv: Tensor

    @property
    def frame(self) -> Frame:
        return self.g.frame

    @property
    def matrix(self) -> np.ndarray:
        return self.g.data

    @property
    def inverse(self) -> np.ndarray:
        return self.g_inv.data


def invert_metric(g: Tensor) -> MetricPair:
    """Invert a symmetric rank-2 tensor and return it with its inverse.

    Uses LU factorization with partial pivoting. The inverse is
    symmetrized by averaging and the product g.g_inv is required to match
    the identity within LINALG_TOL.
    """
    if g.rank != 2:
        raise DimensionMismatch(f"metric must have rank 2, got rank {g.rank}")
    mat = g.data
    require(
        mat - mat.T, "metric asymmetry {residual:.3e} exceeds {tol}", LINALG_TOL, NotSymmetric
    )
    dim = g.frame.dim
    try:
        inv = np.linalg.solve(mat, np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric is singular: {exc}") from None
    inv = 0.5 * (inv + inv.T)
    require(
        mat @ inv - np.eye(dim),
        "metric too ill-conditioned to invert: identity residual {residual:.3e}",
        LINALG_TOL,
        DegenerateMetric,
    )
    return MetricPair(Tensor(g.frame, mat), Tensor(g.frame, inv))


def trace_g(tensor: Tensor, metric: MetricPair) -> float:
    """Metric trace g^{ij} T_{ij} of a rank-2 tensor."""
    _require_rank2_on_frame(tensor, metric)
    return float(np.einsum("ij,ij->", metric.inverse, tensor.data))


def phi_trace(tensor: Tensor, metric: MetricPair, phi: Tensor) -> float:
    """Twisted trace g^{ij} T(e_i, phi e_j) of a rank-2 tensor."""
    _require_rank2_on_frame(tensor, metric)
    if phi.rank != 2 or phi.frame != tensor.frame:
        raise DimensionMismatch("endomorphism must be rank 2 on the same frame")
    return float(np.einsum("ij,ik,kj->", metric.inverse, tensor.data, phi.data))


def _require_rank2_on_frame(tensor: Tensor, metric: MetricPair) -> None:
    if tensor.rank != 2:
        raise DimensionMismatch(f"expected a rank-2 tensor, got rank {tensor.rank}")
    if tensor.frame != metric.frame:
        raise DimensionMismatch("tensor and metric live on different frames")
