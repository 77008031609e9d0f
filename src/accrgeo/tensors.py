"""Dense tensors over a fixed odd-dimensional frame.

Everything downstream works with dense float64 arrays of dimension 2n+1
(n = 2 for the paper's examples, up to about n = 16, dim 33, for
definition files). Tensor is only a holder: it checks that an array's
shape matches its frame and keeps the array frozen. It has no arithmetic;
every formula is written on the arrays (.data, or .matrix of a
MetricPair), and a result the caller hands out is wrapped once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, NotSymmetric

#: default residual tolerance for identity checks
DEFAULT_TOL = 1e-9
#: tighter tolerance used inside linear algebra
LINALG_TOL = 1e-12
#: largest frame dimension accepted from the command line or a definition
#: file; inspect holds about 2.4 dense dim^4 float64 arrays at its peak,
#: 0.33 GB at dim 65 (0.83 GB for a single array at dim 101)
MAX_DIM = 65


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
    asym = float(np.max(np.abs(mat - mat.T)))
    if not asym < LINALG_TOL:
        raise NotSymmetric(f"metric asymmetry {asym:.3e} exceeds {LINALG_TOL}")
    dim = g.frame.dim
    try:
        inv = np.linalg.solve(mat, np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric is singular: {exc}") from None
    inv = 0.5 * (inv + inv.T)
    resid = float(np.max(np.abs(mat @ inv - np.eye(dim))))
    if not resid < LINALG_TOL:
        raise DegenerateMetric(
            f"metric too ill-conditioned to invert: identity residual {resid:.3e}"
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


def max_abs(tensor: Tensor) -> float:
    """Largest absolute component; the residual norm used everywhere."""
    if tensor.data.size == 0:
        return 0.0
    return float(np.max(np.abs(tensor.data)))


def _require_rank2_on_frame(tensor: Tensor, metric: MetricPair) -> None:
    if tensor.rank != 2:
        raise DimensionMismatch(f"expected a rank-2 tensor, got rank {tensor.rank}")
    if tensor.frame != metric.frame:
        raise DimensionMismatch("tensor and metric live on different frames")
