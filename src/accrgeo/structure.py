"""Almost contact B-metric structures.

A structure on a (2n+1)-dimensional frame is a quadruple (phi, xi, eta, g):
an endomorphism phi, a Reeb field xi, its dual one-form eta, and a
pseudo-Riemannian metric g of signature (n+1, n) subject to

    phi xi = 0                  phi^2 = -id + eta (.) xi
    eta o phi = 0               eta(xi) = 1
    g(phi x, phi y) = -g(x, y) + eta(x) eta(y)

The last identity makes g a B-metric: phi is g-symmetric rather than
g-skew, which is what separates this geometry from the metric contact
world. Every such structure carries a second metric of the same
signature, the associated metric

    g_assoc(x, y) = g(x, phi y) + eta(x) eta(y).

Applying the same recipe to g_assoc does not return g: the map has
period four, with two applications giving -g + 2 eta (.) eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMetric,
    StructureViolation,
    WrongSignature,
)
from .tensors import Check, Frame, MetricPair, Tensor, as_tensor, invert_metric

#: eigenvalues inside this band around zero mean a degenerate metric
SIGNATURE_TOL = 1e-9

_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class AccRStructure:
    """A validated almost contact B-metric structure with both metrics."""

    frame: Frame
    phi: Tensor
    xi: Tensor
    eta: Tensor
    g: MetricPair
    g_assoc: MetricPair

    @property
    def n(self) -> int:
        return self.frame.n

    @cached_property
    def eta_outer(self) -> np.ndarray:
        """eta (.) eta as a read-only array, built once per structure.

        Every formula on a validated structure reads it here.
        """
        outer = np.outer(self.eta.data, self.eta.data)
        outer.setflags(write=False)
        return outer


def metric_entry_limit(dim: int) -> float:
    """Largest |g_ij| a definition file may give at this dimension.

    The Einstein-like fit solves with the Gram matrix of g, g_assoc and
    eta (.) eta, whose entries sum dim^2 products of two metric-sized
    entries; its determinant is then at most 6 dim^6 |g|^6. Below this
    bound that stays inside float64 (for phi and eta of unit size).
    """
    return (_FLOAT_MAX / 6.0) ** (1.0 / 6.0) / dim


def metric_signature(g: Tensor) -> tuple:
    """Counts of positive and negative eigenvalues of a symmetric tensor."""
    eigenvalues = np.linalg.eigvalsh(0.5 * (g.data + g.data.T))
    if np.any(np.abs(eigenvalues) < SIGNATURE_TOL):
        raise DegenerateMetric(
            f"metric has an eigenvalue within {SIGNATURE_TOL} of zero"
        )
    pos = int(np.sum(eigenvalues > 0))
    return pos, g.frame.dim - pos


def validate_structure(phi, xi, eta, g, frame: Frame) -> AccRStructure:
    """Check every defining identity and return the validated structure.

    Inputs may be Tensors on ``frame`` or plain array-likes. Shape errors,
    metric symmetry and degeneracy, and signature are rejected first; the
    defining identities are then checked as a batch so a StructureViolation
    names all failures, not just the first.
    """
    phi = as_tensor(phi, frame, 2)
    xi = as_tensor(xi, frame, 1)
    eta = as_tensor(eta, frame, 1)
    g = as_tensor(g, frame, 2)

    metric = invert_metric(g)
    n = frame.n
    sig = metric_signature(g)
    if sig != (n + 1, n):
        raise WrongSignature(f"metric signature {sig} instead of ({n + 1}, {n})")

    phi_m, xi_v, eta_v, g_m = phi.data, xi.data, eta.data, g.data
    _require_identities(
        {
            "phi(xi) = 0": phi_m @ xi_v,
            "phi^2 = -id + eta(.)xi": phi_m @ phi_m + np.eye(frame.dim) - np.outer(xi_v, eta_v),
            "eta(phi(.)) = 0": eta_v @ phi_m,
            "eta(xi) = 1": eta_v @ xi_v - 1.0,
            "g(phi.,phi.) = -g + eta(.)eta": phi_m.T @ g_m @ phi_m + g_m - np.outer(eta_v, eta_v),
            "g(phi.,.) = g(.,phi.)": phi_m.T @ g_m - g_m @ phi_m,
            "g(.,xi) = eta": g_m @ xi_v - eta_v,
        }
    )
    g_assoc = associated_metric_from_parts(g, phi, eta)
    return AccRStructure(frame=frame, phi=phi, xi=xi, eta=eta, g=metric, g_assoc=g_assoc)


def associated_metric_from_parts(g: Tensor, phi: Tensor, eta: Tensor) -> MetricPair:
    """Build g_assoc(x,y) = g(x, phi y) + eta(x) eta(y) and invert it.

    Symmetry and the B-metric identity of the result are consequences of
    the structure identities, so their failure means the inputs were bad;
    both are still verified here.
    """
    eta_outer = np.outer(eta.data, eta.data)
    assoc = g.data @ phi.data + eta_outer
    _require_identities(
        {
            "g_assoc symmetric": assoc - assoc.T,
            "g_assoc(phi.,phi.) = -g_assoc + eta(.)eta": (
                phi.data.T @ assoc @ phi.data + assoc - eta_outer
            ),
        }
    )
    return invert_metric(Tensor(g.frame, 0.5 * (assoc + assoc.T)))


def _require_identities(residuals: dict) -> None:
    """Raise one StructureViolation naming every identity whose Check fails."""
    checks = [Check.measure(name, residual) for name, residual in residuals.items()]
    failed = [(check.name, check.residual) for check in checks if not check.passed]
    if failed:
        raise StructureViolation(failed)
