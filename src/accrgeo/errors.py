"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GeometryError):
    """Operands live on different frames or have inconsistent shapes."""


class NotSymmetric(GeometryError):
    """A metric argument is not symmetric within tolerance."""


class DegenerateMetric(GeometryError):
    """A metric is singular, or numerically too close to singular to invert."""


class WrongSignature(GeometryError):
    """Metric eigenvalue signs are not (n+1, n)."""


class StructureViolation(GeometryError):
    """One or more defining identities of an almost contact B-metric structure fail.

    ``violations`` holds every failed identity as a (name, residual) pair, not
    only the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{name} (residual {res:.3e})" for name, res in self.violations)
        super().__init__(f"structure identities violated: {detail}")


class AntisymmetryViolation(GeometryError):
    """Structure constants are not antisymmetric in the bracket index pair."""


class JacobiViolation(GeometryError):
    """Structure constants fail the Jacobi identity."""

    def __init__(self, residual, triple):
        self.residual = residual
        self.triple = tuple(triple)
        super().__init__(
            f"Jacobi identity fails, worst basis triple {self.triple} "
            f"with residual {residual:.3e}"
        )


class UnsupportedPotential(GeometryError):
    """The potential kind does not carry the data this operation needs."""


class NotSasakiLike(GeometryError):
    """An operation restricted to the Sasaki-like class got a structure outside it."""


class SingularFit(GeometryError):
    """The Gram matrix of the fit basis {g, g_assoc, eta(x)eta} is singular."""


class DegenerateParameter(GeometryError):
    """A scenario parameter hits an excluded value."""


class EmptyGrid(GeometryError):
    """A sweep was requested over an empty parameter grid."""


class ParseError(GeometryError):
    """A manifold definition is malformed."""
