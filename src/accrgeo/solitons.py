"""Soliton equations driven by both B-metrics, and the theorem checkers.

The central equation couples the Ricci tensor of g to Lie derivatives of
both metrics along a potential field theta:

    rho + (1/2) L_theta g + (1/2) L_theta g_assoc
        + (lam + beta tau) g + (lam_assoc + beta tau_assoc) g_assoc = 0

where tau and tau_assoc are the scalar curvatures of g and g_assoc and
beta is a fixed real parameter. A single-metric variant trades the
g_assoc terms for mu eta (.) eta:

    rho + (1/2) L_theta g + (lam + beta tau) g + mu eta (.) eta = 0.

Potentials come in two kinds. A conformal potential is not given by
components at all: it is the assumption L_theta g = 2 psi g and
L_theta g_assoc = 2 psi_assoc g_assoc for pointwise scalars. A vertical
potential is theta = k xi for a scalar k constant along the contact
distribution.

The two theorem checkers turn the consequences of each assumption into
named residual checks: everything a conformal potential forces on
(tau, tau_assoc, psi + lam, psi_assoc + lam_assoc), and the closed-form
solution (lam, lam_assoc) a vertical potential admits on Sasaki-like
structures. beta = -1/(2n) is a genuine branch point of both theorems:
the scalar curvatures drop out of the coefficient equations there, so
the checkers route to the degenerate branch instead of dividing by the
vanishing factor.

The report builders start from an Analysis. A vertical report is built
in levels, so a sweep evaluates each check once per value of what it
depends on: vertical_level holds the Lie derivatives of one potential,
vertical_solutions is the one solve of the constants a potential forces,
at all of its betas, and vertical_rows checks the equation for several
potentials of one analysis, each at every beta in one array operation.
solve_vertical_soliton is vertical_solutions at one beta. The conformal
theorem has the same shape: conformal_level holds the checks of one
curvature point that are free of beta and the potential, and conformal_row
builds the report at one beta for the sums psi + lam and
psi_assoc + lam_assoc. verify_conformal_theorem and conformal_report are
one row of one level, and example1 builds a level per curve point. Both
scenarios and definition files go through these builders.

A report's checks are tensors.Check (re-exported here), built from a
number or an array by Check.measure or TheoremReport.add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    GeometryError,
    NotSasakiLike,
    SingularFit,
    UnsupportedPotential,
)
from .geometry import Analysis, Connection, SasakiLikeResult
from .structure import AccRStructure
from .tensors import DEFAULT_TOL, Check, MetricPair, Tensor, phi_trace, require, trace_g

#: |beta + 1/(2n)| below this routes to the degenerate branch
DEGENERATE_BETA_TOL = 1e-9


@dataclass(frozen=True)
class VerticalScalar:
    """Pointwise data of a scalar constant on the contact distribution.

    Only the value and the derivative along xi survive in any of the
    closed forms, so that is all we carry.
    """

    value: float
    xi_derivative: float


@dataclass(frozen=True)
class VerticalPotential:
    """theta = k xi."""

    k: VerticalScalar


@dataclass(frozen=True)
class SolitonSpec:
    """Coefficients of one soliton equation instance."""

    beta: float
    lam: float
    lam_assoc: float = 0.0
    mu: float = None


@dataclass
class TheoremReport:
    """An ordered list of checks plus free-form notes."""

    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name: str, residual, tol: float = DEFAULT_TOL, note: str = "") -> None:
        self.checks.append(Check.measure(name, residual, tol, note))

    def add_note(self, text: str) -> None:
        self.notes.append(text)

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(check.name == name for check in self.checks)

    def verdict(self, tol: float = None) -> tuple:
        """(passed, worst check), judging every check against tol when it is
        given and against its own tolerance otherwise.

        A check passes as Check.passes judges it. The worst check is the
        first one with the largest residual / tol, None when there are no
        checks.
        """
        passed, worst, worst_margin = True, None, None
        for check in self.checks:
            limit = check.tol if tol is None else tol
            if not check.passes(limit):
                passed = False
            margin = check.residual / limit
            if worst is None or margin > worst_margin:
                worst, worst_margin = check, margin
        return passed, worst

    @property
    def passed(self) -> bool:
        return self.verdict()[0]

    def worst(self) -> Check:
        return self.verdict()[1]


def lie_derivative_metric(
    metric: MetricPair, conn: Connection, potential, s: AccRStructure
) -> Tensor:
    """(L_theta m)(x, y) = m(D_x theta, y) + m(x, D_y theta) for theta = k xi
    and constant-coefficient m.

    Works for any metric on the frame (g or g_assoc), since only metric
    coefficients being frame-constant is used. A conformal potential has
    no components; its Lie derivatives exist only as the defining
    assumption, which conformal_report uses directly.
    """
    if not isinstance(potential, VerticalPotential):
        raise UnsupportedPotential(f"unknown potential kind {type(potential).__name__}")
    k = potential.k
    xi_field = s.xi.data
    d_theta = k.xi_derivative * np.outer(xi_field, s.eta.data) + k.value * (
        conn.derivative_of_field(xi_field)
    )
    half = np.einsum("mi,mj->ij", d_theta, metric.matrix)
    return Tensor(s.frame, half + half.T)


def vertical_lie_closed_form(
    k: VerticalScalar, s: AccRStructure, classification: SasakiLikeResult
) -> tuple:
    """Closed forms of L_{k xi} g and L_{k xi} g_assoc on a Sasaki-like structure.

    With h = 2 (dk along xi) eta (.) eta:

        L_{k xi} g       = h - 2k (g_assoc - eta (.) eta)
        L_{k xi} g_assoc = h + 2k (g - eta (.) eta)

    Both collapse the connection out of the computation; they are valid
    only in the Sasaki-like class, which is why the classification result
    is a required argument.
    """
    if not classification.is_sasaki_like:
        raise NotSasakiLike(
            "closed-form vertical Lie derivatives hold only for Sasaki-like structures"
        )
    eta_outer = s.eta_outer
    h = 2.0 * k.xi_derivative * eta_outer
    lie_g = h - 2.0 * k.value * (s.g_assoc.matrix - eta_outer)
    lie_assoc = h + 2.0 * k.value * (s.g.matrix - eta_outer)
    return Tensor(s.frame, lie_g), Tensor(s.frame, lie_assoc)


def rb_like_residual(
    ricci_tensor: Tensor,
    lie_g: Tensor,
    lie_assoc: Tensor,
    s: AccRStructure,
    spec: SolitonSpec,
    tau: float,
    tau_assoc: float,
) -> Tensor:
    """Left-hand side of the two-metric soliton equation; zero means soliton."""
    lhs = _rb_like_lhs(
        ricci_tensor, lie_g, lie_assoc, s, spec.beta, spec.lam, spec.lam_assoc, tau, tau_assoc
    )
    return Tensor(s.frame, lhs)


def rb_like_residual_norms(
    ricci_tensor: Tensor,
    lie_g: Tensor,
    lie_assoc: Tensor,
    s: AccRStructure,
    beta,
    lam,
    lam_assoc,
    tau: float,
    tau_assoc: float,
) -> np.ndarray:
    """max |rb_like_residual| for each entry of the equal-length
    sequences beta, lam and lam_assoc, evaluated in one array operation."""
    lhs = _rb_like_lhs(
        ricci_tensor,
        lie_g,
        lie_assoc,
        s,
        np.asarray(beta, dtype=float),
        np.asarray(lam, dtype=float),
        np.asarray(lam_assoc, dtype=float),
        tau,
        tau_assoc,
    )
    return np.max(np.abs(lhs), axis=(-2, -1))


def _rb_like_lhs(ricci_tensor, lie_g, lie_assoc, s, beta, lam, lam_assoc, tau, tau_assoc):
    # beta, lam and lam_assoc are scalars, or 1-d arrays that stack the
    # results along a leading axis; each entry takes the same floating-point
    # operations in the same order either way
    return (
        ricci_tensor.data
        + 0.5 * lie_g.data
        + 0.5 * lie_assoc.data
        + np.multiply.outer(lam + beta * tau, s.g.matrix)
        + np.multiply.outer(lam_assoc + beta * tau_assoc, s.g_assoc.matrix)
    )


def eta_rb_residual(
    ricci_tensor: Tensor,
    lie_g: Tensor,
    s: AccRStructure,
    spec: SolitonSpec,
    tau: float,
) -> Tensor:
    """Left-hand side of the single-metric variant with the eta (.) eta term."""
    if spec.mu is None:
        raise GeometryError("the single-metric soliton equation needs spec.mu (0 is allowed)")
    arr = (
        ricci_tensor.data
        + 0.5 * lie_g.data
        + (spec.lam + spec.beta * tau) * s.g.matrix
        + spec.mu * s.eta_outer
    )
    return Tensor(s.frame, arr)


@dataclass(frozen=True)
class EinsteinLikeFit:
    """Least-squares coefficients of rho against {g, g_assoc, eta (.) eta}.

    kind is one of "einstein", "eta_einstein", "einstein_like",
    "not_einstein_like"; the trace residuals record how well
    tau = (2n+1)a + b + c and tau_star = -2nb hold for the fitted
    coefficients.
    """

    a: float
    b: float
    c: float
    residual: float
    kind: str
    tau_residual: float
    tau_star_residual: float


def einstein_like_fit(ricci_tensor: Tensor, s: AccRStructure) -> EinsteinLikeFit:
    """Decompose rho = a g + b g_assoc + c eta (.) eta if possible.

    The basis Gram matrix is nonsingular for every valid structure, so a
    SingularFit signals corrupted inputs rather than a tight geometry.
    """
    basis = np.stack([s.g.matrix.ravel(), s.g_assoc.matrix.ravel(), s.eta_outer.ravel()])
    gram = basis @ basis.T
    rhs = basis @ ricci_tensor.data.ravel()
    if abs(np.linalg.det(gram)) < 1e-12:
        raise SingularFit("fit basis {g, g_assoc, eta(.)eta} is numerically dependent")
    coeffs = np.linalg.solve(gram, rhs)

    def recompose(v):
        return v[0] * s.g.matrix + v[1] * s.g_assoc.matrix + v[2] * s.eta_outer

    # prefer exact zeros when they decompose rho just as well: the
    # sub-class labels below depend on which coefficients vanish
    snapped = np.where(np.abs(coeffs) < DEFAULT_TOL, 0.0, coeffs)
    if Check.measure("snapped", ricci_tensor.data - recompose(snapped)).passed:
        coeffs = snapped
    a, b, c = coeffs
    fit = Check.measure("fit", ricci_tensor.data - recompose(coeffs))
    residual, exact = fit.residual, fit.passed
    if not exact:
        kind = "not_einstein_like"
    elif abs(b) < DEFAULT_TOL and abs(c) < DEFAULT_TOL:
        kind = "einstein"
    elif abs(b) < DEFAULT_TOL:
        kind = "eta_einstein"
    else:
        kind = "einstein_like"

    n = s.n
    tau = trace_g(ricci_tensor, s.g)
    tau_star = phi_trace(ricci_tensor, s.g, s.phi)
    tau_residual = abs(tau - ((2 * n + 1) * a + b + c))
    tau_star_residual = abs(tau_star + 2 * n * b)
    if exact:
        message = "Einstein-like fit trace consequences failed on an exact decomposition"
        require(tau_residual, message)
        require(tau_star_residual, message)
    return EinsteinLikeFit(
        a=float(a),
        b=float(b),
        c=float(c),
        residual=residual,
        kind=kind,
        tau_residual=tau_residual,
        tau_star_residual=tau_star_residual,
    )


def is_degenerate_beta(beta: float, n: int) -> bool:
    """True when beta sits within DEGENERATE_BETA_TOL of -1/(2n).

    The window is on beta itself, not on the factor 1 + 2n beta: near the
    excluded value the conformal elimination divides by that factor, and
    rounding in the inputs is amplified by its reciprocal, so anything
    this close must take the division-free branch.
    """
    return abs(beta + 1.0 / (2.0 * n)) < DEGENERATE_BETA_TOL


def solve_vertical_soliton(
    beta: float,
    k: VerticalScalar,
    tau: float,
    tau_assoc: float,
    n: int,
    *,
    classification: SasakiLikeResult = None,
    ricci_tensor: Tensor = None,
    structure: AccRStructure = None,
) -> tuple:
    """Soliton constants forced by a vertical potential on a Sasaki-like structure.

    Away from the branch point beta = -1/(2n):

        lam       = 1 - k - tau (1 + 2 n beta) / (2n)
        lam_assoc = 1 + k - tau_assoc (1 + 2 n beta) / (2n)

    At the branch point both scalar-curvature terms drop out, leaving
    lam = 1 - k and lam_assoc = 1 + k with (tau, tau_assoc) constrained
    only through their sum. Returns (lam, lam_assoc, report); the report
    re-derives the constants through every independent identity the
    theorem provides. This is vertical_solutions at one beta, then
    ricci_reconstruction when a Ricci tensor and structure are given;
    vertical_rows uses the same two parts for many beta.
    """
    if classification is not None:
        _require_sasaki_like(classification)
    scalar_sum, (lam,), (lam_assoc,), (checks,), (notes,) = vertical_solutions(
        k, tau, tau_assoc, n, (beta,)
    )
    report = TheoremReport([scalar_sum, *checks], notes)
    if ricci_tensor is not None and structure is not None:
        reconstruction = ricci_reconstruction_check(ricci_tensor, tau, tau_assoc, n, structure)
        report.checks.append(reconstruction)
    return lam, lam_assoc, report


def _require_sasaki_like(classification: SasakiLikeResult) -> None:
    if not classification.is_sasaki_like:
        raise NotSasakiLike("the vertical-potential theorem needs a Sasaki-like structure")


def ricci_reconstruction_check(
    ricci_tensor: Tensor, tau: float, tau_assoc: float, n: int, structure: AccRStructure
) -> Check:
    """rho rebuilt from (tau, tau_assoc) alone, which holds at every beta."""
    expected = (
        (tau / (2.0 * n) - 1.0) * structure.g.matrix
        + (tau_assoc / (2.0 * n) - 1.0) * structure.g_assoc.matrix
        - ((tau + tau_assoc) / (2.0 * n) - 2.0 * (n + 1.0)) * structure.eta_outer
    )
    return Check.between(
        "ricci_reconstruction",
        ricci_tensor.data,
        expected,
        note="rho rebuilt from (tau, tau_assoc) alone",
    )


_VERTICAL_BRANCH_NOTE = (
    "beta at the branch point -1/(2n): scalar curvatures are not "
    "separately determined, only their sum is constrained"
)


def vertical_solutions(k: VerticalScalar, tau: float, tau_assoc: float, n: int, betas) -> tuple:
    """The solve of solve_vertical_soliton for one potential at each of betas.

    Returns (scalar_sum, lams, lam_assocs, checks, notes). scalar_sum is
    the check tau + tau_assoc = 4n(k' + n + 1), which holds at every beta.
    The lists hold, per beta, the solved constants, the checks that
    involve them (only k_derivative_from_trace at the branch point) and a
    fresh list of notes.
    """
    k_prime = k.xi_derivative
    scalar_sum = Check.between(
        "scalar_sum_from_k_derivative",
        tau + tau_assoc,
        4.0 * n * (k_prime + n + 1.0),
        note="tau + tau_assoc = 4n(k' + n + 1)",
    )
    lams, lam_assocs, checks, notes = [], [], [], []
    for beta in betas:
        factor = 1.0 + 2.0 * n * beta
        degenerate = is_degenerate_beta(beta, n)
        if degenerate:
            lam, lam_assoc = 1.0 - k.value, 1.0 + k.value
        else:
            lam = 1.0 - k.value - tau * factor / (2.0 * n)
            lam_assoc = 1.0 + k.value - tau_assoc * factor / (2.0 * n)
        beta_checks = (
            Check.measure(
                "k_derivative_from_trace",
                k_prime + 0.5 * (lam + lam_assoc + beta * (tau + tau_assoc) + 2.0 * n),
                note="k' = -(lam + lam_assoc + beta(tau + tau_assoc) + 2n)/2",
            ),
        )
        if not degenerate:
            beta_checks += (
                Check.measure(
                    "k_derivative_consistency",
                    k_prime - (-(lam + lam_assoc - 2.0) / (2.0 * factor) - n - 1.0),
                    note="k' recovered from the solved constants",
                ),
                Check.measure(
                    "scalar_sum_from_lambdas",
                    tau + tau_assoc + 2.0 * n * (lam + lam_assoc - 2.0) / factor,
                    note="tau + tau_assoc recovered from the solved constants",
                ),
            )
        lams.append(lam)
        lam_assocs.append(lam_assoc)
        checks.append(beta_checks)
        notes.append([_VERTICAL_BRANCH_NOTE] if degenerate else [])
    return scalar_sum, lams, lam_assocs, checks, notes


def verify_conformal_theorem(
    beta: float,
    psi: float,
    psi_assoc: float,
    lam: float,
    lam_assoc: float,
    tau: float,
    tau_assoc: float,
    n: int,
    *,
    ricci_tensor: Tensor = None,
    structure: AccRStructure = None,
) -> TheoremReport:
    """Check every identity a conformal potential forces on a Sasaki-like soliton.

    The theorem constrains only the sums psi + lam and psi_assoc + lam_assoc,
    never the summands separately; callers that know just the sums can pass
    them through psi with lam = 0. Checks that require dividing by
    1 + 2 n beta, 1 + (2n+1) beta, or beta are guarded and skipped at the
    respective parameter values; the degenerate beta = -1/(2n) branch gets
    its own pair of checks instead.

    This is one conformal_row of one conformal_level; callers that evaluate
    many beta at one curvature point build the level once.
    """
    level = conformal_level(tau, tau_assoc, n, ricci_tensor=ricci_tensor, structure=structure)
    return conformal_row(level, beta, psi + lam, psi_assoc + lam_assoc)


class ConformalLevel(NamedTuple):
    """The conformal theorem at one curvature point, with the checks that
    are free of beta and the potential.

    head opens every report of the level (scalar_sum, after any checks a
    scenario prepends) and tail closes it (ricci_einstein_like; empty
    without a Ricci tensor and structure). ricci_tensor and structure are
    both None when either was not supplied; tau_star is then derived as
    2n - tau_assoc instead of the Ricci tensor's phi-trace, and notes says so.
    """

    tau: float
    tau_assoc: float
    n: int
    tau_star: float
    ricci_tensor: Tensor
    structure: AccRStructure
    head: tuple
    tail: tuple
    notes: tuple


def conformal_level(
    tau: float,
    tau_assoc: float,
    n: int,
    *,
    ricci_tensor: Tensor = None,
    structure: AccRStructure = None,
) -> ConformalLevel:
    """The beta-free part of verify_conformal_theorem at (tau, tau_assoc)."""
    scalar_sum = Check.between(
        "scalar_sum", tau + tau_assoc, 4.0 * n * (n + 1.0), note="tau + tau_assoc = 4n(n+1)"
    )
    if ricci_tensor is None or structure is None:
        notes = ("tau_star derived from tau_assoc; no Ricci tensor supplied",)
        return ConformalLevel(
            tau, tau_assoc, n, 2.0 * n - tau_assoc, None, None, (scalar_sum,), (), notes
        )
    einstein_form = (
        ricci_tensor.data
        - (tau / (2.0 * n) - 1.0) * structure.g.matrix
        - (tau_assoc / (2.0 * n) - 1.0) * structure.g_assoc.matrix
    )
    einstein_like = Check.measure(
        "ricci_einstein_like",
        einstein_form,
        note="rho = (tau/2n - 1) g + (tau_assoc/2n - 1) g_assoc",
    )
    tau_star = phi_trace(ricci_tensor, structure.g, structure.phi)
    return ConformalLevel(
        tau, tau_assoc, n, tau_star, ricci_tensor, structure, (scalar_sum,), (einstein_like,), ()
    )


def conformal_row(
    level: ConformalLevel, beta: float, sum_g: float, sum_assoc: float, notes=()
) -> TheoremReport:
    """The report of the conformal theorem at beta for the sums
    sum_g = psi + lam and sum_assoc = psi_assoc + lam_assoc.

    It lists level.head, the checks that involve beta or the sums, then
    level.tail; its notes are level.notes, then notes, then the branch's.
    """
    tau, tau_assoc, n = level.tau, level.tau_assoc, level.n
    report = TheoremReport(list(level.head), [*level.notes, *notes])
    factor = 1.0 + 2.0 * n * beta

    report.add(
        "g_trace_closure",
        (1.0 + (2.0 * n + 1.0) * beta) * tau
        + beta * tau_assoc
        + (2.0 * n + 1.0) * sum_g
        + sum_assoc,
        note="g-trace of the soliton equation",
    )
    report.add(
        "reeb_trace_closure",
        beta * (tau + tau_assoc) + sum_g + sum_assoc + 2.0 * n,
        note="evaluation on (xi, xi)",
    )
    report.add(
        "phi_trace_relation",
        level.tau_star - 2.0 * n * (sum_assoc + beta * tau_assoc),
        note="phi-trace of the soliton equation",
    )

    if is_degenerate_beta(beta, n):
        report.add_note(
            "beta at the branch point -1/(2n): the scalar curvatures decouple "
            "from the potential sums"
        )
        report.add("unit_sum_g", sum_g - 1.0, note="psi + lam = 1 at the branch point")
        report.add(
            "unit_sum_assoc",
            sum_assoc - 1.0,
            note="psi_assoc + lam_assoc = 1 at the branch point",
        )
    else:
        report.add(
            "tau_from_sums",
            tau + 2.0 * n * (sum_g - 1.0) / factor,
            note="tau = -2n(psi + lam - 1)/(1 + 2n beta)",
        )
        report.add(
            "tau_assoc_from_sums",
            tau_assoc + 2.0 * n * (sum_assoc - 1.0) / factor,
            note="tau_assoc = -2n(psi_assoc + lam_assoc - 1)/(1 + 2n beta)",
        )
        report.add(
            "sums_closure",
            sum_g + sum_assoc + 2.0 * n * (1.0 + 2.0 * (n + 1.0) * beta),
            note="the two sums are not independent",
        )
        nested_factor = 1.0 + (2.0 * n + 1.0) * beta
        if abs(nested_factor) > DEGENERATE_BETA_TOL:
            report.add(
                "tau_nested_form",
                tau
                + ((2.0 * n + 1.0) * sum_g + 1.0 + (sum_assoc - 1.0) / factor)
                / nested_factor,
                note="tau eliminated through the g-trace instead of the sums",
            )
        else:
            report.add_note(
                "beta = -1/(2n+1): nested tau elimination skipped (guarded division)"
            )
        if abs(beta) > DEGENERATE_BETA_TOL:
            report.add(
                "tau_assoc_solved_form",
                tau_assoc
                + ((sum_g - 1.0) / factor + sum_assoc + 2.0 * n + 1.0) / beta,
                note="tau_assoc eliminated through the g-trace",
            )
        else:
            report.add_note("beta = 0: tau_assoc elimination skipped (guarded division)")

    structure = level.structure
    if structure is not None:
        soliton_form = (
            level.ricci_tensor.data
            + (sum_g + beta * tau) * structure.g.matrix
            + (sum_assoc + beta * tau_assoc) * structure.g_assoc.matrix
        )
        report.add(
            "ricci_from_soliton_coeffs",
            soliton_form,
            note="rho + (psi+lam+beta tau) g + (psi_assoc+lam_assoc+beta tau_assoc) g_assoc = 0",
        )
    report.checks.extend(level.tail)
    return report


class VerticalLevel(NamedTuple):
    """The potential theta = k xi on one analysis, with the checks that depend on it.

    lie_g and lie_assoc are the connection-based Lie derivatives of g and
    g_assoc, which every soliton residual uses. On a Sasaki-like structure
    checks compares them with their closed forms; a scenario may append
    checks of its own.
    """

    k: VerticalScalar
    lie_g: Tensor
    lie_assoc: Tensor
    checks: tuple


def vertical_level(a: Analysis, k: VerticalScalar) -> VerticalLevel:
    """Lie derivatives of both metrics along k xi, checked against their
    closed forms on a Sasaki-like structure."""
    s, conn = a.s, a.pkg.conn
    potential = VerticalPotential(k)
    lie_g = lie_derivative_metric(s.g, conn, potential, s)
    lie_assoc = lie_derivative_metric(s.g_assoc, conn, potential, s)
    checks = ()
    if a.classification.is_sasaki_like:
        closed_g, closed_assoc = vertical_lie_closed_form(k, s, a.classification)
        checks = (
            Check.between("lie_g_closed_vs_connection", closed_g.data, lie_g.data, tol=1e-10),
            Check.between(
                "lie_assoc_closed_vs_connection", closed_assoc.data, lie_assoc.data, tol=1e-10
            ),
        )
    return VerticalLevel(k, lie_g, lie_assoc, checks)


def vertical_rows(
    a: Analysis,
    levels,
    betas,
    lam: float = None,
    lam_assoc: float = None,
    *,
    solve: bool = True,
    mu: float = None,
) -> list:
    """The vertical-potential theorem on one analysis for the potentials
    levels[j] at betas[i].

    rows[j][i] is (lam, lam_assoc, checks, residual, notes): the constants
    in the soliton residual (lam_assoc is None for the single-metric
    equation), the checks that precede the residual check, the residual
    check, and a fresh notes list. A report lists checks, then residual.

    With mu the claim is the single-metric equation, lam defaults to 0
    and nothing is solved. Otherwise, with solve, the constants are solved
    at each beta (which needs a Sasaki-like structure) and every identity
    of solve_vertical_soliton is checked; a supplied lam or lam_assoc
    replaces its solved value in the soliton residual and is checked
    against it. Without solve, lam and lam_assoc are both required and only
    the residual is checked. The check that depends on the analysis alone
    is computed once for all levels, and the soliton residuals of all betas
    of a level come from one array operation.
    """
    s, pkg = a.s, a.pkg
    tau, tau_assoc, n = pkg.tau, a.assoc_pkg.tau, s.n
    notes = []
    if not a.classification.is_sasaki_like:
        notes.append(
            "structure is not Sasaki-like: closed-form Lie derivatives do not "
            "apply, connection-based values used throughout"
        )
    if mu is None and solve:
        _require_sasaki_like(a.classification)
        reconstruction = ricci_reconstruction_check(pkg.ricci, tau, tau_assoc, n, s)
    by_level = []
    for level in levels:
        rows = []
        if mu is not None:
            eta_lam = 0.0 if lam is None else lam
            for beta in betas:
                spec = SolitonSpec(beta=beta, lam=eta_lam, mu=mu)
                lhs = eta_rb_residual(pkg.ricci, level.lie_g, s, spec, tau)
                check = Check.measure("eta_soliton_residual", lhs.data, tol=1e-10)
                rows.append((eta_lam, None, level.checks, check, list(notes)))
            by_level.append(rows)
            continue
        count = len(betas)
        if solve:
            scalar_sum, solved_lams, solved_assocs, solved_checks, solved_notes = (
                vertical_solutions(level.k, tau, tau_assoc, n, betas)
            )
        else:
            solved_lams, solved_assocs = [lam] * count, [lam_assoc] * count
        lams = solved_lams if lam is None else [lam] * count
        lam_assocs = solved_assocs if lam_assoc is None else [lam_assoc] * count
        norms = rb_like_residual_norms(
            pkg.ricci, level.lie_g, level.lie_assoc, s, betas, lams, lam_assocs, tau, tau_assoc
        )
        for i, norm in enumerate(norms):
            residual = Check.measure("soliton_residual", norm, tol=1e-10)
            if not solve:
                rows.append((lams[i], lam_assocs[i], level.checks, residual, list(notes)))
                continue
            # solving needs a Sasaki-like structure, which has no notes
            checks = (*level.checks, scalar_sum, *solved_checks[i], reconstruction)
            if lam is not None or lam_assoc is not None:
                checks += (
                    Check.between(
                        "lambda_matches_solution",
                        lams[i],
                        solved_lams[i],
                        tol=1e-10,
                        note="supplied lam against the solved value",
                    ),
                    Check.between(
                        "lambda_assoc_matches_solution",
                        lam_assocs[i],
                        solved_assocs[i],
                        tol=1e-10,
                        note="supplied lam_assoc against the solved value",
                    ),
                )
            rows.append((lams[i], lam_assocs[i], checks, residual, solved_notes[i]))
        by_level.append(rows)
    return by_level


def conformal_report(
    a: Analysis, beta: float, psi: float, psi_assoc: float, lam: float, lam_assoc: float
) -> TheoremReport:
    """The conformal row of one analysis, then the soliton residual under
    the defining assumption L_theta g = 2 psi g and
    L_theta g_assoc = 2 psi_assoc g_assoc."""
    s, pkg, tau_assoc = a.s, a.pkg, a.assoc_pkg.tau
    level = conformal_level(pkg.tau, tau_assoc, s.n, ricci_tensor=pkg.ricci, structure=s)
    report = conformal_row(level, beta, psi + lam, psi_assoc + lam_assoc)
    spec = SolitonSpec(beta=beta, lam=lam, lam_assoc=lam_assoc)
    lie_g = Tensor(s.frame, 2.0 * psi * s.g.matrix)
    lie_assoc = Tensor(s.frame, 2.0 * psi_assoc * s.g_assoc.matrix)
    lhs = rb_like_residual(pkg.ricci, lie_g, lie_assoc, s, spec, pkg.tau, tau_assoc)
    report.add("soliton_residual", lhs.data, tol=1e-10)
    return report
