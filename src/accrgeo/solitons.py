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

The report builders build check tables (CheckTable): one Column per
check, its residuals computed over all rows at once in the operations of
the one-point formula, in their order; a table of one row computes them in
Python numbers (_operands). A check computed once per level is a Column
too (Column.between for a closed form), which Column.shared copies onto the
rows of that level. A row's TheoremReport is built from its table only when
it is read, and is frozen; _judge judges a table's rows and a report's checks
alike. A report's checks are tensors.Check (re-exported here).

Each theorem has one builder over (beta, level). vertical_level holds the
Lie derivatives of one potential, vertical_solutions solves the constants
that potentials force at all betas, and vertical_rows checks the equation,
and the Lie derivatives against their closed forms, for several potentials
of one analysis; solve_vertical_soliton is one row.
conformal_level holds, at many curvature points at once, the checks that
are free of beta and the potential, and conformal_row builds the table of
its points at several betas; verify_conformal_theorem and
conformal_report are one row, and example1 builds one level per n.
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


@dataclass(frozen=True)
class TheoremReport:
    """An ordered list of checks plus free-form notes, frozen once built."""

    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(check.name == name for check in self.checks)

    def verdict(self, tol: float = None) -> tuple:
        """(passed, worst check) of the report as the one row of _judge; the
        worst check is None when there are no checks."""
        if not self.checks:
            return True, None
        residual = np.array([[check.residual for check in self.checks]])
        limit = np.array([check.tol for check in self.checks]) if tol is None else tol
        (passed,), (worst,) = _judge(residual, limit, np.ones(residual.shape, bool))
        return bool(passed), self.checks[worst]

    @property
    def passed(self) -> bool:
        return self.verdict()[0]

    def worst(self) -> Check:
        return self.verdict()[1]


def _judge(residual: np.ndarray, limit, present: np.ndarray) -> tuple:
    """(passed, worst) of each row of a (rows, checks) residual matrix: the
    one verdict on reports. The checks that present marks are judged against
    limit, which is tol when one is given and each check's own tolerance
    otherwise; every row holds a check.

    A row passes when each of its checks passes as Check.passes judges it.
    worst is the column of its first check with the largest residual / limit.
    A NaN margin is never the largest, but a NaN in a row's first check keeps
    that check the worst, as a scan that compares each margin with > would.
    """
    passed = (Check("", residual, limit).passes() | ~present).all(axis=1)
    margin = np.where(present, residual / limit, -np.inf)
    nan, first = np.isnan(margin), present.argmax(axis=1)
    margin[nan] = -np.inf
    return passed, np.where(nan[np.arange(len(margin)), first], first, margin.argmax(axis=1))


class Column(NamedTuple):
    """One check over the rows of a CheckTable, its name, tol and note
    stored once: residual holds |value| of each row, and present marks the
    rows that hold it, each a sequence over the rows (a list for one row)."""

    name: str
    residual: object
    tol: float
    note: str
    present: object

    @classmethod
    def of(cls, name: str, values, tol: float = DEFAULT_TOL, note: str = "", present=True):
        """The column of an array of values, one per row in C order, or of
        the number of a table's one row (see _operands)."""
        if not isinstance(values, np.ndarray):
            return cls(name, [abs(values)], tol, note, [present])
        held = np.full(values.shape, present)
        return cls(name, np.abs(values).ravel(), tol, note, held.ravel())

    @classmethod
    def between(cls, name: str, computed, expected, tol: float = DEFAULT_TOL, note: str = ""):
        """The column of one level's check of computed against its closed
        form: the residual of Check.between, held as a list."""
        residual = Check.between(name, computed, expected, tol).residual
        return cls(name, [residual], tol, note, [True])

    def shared(self, level) -> "Column":
        """This column of one residual per level as a column over rows, row r
        holding the residual of level[r]; a column held as a list (one
        level, or a table of one row) stays a list."""
        if isinstance(self.residual, list):
            residual = [self.residual[j] for j in level]
            return self._replace(residual=residual, present=[True] * len(level))
        return self._replace(residual=self.residual[level], present=np.ones(len(level), bool))


class CheckTable(NamedTuple):
    """The reports of many rows, held by check rather than by report:
    columns lists, in report order, the checks a row's report may hold, and
    notes lists (text, present) in order, present (None: every row) marking
    the rows whose report holds the note."""

    rows: int
    columns: tuple = ()
    notes: tuple = ()

    def report(self, row: int) -> TheoremReport:
        """The report of one row, built from the table."""
        checks = [
            Check(c.name, float(c.residual[row]), c.tol, c.note)
            for c in self.columns
            if c.present[row]
        ]
        notes = [text for text, present in self.notes if present is None or present[row]]
        return TheoremReport(checks, notes)

    def verdicts(self, tol: float = None) -> tuple:
        """(passed, worst check name, worst residual), each a list over the
        rows: TheoremReport.verdict of each row's report, by one _judge."""
        residual = np.stack([c.residual for c in self.columns], axis=1)
        limit = np.array([c.tol for c in self.columns]) if tol is None else tol
        present = np.stack([c.present for c in self.columns], axis=1)
        passed, worst = _judge(residual, limit, present)
        names = [self.columns[column].name for column in worst.tolist()]
        return passed.tolist(), names, residual[np.arange(self.rows), worst].tolist()


def _operands(betas, *per_level) -> tuple:
    """beta and each sequence of per_level as operands of the row expressions
    of a table over (betas, levels): beta[:, None] and arrays over the levels,
    or for one row the values themselves, which Python then computes with the
    IEEE operations numpy applies to each element of an array."""
    if len(betas) * len(per_level[0]) == 1:
        return (float(betas[0]), *(values[0] for values in per_level))
    return (np.asarray(betas, dtype=float)[:, None], *map(np.asarray, per_level))


def _quotient(numerator, denominator, where):
    """numerator / denominator on the rows where `where` holds, 0.0 elsewhere:
    a guarded division, evaluated only where its guard holds."""
    if not isinstance(where, np.ndarray):
        return numerator / denominator if where else 0.0
    shape = np.broadcast(numerator, denominator).shape
    return np.divide(numerator, denominator, out=np.zeros(shape), where=where)


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
    return Tensor(s.frame, _lie_derivative(_d_theta(potential.k, conn, s), metric.matrix))


def _d_theta(k: VerticalScalar, conn: Connection, s: AccRStructure) -> np.ndarray:
    """D theta of theta = k xi: (D_x theta)^m is row x, column m."""
    xi_field = s.xi.data
    return k.xi_derivative * np.outer(xi_field, s.eta.data) + k.value * (
        conn.derivative_of_field(xi_field)
    )


def _lie_derivative(d_theta: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """L_theta of the constant-coefficient metric matrix, from d_theta =
    _d_theta; frozen, so that a Tensor keeps it without a copy."""
    half = np.einsum("mi,mj->ij", d_theta, matrix)
    lie = half + half.T
    lie.setflags(write=False)
    return lie


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
    forms = _vertical_closed_forms(k.value, k.xi_derivative, s)
    return tuple(Tensor(s.frame, form) for form in forms)


def _vertical_closed_forms(k_value, k_prime, s: AccRStructure) -> tuple:
    """The arrays of vertical_lie_closed_form, for any structure; k_value
    and k_prime are numbers, or arrays that stack the forms."""
    eta_outer = s.eta_outer
    h = np.multiply.outer(2.0 * k_prime, eta_outer)
    lie_g = h - np.multiply.outer(2.0 * k_value, s.g_assoc.matrix - eta_outer)
    lie_assoc = h + np.multiply.outer(2.0 * k_value, s.g.matrix - eta_outer)
    return lie_g, lie_assoc


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
    assoc = (lie_assoc.data, spec.lam_assoc, tau_assoc)
    lhs = _rb_like_lhs(ricci_tensor.data, s, spec.beta, lie_g.data, spec.lam, tau, assoc)
    return Tensor(s.frame, lhs)


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
    lhs = _rb_like_lhs(ricci_tensor.data, s, spec.beta, lie_g.data, spec.lam, tau, mu=spec.mu)
    return Tensor(s.frame, lhs)


def _rb_like_lhs(ricci, s, beta, lie_g, lam, tau, assoc=None, mu=None) -> np.ndarray:
    """rho + (1/2) L_theta g + (lam + beta tau) g on arrays, then with assoc
    = (L_theta g_assoc, lam_assoc, tau_assoc) the two-metric equation's terms
    in g_assoc, and with mu the single-metric equation's mu eta (.) eta.

    beta, lam and lam_assoc are numbers, or arrays that stack the results
    along leading axes, as do stacks of Lie derivatives; each entry takes
    the same floating-point operations in the same order either way.
    """
    lhs = ricci + 0.5 * lie_g
    if assoc is not None:
        lhs = lhs + 0.5 * assoc[0]
    lhs = lhs + np.multiply.outer(lam + beta * tau, s.g.matrix)
    if assoc is not None:
        lhs = lhs + np.multiply.outer(assoc[1] + beta * assoc[2], s.g_assoc.matrix)
    if mu is not None:
        lhs = lhs + mu * s.eta_outer
    return lhs


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
    lam, lam_assoc, table = vertical_solutions((k,), tau, tau_assoc, n, (beta,))
    if ricci_tensor is not None and structure is not None:
        reconstruction = ricci_reconstruction_check(ricci_tensor, tau, tau_assoc, n, structure)
        table = table._replace(columns=(*table.columns, reconstruction.shared([0])))
    return lam, lam_assoc, table.report(0)


def _require_sasaki_like(classification: SasakiLikeResult) -> None:
    if not classification.is_sasaki_like:
        raise NotSasakiLike("the vertical-potential theorem needs a Sasaki-like structure")


def ricci_reconstruction_check(
    ricci_tensor: Tensor, tau: float, tau_assoc: float, n: int, structure: AccRStructure
) -> Column:
    """rho rebuilt from (tau, tau_assoc) alone, which holds at every beta: a
    one-level column."""
    expected = (
        (tau / (2.0 * n) - 1.0) * structure.g.matrix
        + (tau_assoc / (2.0 * n) - 1.0) * structure.g_assoc.matrix
        - ((tau + tau_assoc) / (2.0 * n) - 2.0 * (n + 1.0)) * structure.eta_outer
    )
    return Column.between(
        "ricci_reconstruction",
        ricci_tensor.data,
        expected,
        note="rho rebuilt from (tau, tau_assoc) alone",
    )


def vertical_solutions(ks, tau: float, tau_assoc: float, n: int, betas) -> tuple:
    """The solve of solve_vertical_soliton for the potentials k xi, k in ks,
    each at every beta of betas, in row expressions (see _operands).

    Returns (lam, lam_assoc, table): the constants solved at betas[i] for
    ks[j] are lam[i, j] and lam_assoc[i, j] (numbers for one row), and row
    i * len(ks) + j of table holds its checks. The first,
    scalar_sum_from_k_derivative, tau + tau_assoc = 4n(k' + n + 1), holds at
    every beta and is computed once per potential; then come the checks that
    involve the solved constants (only k_derivative_from_trace at the branch
    point), and a note marks the rows at the branch point.
    """
    rows = len(betas) * len(ks)
    beta, k_value, k_prime = _operands(betas, [k.value for k in ks], [k.xi_derivative for k in ks])
    scalar_sum = Column.of(
        "scalar_sum_from_k_derivative",
        tau + tau_assoc - 4.0 * n * (k_prime + n + 1.0),
        note="tau + tau_assoc = 4n(k' + n + 1)",
    )
    factor = 1.0 + 2.0 * n * beta
    branch = is_degenerate_beta(beta, n)
    regular = np.logical_not(branch)
    # the scalar curvatures drop out at the branch point
    lam = 1.0 - k_value - _quotient(tau * factor, 2.0 * n, regular)
    lam_assoc = 1.0 + k_value - _quotient(tau_assoc * factor, 2.0 * n, regular)
    columns = (
        scalar_sum.shared([row % len(ks) for row in range(rows)]),
        Column.of(
            "k_derivative_from_trace",
            k_prime + 0.5 * (lam + lam_assoc + beta * (tau + tau_assoc) + 2.0 * n),
            note="k' = -(lam + lam_assoc + beta(tau + tau_assoc) + 2n)/2",
        ),
        Column.of(
            "k_derivative_consistency",
            k_prime - (_quotient(-(lam + lam_assoc - 2.0), 2.0 * factor, regular) - n - 1.0),
            note="k' recovered from the solved constants",
            present=regular,
        ),
        Column.of(
            "scalar_sum_from_lambdas",
            tau + tau_assoc + _quotient(2.0 * n * (lam + lam_assoc - 2.0), factor, regular),
            note="tau + tau_assoc recovered from the solved constants",
            present=regular,
        ),
    )
    note = (
        "beta at the branch point -1/(2n): scalar curvatures are not "
        "separately determined, only their sum is constrained"
    )
    return lam, lam_assoc, CheckTable(rows, columns, ((note, np.repeat(branch, len(ks))),))


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

    This is the one row of conformal_row at a one-point conformal_level;
    callers that evaluate many beta or points build the level once.
    """
    ricci = None if ricci_tensor is None else ricci_tensor.data[None]
    level = conformal_level([tau], [tau_assoc], n, ricci=ricci, structure=structure)
    return conformal_row(level, (beta,), psi + lam, psi_assoc + lam_assoc).report(0)


class ConformalLevel(NamedTuple):
    """The conformal theorem at the curvature points of one n and one
    structure, with the checks that are free of beta and the potential.

    tau, tau_assoc and tau_star are arrays over the points, ricci stacks
    their Ricci tensors, and head and tail are columns of one residual per
    point: head opens every report (scalar_sum, after any checks a scenario
    prepends) and tail closes it (ricci_einstein_like). ricci and structure
    are both None when either was not supplied; tail is then empty, tau_star
    is 2n - tau_assoc instead of the phi-trace, and notes says so.
    """

    tau: np.ndarray
    tau_assoc: np.ndarray
    n: int
    tau_star: np.ndarray
    ricci: np.ndarray
    structure: AccRStructure
    head: tuple
    tail: tuple
    notes: tuple


def conformal_level(
    tau, tau_assoc, n: int, *, ricci: np.ndarray = None, structure: AccRStructure = None
) -> ConformalLevel:
    """The beta-free part of verify_conformal_theorem at the points j of the
    1-d arrays tau and tau_assoc, ricci[j] the Ricci tensor at point j."""
    tau, tau_assoc = np.asarray(tau, dtype=float), np.asarray(tau_assoc, dtype=float)
    scalar_sum = Column.of(
        "scalar_sum", tau + tau_assoc - 4.0 * n * (n + 1.0), note="tau + tau_assoc = 4n(n+1)"
    )
    if ricci is None or structure is None:
        notes = ("tau_star derived from tau_assoc; no Ricci tensor supplied",)
        return ConformalLevel(
            tau, tau_assoc, n, 2.0 * n - tau_assoc, None, None, (scalar_sum,), (), notes
        )
    einstein_form = (
        ricci
        - (tau / (2.0 * n) - 1.0)[:, None, None] * structure.g.matrix
        - (tau_assoc / (2.0 * n) - 1.0)[:, None, None] * structure.g_assoc.matrix
    )
    einstein_like = Column.of(
        "ricci_einstein_like",
        np.abs(einstein_form).max(axis=(-2, -1)),
        note="rho = (tau/2n - 1) g + (tau_assoc/2n - 1) g_assoc",
    )
    # the phi-trace of tensors.phi_trace, one per point
    tau_star = np.einsum("ij,tik,kj->t", structure.g.inverse, ricci, structure.phi.data)
    return ConformalLevel(
        tau, tau_assoc, n, tau_star, ricci, structure, (scalar_sum,), (einstein_like,), ()
    )


def conformal_row(level: ConformalLevel, beta, sum_g, sum_assoc, notes=()) -> CheckTable:
    """The reports of the conformal theorem at each of the 1-d array beta
    and each point of level, for the sums sum_g = psi + lam and
    sum_assoc = psi_assoc + lam_assoc.

    Row i * points + j is beta[i] at point j. The level's arrays broadcast
    against beta[:, None], as do sum_g and sum_assoc, so each check is one
    array expression over all rows. A report lists its level's head, the
    checks that involve beta or the sums, then its level's tail; its notes
    are the level's notes, then notes, then the branch's.
    """
    n, structure = level.n, level.structure
    scalars = (level.tau, level.tau_assoc, level.tau_star)
    beta, sum_g, sum_assoc, tau, tau_assoc, tau_star = np.broadcast_arrays(
        np.asarray(beta, dtype=float)[:, None], sum_g, sum_assoc, *scalars
    )
    factor = 1.0 + 2.0 * n * beta
    nested_factor = 1.0 + (2.0 * n + 1.0) * beta
    branch = is_degenerate_beta(beta, n)
    regular = ~branch
    nested = regular & (np.abs(nested_factor) > DEGENERATE_BETA_TOL)
    solved = regular & (np.abs(beta) > DEGENERATE_BETA_TOL)
    columns = [
        Column.of(
            "g_trace_closure",
            (1.0 + (2.0 * n + 1.0) * beta) * tau
            + beta * tau_assoc
            + (2.0 * n + 1.0) * sum_g
            + sum_assoc,
            note="g-trace of the soliton equation",
        ),
        Column.of(
            "reeb_trace_closure",
            beta * (tau + tau_assoc) + sum_g + sum_assoc + 2.0 * n,
            note="evaluation on (xi, xi)",
        ),
        Column.of(
            "phi_trace_relation",
            tau_star - 2.0 * n * (sum_assoc + beta * tau_assoc),
            note="phi-trace of the soliton equation",
        ),
        Column.of(
            "unit_sum_g", sum_g - 1.0, note="psi + lam = 1 at the branch point", present=branch
        ),
        Column.of(
            "unit_sum_assoc",
            sum_assoc - 1.0,
            note="psi_assoc + lam_assoc = 1 at the branch point",
            present=branch,
        ),
        Column.of(
            "tau_from_sums",
            tau + _quotient(2.0 * n * (sum_g - 1.0), factor, regular),
            note="tau = -2n(psi + lam - 1)/(1 + 2n beta)",
            present=regular,
        ),
        Column.of(
            "tau_assoc_from_sums",
            tau_assoc + _quotient(2.0 * n * (sum_assoc - 1.0), factor, regular),
            note="tau_assoc = -2n(psi_assoc + lam_assoc - 1)/(1 + 2n beta)",
            present=regular,
        ),
        Column.of(
            "sums_closure",
            sum_g + sum_assoc + 2.0 * n * (1.0 + 2.0 * (n + 1.0) * beta),
            note="the two sums are not independent",
            present=regular,
        ),
        Column.of(
            "tau_nested_form",
            tau
            + _quotient(
                (2.0 * n + 1.0) * sum_g + 1.0 + _quotient(sum_assoc - 1.0, factor, nested),
                nested_factor,
                nested,
            ),
            note="tau eliminated through the g-trace instead of the sums",
            present=nested,
        ),
        Column.of(
            "tau_assoc_solved_form",
            tau_assoc
            + _quotient(
                _quotient(sum_g - 1.0, factor, solved) + sum_assoc + 2.0 * n + 1.0, beta, solved
            ),
            note="tau_assoc eliminated through the g-trace",
            present=solved,
        ),
    ]
    if structure is not None:
        soliton_form = (
            level.ricci
            + (sum_g + beta * tau)[..., None, None] * structure.g.matrix
            + (sum_assoc + beta * tau_assoc)[..., None, None] * structure.g_assoc.matrix
        )
        note = "rho + (psi+lam+beta tau) g + (psi_assoc+lam_assoc+beta tau_assoc) g_assoc = 0"
        form_residual = np.abs(soliton_form).max(axis=(-2, -1))
        columns.append(Column.of("ricci_from_soliton_coeffs", form_residual, note=note))
    row_level = np.arange(beta.size) % len(level.tau)
    columns = (
        *(column.shared(row_level) for column in level.head),
        *columns,
        *(column.shared(row_level) for column in level.tail),
    )
    branch_notes = {
        "beta at the branch point -1/(2n): the scalar curvatures decouple "
        "from the potential sums": branch,
        "beta = -1/(2n+1): nested tau elimination skipped (guarded division)": regular & ~nested,
        "beta = 0: tau_assoc elimination skipped (guarded division)": regular & ~solved,
    }
    notes = [(text, None) for text in (*level.notes, *notes)]
    notes += [(text, present.ravel()) for text, present in branch_notes.items()]
    return CheckTable(beta.size, columns, tuple(notes))


class VerticalLevel(NamedTuple):
    """The potential theta = k xi on one analysis.

    lie_g and lie_assoc are the connection-based Lie derivatives of g and
    g_assoc, which every soliton residual uses; vertical_rows compares
    them with their closed forms on a Sasaki-like structure.
    """

    k: VerticalScalar
    lie_g: Tensor
    lie_assoc: Tensor


def vertical_level(a: Analysis, k: VerticalScalar) -> VerticalLevel:
    """Lie derivatives of both metrics along k xi: lie_derivative_metric,
    with D theta formed once for both metrics."""
    s = a.s
    d_theta = _d_theta(k, a.pkg.conn, s)
    lie_g, lie_assoc = (_lie_derivative(d_theta, m.matrix) for m in (s.g, s.g_assoc))
    return VerticalLevel(k, Tensor(s.frame, lie_g), Tensor(s.frame, lie_assoc))


def vertical_rows(
    a: Analysis,
    levels,
    betas,
    lam: float = None,
    lam_assoc: float = None,
    *,
    solve: bool = True,
    mu: float = None,
    level_columns=(),
) -> tuple:
    """The vertical-potential theorem on one analysis for the potentials
    levels[j] at betas[i].

    Returns (lam, lam_assoc, table): the constants in the soliton residual
    (lam_assoc is None for the single-metric equation), each an array over
    (betas, levels) or a number for every row (see _operands), and table,
    whose row i * len(levels) + j holds the report, its last check the
    soliton residual.

    With mu the claim is the single-metric equation, lam defaults to 0
    and nothing is solved. Otherwise, with solve, the constants are solved
    at each beta (which needs a Sasaki-like structure) and every identity
    of solve_vertical_soliton is checked; a supplied lam or lam_assoc
    replaces its solved value in the soliton residual and is checked
    against it. Without solve, lam and lam_assoc are both required and only
    the residual is checked. A report opens with the Lie derivatives against
    their closed forms (Sasaki-like structures only), then level_columns, a
    scenario's columns of one residual per level. The checks of a level are
    computed once for all rows, the check of the analysis alone once, and
    the solve and the soliton residuals are row expressions over (betas,
    levels) (see _operands).
    """
    s, pkg = a.s, a.pkg
    tau, tau_assoc, n = pkg.tau, a.assoc_pkg.tau, s.n
    rows = len(betas) * len(levels)
    row_level = [row % len(levels) for row in range(rows)]
    beta, lie_g, lie_assoc, k_value, k_prime = _operands(
        betas,
        [level.lie_g.data for level in levels],
        [level.lie_assoc.data for level in levels],
        [level.k.value for level in levels],
        [level.k.xi_derivative for level in levels],
    )
    columns, notes = [], ()
    if a.classification.is_sasaki_like:
        closed = _vertical_closed_forms(k_value, k_prime, s)
        columns = [
            Column.of(f"{name}_closed_vs_connection", np.abs(form - lie).max(axis=(-2, -1)), 1e-10)
            for name, form, lie in zip(("lie_g", "lie_assoc"), closed, (lie_g, lie_assoc))
        ]
    else:
        text = (
            "structure is not Sasaki-like: closed-form Lie derivatives do not "
            "apply, connection-based values used throughout"
        )
        notes = ((text, None),)
    columns = [column.shared(row_level) for column in (*columns, *level_columns)]
    lams, lam_assocs = lam, lam_assoc
    if mu is not None:
        lams, lam_assocs = 0.0 if lam is None else lam, None
    elif solve:
        _require_sasaki_like(a.classification)
        solved_lams, solved_assocs, solved = vertical_solutions(
            [level.k for level in levels], tau, tau_assoc, n, betas
        )
        reconstruction = ricci_reconstruction_check(pkg.ricci, tau, tau_assoc, n, s)
        columns += (*solved.columns, reconstruction.shared([0] * rows))
        # solving needs a Sasaki-like structure, which has no notes
        notes = solved.notes
        if lam is None:
            lams = solved_lams
        if lam_assoc is None:
            lam_assocs = solved_assocs
        if lam is not None or lam_assoc is not None:
            columns += (
                Column.of(
                    "lambda_matches_solution",
                    lams - solved_lams,
                    1e-10,
                    "supplied lam against the solved value",
                ),
                Column.of(
                    "lambda_assoc_matches_solution",
                    lam_assocs - solved_assocs,
                    1e-10,
                    "supplied lam_assoc against the solved value",
                ),
            )
    assoc = None if mu is not None else (lie_assoc, lam_assocs, tau_assoc)
    name = "soliton_residual" if mu is None else "eta_soliton_residual"
    lhs = _rb_like_lhs(pkg.ricci.data, s, beta, lie_g, lams, tau, assoc, mu)
    columns.append(Column.of(name, np.abs(lhs).max(axis=(-2, -1)), 1e-10))
    return lams, lam_assocs, CheckTable(rows, tuple(columns), notes)


def conformal_report(
    a: Analysis, beta: float, psi: float, psi_assoc: float, lam: float, lam_assoc: float
) -> TheoremReport:
    """The conformal row of one analysis (verify_conformal_theorem), then the
    soliton residual under the defining assumption L_theta g = 2 psi g and
    L_theta g_assoc = 2 psi_assoc g_assoc."""
    s, pkg, tau, tau_assoc = a.s, a.pkg, a.pkg.tau, a.assoc_pkg.tau
    level = conformal_level([tau], [tau_assoc], s.n, ricci=pkg.ricci.data[None], structure=s)
    table = conformal_row(level, (beta,), psi + lam, psi_assoc + lam_assoc)
    assoc = (2.0 * psi_assoc * s.g_assoc.matrix, lam_assoc, tau_assoc)
    lhs = _rb_like_lhs(pkg.ricci.data, s, beta, 2.0 * psi * s.g.matrix, lam, tau, assoc)
    residual = Column.of("soliton_residual", np.abs(lhs).max(), 1e-10)
    return table._replace(columns=(*table.columns, residual)).report(0)
