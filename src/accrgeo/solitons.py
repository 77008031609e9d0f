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
Python numbers (_operands). A check that depends on some of the row
axes is computed once per value of those, as an array that Column.of
broadcasts over the rows. A row's TheoremReport is built from its table
only when it is read, and is frozen; _judge judges a table's rows and a
report's checks alike. A report's checks are tensors.Check
(re-exported here).

Each theorem has one table builder, and a scenario adds its own checks
around the table that builder returns. The vertical theorem's
row expressions take a leading axis of analyses that share one structure:
vertical_lie forms the Lie derivatives of many potentials on many analyses
in one broadcast (lie_derivative_metric is its one-potential, one-metric
call), vertical_solutions solves the constants that the potentials force
at all betas (solve_vertical_soliton is one row), and vertical_rows, the
builder, checks the equation, and the Lie derivatives against their closed
forms, over (analyses, betas, potentials); one Analysis is its one-analysis
case. conformal_row, the conformal theorem's builder, checks many
curvature points at several betas, the checks free of beta and the
potential once per point; verify_conformal_theorem is one row, which
conformal_report closes with the soliton residual, and example1 calls
conformal_row once per n.
"""

from __future__ import annotations

import math
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
    def of(
        cls, name: str, values, tol: float = DEFAULT_TOL, note: str = "", present=True, rows=()
    ):
        """The column of an array of values over the rows in C order, or of
        the number of a table's one row (see _operands). Given rows, the
        shape of the rows, values are broadcast to it, so a check that
        depends on some of their axes is computed once per value of those;
        present is broadcast against the values."""
        if not isinstance(values, np.ndarray):
            return cls(name, [abs(values)], tol, note, [present])
        shape = rows or values.shape
        residual = np.abs(values, out=np.empty(shape))
        return cls(name, residual.ravel(), tol, note, np.full(shape, present).ravel())


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


def _operands(betas, ks, per_analysis, per_pair=()) -> tuple:
    """The operands of the row expressions of a table over (analyses, betas,
    ks), rows in C order: beta, the value and xi-derivative of each k of ks,
    then each sequence of per_analysis (an entry per analysis) and each array
    of per_pair (shape (analyses, ks, ...)). For one row these are the
    entries themselves, which Python then computes with the IEEE operations
    numpy applies to each element of an array; otherwise arrays that
    broadcast against the rows, an entry's own axes trailing."""
    analyses = len(per_analysis[0])
    if analyses * len(betas) * len(ks) == 1:
        (k,) = ks
        return (
            float(betas[0]),
            k.value,
            k.xi_derivative,
            *(values[0] for values in per_analysis),
            *(values[0, 0] for values in per_pair),
        )
    k_value, k_prime = np.array([(k.value, k.xi_derivative) for k in ks], dtype=float).T
    entries = (np.asarray(values) for values in per_analysis)
    return (
        np.asarray(betas, dtype=float)[:, None],
        k_value,
        k_prime,
        *(values.reshape(analyses, 1, 1, *values.shape[1:]) for values in entries),
        *(values[:, None] for values in per_pair),
    )


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
    k, reeb = potential.k, conn.derivative_of_field(s.xi.data)
    d_theta = _d_theta(k.value, k.xi_derivative, reeb, s)
    return Tensor(s.frame, _lie_derivative(d_theta, metric.matrix))


def _d_theta(k_value, k_prime, reeb, s: AccRStructure) -> np.ndarray:
    """D theta of theta = k xi from reeb = D xi (Connection.derivative_of_field):
    (D_x theta)^m is row x, column m. k_value, k_prime and reeb are numbers
    and one matrix, or arrays that stack the results along leading axes."""
    return k_prime * np.outer(s.xi.data, s.eta.data) + k_value * reeb


def _lie_derivative(d_theta: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """L_theta of the constant-coefficient metric matrix, from d_theta =
    _d_theta, along its leading axes; frozen, so that a Tensor keeps it
    without a copy."""
    half = np.einsum("...mi,mj->...ij", d_theta, matrix)
    lie = half + half.swapaxes(-1, -2)
    lie.setflags(write=False)
    return lie


def vertical_lie(s: AccRStructure, ks, reeb: np.ndarray) -> tuple:
    """(L_theta g, L_theta g_assoc) of theta = k xi for each k of ks on the
    analyses of structure s whose D xi is reeb, one matrix or a stack of
    them: arrays over (analyses, ks), from one D theta, as
    lie_derivative_metric forms one of them."""
    k_value, k_prime = np.array([(k.value, k.xi_derivative) for k in ks], dtype=float).T
    reeb = reeb.reshape(-1, 1, *reeb.shape[-2:])
    d_theta = _d_theta(k_value[:, None, None], k_prime[:, None, None], reeb, s)
    return tuple(_lie_derivative(d_theta, m.matrix) for m in (s.g, s.g_assoc))


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
    coefficients. The fit of a stacked rho holds an array over the stack
    in each field.
    """

    a: float
    b: float
    c: float
    residual: float
    kind: str
    tau_residual: float
    tau_star_residual: float


#: EinsteinLikeFit.kind by exact * (1 + zero_b * (1 + zero_c)): an inexact
#: fit, then an exact one with b != 0, with b = 0 and c != 0, with b = c = 0
_FIT_KINDS = np.array(["not_einstein_like", "einstein_like", "eta_einstein", "einstein"])


def einstein_like_fit(ricci_tensor: Tensor, s: AccRStructure) -> EinsteinLikeFit:
    """Decompose rho = a g + b g_assoc + c eta (.) eta if possible, for each
    rho of a stacked ricci_tensor: the basis and its Gram matrix depend on
    s alone, and one solve fits the stack.

    The basis Gram matrix is nonsingular for every valid structure, so a
    SingularFit signals corrupted inputs rather than a tight geometry.
    """
    basis = np.stack([s.g.matrix, s.g_assoc.matrix, s.eta_outer])
    flat = basis.reshape(3, -1)
    gram = flat @ flat.T
    rho = ricci_tensor.data
    rhs = flat @ rho.reshape(*rho.shape[:-2], -1, 1)
    if abs(np.linalg.det(gram)) < 1e-12:
        raise SingularFit("fit basis {g, g_assoc, eta(.)eta} is numerically dependent")
    # each right side solved on its own: (a, b, c) of each rho along the
    # third axis from the end, which scales the basis
    coeffs = np.linalg.solve(gram, rhs)[..., None]

    def residual(v):
        """max |rho - (a g + b g_assoc + c eta (.) eta)| of each rho, summed in that order."""
        return np.abs(rho - (v * basis).sum(axis=-3)).max(axis=(-2, -1))

    # prefer exact zeros when they decompose rho just as well: the
    # sub-class labels below depend on which coefficients vanish
    small = np.abs(coeffs) < DEFAULT_TOL
    snapped = np.where(small, 0.0, coeffs)
    keep = Check("snapped", residual(snapped)).passes()
    coeffs = np.where(keep[..., None, None, None], snapped, coeffs)
    fit = residual(coeffs)
    a, b, c = coeffs[..., 0, 0].T
    exact = Check("fit", fit).passes()
    # the fitted b and c vanish where the solved ones are small, snapped or not
    zero_b, zero_c = small[..., 1:, 0, 0].T
    kind = _FIT_KINDS[exact * (1 + zero_b * (1 + zero_c))]

    n = s.n
    tau = trace_g(ricci_tensor, s.g)
    tau_star = phi_trace(ricci_tensor, s.g, s.phi)
    tau_residual = np.abs(tau - ((2 * n + 1) * a + b + c))
    tau_star_residual = np.abs(tau_star + 2 * n * b)
    consequences = np.maximum(tau_residual, tau_star_residual)
    require(
        consequences[exact],
        "Einstein-like fit trace consequences failed on an exact decomposition",
    )
    if not ricci_tensor.stacked:
        a, b, c, fit, tau_residual, tau_star_residual = map(
            float, (a, b, c, fit, tau_residual, tau_star_residual)
        )
        kind = str(kind)
    return EinsteinLikeFit(a, b, c, fit, kind, tau_residual, tau_star_residual)


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
) -> tuple:
    """Soliton constants forced by a vertical potential on a Sasaki-like structure.

    Away from the branch point beta = -1/(2n):

        lam       = 1 - k - tau (1 + 2 n beta) / (2n)
        lam_assoc = 1 + k - tau_assoc (1 + 2 n beta) / (2n)

    At the branch point both scalar-curvature terms drop out, leaving
    lam = 1 - k and lam_assoc = 1 + k with (tau, tau_assoc) constrained
    only through their sum. Returns (lam, lam_assoc, report); the report
    re-derives the constants through every independent identity the
    theorem provides. This is the one row of vertical_solutions, which
    vertical_rows solves at many beta.
    """
    if classification is not None:
        _require_sasaki_like(classification)
    lam, lam_assoc, table = vertical_solutions((k,), (tau,), (tau_assoc,), n, (beta,))
    return lam, lam_assoc, table.report(0)


def _require_sasaki_like(classification: SasakiLikeResult) -> None:
    if not np.all(classification.is_sasaki_like):
        raise NotSasakiLike("the vertical-potential theorem needs a Sasaki-like structure")


def ricci_reconstruction_check(
    ricci: np.ndarray, tau, tau_assoc, n: int, structure: AccRStructure, rows
) -> Column:
    """rho rebuilt from (tau, tau_assoc) alone, which holds at every beta: the
    column of one Ricci tensor and its scalar curvatures, or of arrays that
    stack them along leading axes, broadcast against rows (see Column.of)."""
    expected = (
        np.multiply.outer(tau / (2.0 * n) - 1.0, structure.g.matrix)
        + np.multiply.outer(tau_assoc / (2.0 * n) - 1.0, structure.g_assoc.matrix)
        - np.multiply.outer((tau + tau_assoc) / (2.0 * n) - 2.0 * (n + 1.0), structure.eta_outer)
    )
    return Column.of(
        "ricci_reconstruction",
        np.abs(ricci - expected).max(axis=(-2, -1)),
        note="rho rebuilt from (tau, tau_assoc) alone",
        rows=rows,
    )


def vertical_solutions(ks, tau, tau_assoc, n: int, betas) -> tuple:
    """The solve of solve_vertical_soliton for the potentials k xi, k in ks,
    each at every beta of betas, on analyses whose scalar curvatures are the
    sequences tau and tau_assoc, in row expressions (see _operands).

    Returns (lam, lam_assoc, table): the constants solved on analysis a at
    betas[i] for ks[j] are lam[a, i, j] and lam_assoc[a, i, j] (numbers for
    one row), and row (a * len(betas) + i) * len(ks) + j of table holds its
    checks. The first, scalar_sum_from_k_derivative, tau + tau_assoc =
    4n(k' + n + 1), holds at every beta and is computed once per analysis
    and potential; then come the checks that involve the solved constants
    (only k_derivative_from_trace at the branch point), and a note marks the
    rows at the branch point.
    """
    shape = (len(tau), len(betas), len(ks))
    beta, k_value, k_prime, tau, tau_assoc = _operands(betas, ks, (tau, tau_assoc))
    factor = 1.0 + 2.0 * n * beta
    branch = is_degenerate_beta(beta, n)
    regular = np.logical_not(branch)
    # the scalar curvatures drop out at the branch point
    lam = 1.0 - k_value - _quotient(tau * factor, 2.0 * n, regular)
    lam_assoc = 1.0 + k_value - _quotient(tau_assoc * factor, 2.0 * n, regular)
    columns = (
        Column.of(
            "scalar_sum_from_k_derivative",
            tau + tau_assoc - 4.0 * n * (k_prime + n + 1.0),
            note="tau + tau_assoc = 4n(k' + n + 1)",
            rows=shape,
        ),
        Column.of(
            "k_derivative_from_trace",
            k_prime + 0.5 * (lam + lam_assoc + beta * (tau + tau_assoc) + 2.0 * n),
            note="k' = -(lam + lam_assoc + beta(tau + tau_assoc) + 2n)/2",
            rows=shape,
        ),
        Column.of(
            "k_derivative_consistency",
            k_prime - (_quotient(-(lam + lam_assoc - 2.0), 2.0 * factor, regular) - n - 1.0),
            note="k' recovered from the solved constants",
            present=regular,
            rows=shape,
        ),
        Column.of(
            "scalar_sum_from_lambdas",
            tau + tau_assoc + _quotient(2.0 * n * (lam + lam_assoc - 2.0), factor, regular),
            note="tau + tau_assoc recovered from the solved constants",
            present=regular,
            rows=shape,
        ),
    )
    note = (
        "beta at the branch point -1/(2n): scalar curvatures are not "
        "separately determined, only their sum is constrained"
    )
    held = np.broadcast_to(branch, shape).ravel() if isinstance(branch, np.ndarray) else [branch]
    return lam, lam_assoc, CheckTable(math.prod(shape), columns, ((note, held),))


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

    This is the one row of conformal_row at one curvature point; callers
    that evaluate many beta or points call conformal_row once.
    """
    ricci = None if ricci_tensor is None else ricci_tensor.data[None]
    table = conformal_row(
        [tau], [tau_assoc], n, (beta,), psi + lam, psi_assoc + lam_assoc,
        ricci=ricci, structure=structure,
    )
    return table.report(0)


def conformal_row(
    tau, tau_assoc, n: int, beta, sum_g, sum_assoc, *, ricci=None, structure=None, notes=()
) -> CheckTable:
    """The reports of the conformal theorem at each of the 1-d array beta
    and each curvature point j of the 1-d arrays tau and tau_assoc, ricci[j]
    the Ricci tensor at point j, for the sums sum_g = psi + lam and
    sum_assoc = psi_assoc + lam_assoc.

    Row i * points + j is beta[i] at point j. The checks that are free of
    beta and the sums are computed once per point and broadcast over its
    rows (Column.of with rows (len(beta), points)): scalar_sum opens every
    report and ricci_einstein_like closes it. The points' arrays broadcast
    against beta[:, None], as do sum_g and sum_assoc, so every other check
    is one array expression over all rows. Without both ricci and structure
    there are no Ricci checks, tau_star is 2n - tau_assoc instead of the
    phi-trace, and a note says so; a report's notes are that note, then
    notes, then the branch's.
    """
    tau, tau_assoc = np.asarray(tau, dtype=float), np.asarray(tau_assoc, dtype=float)
    rows = (len(beta), len(tau))
    sums = tau + tau_assoc - 4.0 * n * (n + 1.0)
    head = Column.of("scalar_sum", sums, note="tau + tau_assoc = 4n(n+1)", rows=rows)
    if ricci is None or structure is None:
        tail, ricci_notes = (), ("tau_star derived from tau_assoc; no Ricci tensor supplied",)
        tau_star = 2.0 * n - tau_assoc
    else:
        einstein_form = (
            ricci
            - (tau / (2.0 * n) - 1.0)[:, None, None] * structure.g.matrix
            - (tau_assoc / (2.0 * n) - 1.0)[:, None, None] * structure.g_assoc.matrix
        )
        einstein_like = Column.of(
            "ricci_einstein_like",
            np.abs(einstein_form).max(axis=(-2, -1)),
            note="rho = (tau/2n - 1) g + (tau_assoc/2n - 1) g_assoc",
            rows=rows,
        )
        tail, ricci_notes = (einstein_like,), ()
        # the phi-trace of tensors.phi_trace, one per point
        tau_star = np.einsum("ij,tik,kj->t", structure.g.inverse, ricci, structure.phi.data)
    beta, sum_g, sum_assoc, tau, tau_assoc, tau_star = np.broadcast_arrays(
        np.asarray(beta, dtype=float)[:, None], sum_g, sum_assoc, tau, tau_assoc, tau_star
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
    if tail:
        # ricci and structure were both supplied
        soliton_form = (
            ricci
            + (sum_g + beta * tau)[..., None, None] * structure.g.matrix
            + (sum_assoc + beta * tau_assoc)[..., None, None] * structure.g_assoc.matrix
        )
        note = "rho + (psi+lam+beta tau) g + (psi_assoc+lam_assoc+beta tau_assoc) g_assoc = 0"
        form_residual = np.abs(soliton_form).max(axis=(-2, -1))
        columns.append(Column.of("ricci_from_soliton_coeffs", form_residual, note=note))
    columns = (head, *columns, *tail)
    branch_notes = {
        "beta at the branch point -1/(2n): the scalar curvatures decouple "
        "from the potential sums": branch,
        "beta = -1/(2n+1): nested tau elimination skipped (guarded division)": regular & ~nested,
        "beta = 0: tau_assoc elimination skipped (guarded division)": regular & ~solved,
    }
    notes = [(text, None) for text in (*ricci_notes, *notes)]
    notes += [(text, present.ravel()) for text, present in branch_notes.items()]
    return CheckTable(beta.size, columns, tuple(notes))


def vertical_rows(
    a,
    ks,
    betas,
    lam: float = None,
    lam_assoc: float = None,
    *,
    solve: bool = True,
    mu: float = None,
    lie: tuple = None,
) -> tuple:
    """The vertical-potential theorem on a, an Analysis of one algebra or of
    a stack of algebras that share one structure, for the potentials k xi,
    k in ks, at betas.

    Returns (lam, lam_assoc, table): the constants in the soliton residual
    (lam_assoc is None for the single-metric equation), each an array over
    (analyses, betas, ks) or a number for every row (see _operands), and
    table, whose row (a * len(betas) + i) * len(ks) + j holds the report of
    analysis a, betas[i] and ks[j], its last check the soliton residual.

    With mu the claim is the single-metric equation, lam defaults to 0
    and nothing is solved. Otherwise, with solve, the constants are solved
    at each beta (which needs Sasaki-like structures) and every identity
    of solve_vertical_soliton is checked; a supplied lam or lam_assoc
    replaces its solved value in the soliton residual and is checked
    against it. Without solve, lam and lam_assoc are both required and only
    the residual is checked. A report opens with the Lie derivatives against
    their closed forms (Sasaki-like analyses only). lie holds the Lie derivatives of g and
    g_assoc along every (analysis, k), arrays of shape (analyses, ks, dim,
    dim), formed here (vertical_lie) when not given. Each check is computed
    once per value of the parameters it depends on: the Lie-derivative
    checks per (analysis, k), the reconstruction of rho per analysis, and
    the solve and the soliton residuals as row expressions (see _operands).
    """
    s, n = a.s, a.s.n
    # the fields read per analysis, each with one leading axis over the stack
    fields = (a.pkg.tau, a.assoc_pkg.tau, a.pkg.ricci.data, a.classification.is_sasaki_like)
    per_analysis = fields if a.pkg.ricci.stacked else tuple([value] for value in fields)
    taus, tau_assocs, _, sasaki_like = per_analysis
    shape = (len(taus), len(betas), len(ks))
    if lie is None:
        lie = vertical_lie(s, ks, a.pkg.conn.derivative_of_field(s.xi.data))
    beta, k_value, k_prime, tau, tau_assoc, ricci, sasaki, lie_g, lie_assoc = _operands(
        betas, ks, per_analysis, lie
    )
    closed = _vertical_closed_forms(k_value, k_prime, s)
    columns = [
        Column.of(
            f"{name}_closed_vs_connection",
            np.abs(form - connection).max(axis=(-2, -1)),
            1e-10,
            present=sasaki,
            rows=shape,
        )
        for name, form, connection in zip(("lie_g", "lie_assoc"), closed, (lie_g, lie_assoc))
    ]
    notes = ()
    if not all(sasaki_like):
        text = (
            "structure is not Sasaki-like: closed-form Lie derivatives do not "
            "apply, connection-based values used throughout"
        )
        notes = ((text, np.repeat(np.logical_not(sasaki_like), shape[1] * shape[2])),)
    lams, lam_assocs = lam, lam_assoc
    if mu is not None:
        lams, lam_assocs = 0.0 if lam is None else lam, None
    elif solve:
        _require_sasaki_like(a.classification)
        solved_lams, solved_assocs, solved = vertical_solutions(ks, taus, tau_assocs, n, betas)
        reconstruction = ricci_reconstruction_check(ricci, tau, tau_assoc, n, s, shape)
        columns += (*solved.columns, reconstruction)
        # solving needs Sasaki-like structures, which have no notes
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
                    rows=shape,
                ),
                Column.of(
                    "lambda_assoc_matches_solution",
                    lam_assocs - solved_assocs,
                    1e-10,
                    "supplied lam_assoc against the solved value",
                    rows=shape,
                ),
            )
    assoc = None if mu is not None else (lie_assoc, lam_assocs, tau_assoc)
    name = "soliton_residual" if mu is None else "eta_soliton_residual"
    lhs = _rb_like_lhs(ricci, s, beta, lie_g, lams, tau, assoc, mu)
    columns.append(Column.of(name, np.abs(lhs).max(axis=(-2, -1)), 1e-10, rows=shape))
    return lams, lam_assocs, CheckTable(math.prod(shape), tuple(columns), notes)


def conformal_report(
    a: Analysis, beta: float, psi: float, psi_assoc: float, lam: float, lam_assoc: float
) -> TheoremReport:
    """verify_conformal_theorem on one analysis, then the soliton residual
    under the defining assumption L_theta g = 2 psi g and L_theta g_assoc =
    2 psi_assoc g_assoc."""
    s, pkg, tau, tau_assoc = a.s, a.pkg, a.pkg.tau, a.assoc_pkg.tau
    report = verify_conformal_theorem(
        beta, psi, psi_assoc, lam, lam_assoc, tau, tau_assoc, s.n,
        ricci_tensor=pkg.ricci, structure=s,
    )
    assoc = (2.0 * psi_assoc * s.g_assoc.matrix, lam_assoc, tau_assoc)
    lhs = _rb_like_lhs(pkg.ricci.data, s, beta, 2.0 * psi * s.g.matrix, lam, tau, assoc)
    residual = Check("soliton_residual", float(np.abs(lhs).max()), 1e-10)
    return TheoremReport([*report.checks, residual], report.notes)
