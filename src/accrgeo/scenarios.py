"""Built-in verification scenarios and parameter sweeps.

Two families are wired in.

"example2" is a five-dimensional Lie group (n = 2) with left-invariant
structure, brackets driven by two free reals (p, q):

    [e_0, e_1] =  p e_2 +   e_3 + q e_4
    [e_0, e_2] = -p e_1 - q e_3 +   e_4
    [e_0, e_3] = -  e_1 - q e_2 + p e_4
    [e_0, e_4] =  q e_1 -   e_2 - p e_3

build_example2 holds only this bracket table; the structure is the flat
carrier of n = 2: g = diag(1, 1, 1, -1, -1), xi = e_0, phi e_1 = e_3 and
phi e_2 = e_4. Its curvature is independent of (p, q). Every expected
value is a closed form compared with the pipeline's value, each a Column
of the value it depends on: one per (p, q), by Column.between, for the
frozen curvature table, rho = 4 eta (.) eta, tau = tau_assoc = 4 and
tau_star = 0; over t0, for the Lie derivatives of both metrics along the
potential k = -2 t0 with k' = -2; over (beta, t0), for the soliton
constants lam = 2(t0 - 2 beta), lam_assoc = -2(t0 + 2 beta).
tests/test_example2_exact.py derives each of them a second way, in exact
arithmetic over Q(p, q).

"example1" is a curve of structures given at the formula level: scalars

    p(t) = (1 + sqrt2 cos t)/2,    q(t) = -(1 - sqrt2 sin t)/2

satisfy p^2 + q^2 - p + q = 0, and the induced scalar curvatures hit the
conformal-potential theorem for every n. No Lie algebra is constructed;
Ricci-level checks run on the flat carrier of the right dimension, with
the Ricci tensor built from the published formula in (p, q). The
denominator sqrt2 + cos t - sin t vanishes to second order at
t = (8l+3)pi/4; every t where it is at most EXCLUDED_DEN in magnitude is
excluded. One n of the curve is one array pass over its t
(_example1_level): (p, q) and the solitons.conformal_level at every t it
does not exclude, with the curve's own checks as columns at the head; the
reports at several beta are the rows of one solitons.conformal_row of that
level at the sums the theorem forces.

example2 starts from the cached Analysis of its (p, q) (example2_state)
and builds its checks with solitons.vertical_level and vertical_rows, the
builders definition files use too, adding its closed-form checks. example1
builds its checks with conformal_level and conformal_row, as soliton
--input --psi does. Each builds a check table (solitons.CheckTable), each
check computed once per value of the parameters it depends on (see sweep);
a single-point report is the one row of such a table, and a sweep row's
report is built from its table only when it is read. A sweep holds its
rows as columns (SweepResult); a SweepRow is built only when its rows
are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import DegenerateParameter, EmptyGrid, GeometryError
from .geometry import Analysis, LieAlgebra, analyze
from .structure import AccRStructure, validate_structure
from .solitons import (
    Check,
    CheckTable,
    Column,
    ConformalLevel,
    TheoremReport,
    VerticalScalar,
    conformal_level,
    conformal_row,
    einstein_like_fit,
    is_degenerate_beta,
    vertical_level,
    vertical_rows,
)
from .tensors import Frame, Tensor, require

DEFAULT_P_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
DEFAULT_Q_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
#: hits both special values -1/(2n) = -1/4 and -1/(2n+1) = -1/5 for n = 2
DEFAULT_BETA_GRID = (-1.0, -0.25, -0.2, 0.0, 0.25, 0.5, 1.0)
DEFAULT_T0_GRID = (-1.0, 0.0, 1.0, 2.0)
#: 37 points on [0, 2pi]; the excluded value 3pi/4 is not a multiple of pi/18
DEFAULT_T_GRID = tuple(float(t) for t in np.linspace(0.0, 2.0 * math.pi, 37))
DEFAULT_N_GRID = (1, 2, 3, 4, 5)

SQRT2 = math.sqrt(2.0)
#: example1 excludes t where |sqrt2 + cos t - sin t| <= this: below about
#: 1e-7, rounding in that denominator alone puts the two scalar-curvature
#: routes more than 1e-9 apart in relative terms
EXCLUDED_DEN = 1e-6


@dataclass(frozen=True)
class Example2Params:
    p: float = 0.0
    q: float = 0.0
    beta: float = 0.0
    t0: float = 1.0


@dataclass(frozen=True)
class Example1Point:
    """One evaluated point of the formula-level curve.

    sum_g and sum_assoc are the values the conformal theorem forces on
    psi + lam and psi_assoc + lam_assoc; the curve never determines the
    summands separately.
    """

    t: float
    n: int
    beta: float
    p: float
    q: float
    tau: float
    tau_assoc: float
    sum_g: float
    sum_assoc: float


def flat_carrier_structure(n: int) -> AccRStructure:
    """A pointwise structure of dimension 2n+1 for entrywise formula checks.

    g = diag(1, I_n, -I_n), xi = e_0, phi maps the first contact block to
    the second. example2 puts its brackets on it (n = 2); example1, given
    only at the formula level, uses it as a tangent-space carrier, with no
    curvature derived from it.
    """
    dim = 2 * n + 1
    reeb = np.zeros(dim)
    reeb[0] = 1.0
    phi = np.zeros((dim, dim))
    contact = np.arange(1, n + 1)
    phi[n + contact, contact] = 1.0
    phi[contact, n + contact] = -1.0
    g = np.diag([1.0] + [1.0] * n + [-1.0] * n)
    return validate_structure(phi, reeb, reeb, g, Frame(dim))


#: example1 reads the carrier once per n of a sweep, or once per point; the
#: cache serves the repeated sweeps and points of one process
_cached_carrier = lru_cache(maxsize=16)(flat_carrier_structure)


def build_example2(p: float, q: float):
    """The five-dimensional scenario algebra for given (p, q), on the flat
    carrier of n = 2."""
    s = flat_carrier_structure(2)
    c = np.zeros((5, 5, 5))
    # (i, k, value): [e_0, e_i] has e_k-component value
    for i, k, value in (
        (1, 2, p), (1, 3, 1.0), (1, 4, q),
        (2, 1, -p), (2, 3, -q), (2, 4, 1.0),
        (3, 1, -1.0), (3, 2, -q), (3, 4, p),
        (4, 1, q), (4, 2, -1.0), (4, 3, -p),
    ):
        c[k, 0, i] = value
        c[k, i, 0] = -value
    return LieAlgebra(s.frame, Tensor(s.frame, c)), s


@lru_cache(maxsize=4)
def example2_expected_curvature(frame: Frame) -> Tensor:
    """The frozen curvature table of the scenario, closed under symmetries.

    Seeds the independent components and writes each one's images under
    the two pair antisymmetries and the pair-swap symmetry, refusing
    silently conflicting assignments.
    """
    seeds = {
        (0, 1, 1, 0): 1.0,
        (0, 2, 2, 0): 1.0,
        (0, 3, 3, 0): -1.0,
        (0, 4, 4, 0): -1.0,
        (1, 2, 3, 4): 1.0,
        (1, 4, 3, 2): 1.0,
        (1, 3, 3, 1): 1.0,
        (2, 4, 4, 2): 1.0,
    }
    expected = np.zeros((frame.dim,) * 4)
    assigned = {}
    for (i, j, k, l), v in seeds.items():
        for idx, w in (
            ((i, j, k, l), v), ((j, i, k, l), -v), ((i, j, l, k), -v), ((j, i, l, k), v),
            ((k, l, i, j), v), ((l, k, i, j), -v), ((k, l, j, i), -v), ((l, k, j, i), v),
        ):
            if assigned.setdefault(idx, w) != w:
                raise GeometryError(f"inconsistent seed table at {idx}")
            expected[idx] = w
    return Tensor(frame, expected)


@lru_cache(maxsize=64)
def example2_state(p: float, q: float) -> Analysis:
    """The analysis of the scenario at (p, q), cached."""
    return analyze(*build_example2(float(p), float(q)))


#: notes of the scenarios' checks against closed forms, by check name
_NOTES = {
    "curvature_table": "all nonzero components and their symmetry images",
    "tau_assoc_pipeline": "scalar curvature of the associated metric via its own connection",
    "tau_assoc_two_routes": "pipeline value against 2n - tau_star",
    "reeb_derivative_assoc": "the associated connection acts on xi the same way",
}


class _Example2Geometry(NamedTuple):
    """One (p, q) of example2 with the report's checks that depend on it alone.

    head holds the one-level columns (Column.between) that open the report,
    tail the Einstein-like fit checks that close it.
    """

    analysis: Analysis
    head: tuple
    tail: tuple


def _example2_geometry(p: float, q: float) -> _Example2Geometry:
    a = example2_state(p, q)
    s, pkg, assoc_pkg = a.s, a.pkg, a.assoc_pkg
    n, xi, minus_phi = s.n, s.xi.data, -s.phi.data
    forms = {
        "curvature_table": (pkg.riemann.data, example2_expected_curvature(s.frame).data, 1e-12),
        "ricci_form": (pkg.ricci.data, 4.0 * s.eta_outer, 1e-12),
        "tau_value": (pkg.tau, 4.0, 1e-10),
        "tau_star_value": (pkg.tau_star, 0.0, 1e-10),
        "tau_assoc_pipeline": (assoc_pkg.tau, 4.0, 1e-10),
        "tau_assoc_two_routes": (assoc_pkg.tau, 2.0 * n - pkg.tau_star, 1e-10),
        "sasaki_like": (a.classification.residual, 0.0, 1e-12),
        # D_x xi = -phi x for the connections of both metrics
        "reeb_derivative": (pkg.conn.derivative_of_field(xi), minus_phi),
        "reeb_derivative_assoc": (assoc_pkg.conn.derivative_of_field(xi), minus_phi),
        "ricci_reeb_line": (pkg.ricci.data @ xi, 2.0 * n * s.eta.data),
    }
    head = tuple(
        Column.between(name, *form, note=_NOTES.get(name, "")) for name, form in forms.items()
    )
    fit = einstein_like_fit(pkg.ricci, s)
    tail = (
        Column.between("einstein_fit_residual", fit.residual, 0.0, 1e-12),
        Column.between(
            "einstein_fit_coefficients",
            np.array((fit.a, fit.b, fit.c)),
            np.array((0.0, 0.0, 4.0)),
            1e-10,
            f"fit kind: {fit.kind}",
        ),
    )
    return _Example2Geometry(a, head, tail)


def _example2_rows(
    geom: _Example2Geometry,
    t0s,
    betas,
    k: VerticalScalar = None,
    lam: float = None,
    lam_assoc: float = None,
    mu: float = None,
) -> tuple:
    """(ks, lam, lam_assoc, table): the vertical theorem at betas[i] and
    t0s[j] is ks[j], the constants of vertical_rows in its soliton residual,
    and row i * len(t0s) + j of table.

    The reports wrap the shared vertical_rows checks in the scenario's
    geometry checks. k defaults to the scenario family k = -2 t0, k' = -2,
    whose Lie derivatives and solved constants are then checked against
    their expected values too, as columns over t0; a supplied k makes t0
    irrelevant.
    """
    a = geom.analysis
    family = k is None
    ks = [VerticalScalar(-2.0 * t0, -2.0) for t0 in t0s] if family else [k] * len(t0s)
    levels = [vertical_level(a, scalar) for scalar in ks]
    t0, level_columns = np.asarray(t0s, dtype=float), ()
    if family:
        s, k_prime = a.s, np.array([scalar.xi_derivative for scalar in ks])
        eta_outer = s.eta_outer
        forms = {
            "h_form": (np.multiply.outer(2.0 * k_prime, eta_outer), -4.0 * eta_outer, 1e-12),
            "lie_g_family_value": (
                np.stack([level.lie_g.data for level in levels]),
                np.multiply.outer(4.0 * t0, s.g_assoc.matrix)
                - np.multiply.outer(4.0 * (t0 + 1.0), eta_outer),
                1e-10,
            ),
            "lie_assoc_family_value": (
                np.stack([level.lie_assoc.data for level in levels]),
                np.multiply.outer(-4.0 * t0, s.g.matrix)
                + np.multiply.outer(4.0 * (t0 - 1.0), eta_outer),
                1e-10,
            ),
        }
        level_columns = tuple(
            Column.of(name, np.abs(computed - expected).max(axis=(-2, -1)), tol)
            for name, (computed, expected, tol) in forms.items()
        )
    lams, lam_assocs, table = vertical_rows(
        a, levels, betas, lam, lam_assoc, mu=mu, level_columns=level_columns
    )
    *checks, residual = table.columns
    constants = ()
    if family and mu is None and lam is None and lam_assoc is None:
        beta = np.asarray(betas, dtype=float)[:, None]
        constants = (
            Column.of(
                "lambda_family_value",
                np.subtract(lams, 2.0 * (t0 - 2.0 * beta)),
                1e-10,
                "lam = 2(t0 - 2 beta)",
            ),
            Column.of(
                "lambda_assoc_family_value",
                np.subtract(lam_assocs, -2.0 * (t0 + 2.0 * beta)),
                1e-10,
                "lam_assoc = -2(t0 + 2 beta)",
            ),
        )
    every_row = [0] * table.rows
    head, tail = ([column.shared(every_row) for column in part] for part in (geom.head, geom.tail))
    columns = (*head, *checks, *constants, residual, *tail)
    return [level.k for level in levels], lams, lam_assocs, table._replace(columns=columns)


def example2_point(
    params: Example2Params,
    *,
    k: VerticalScalar = None,
    lam: float = None,
    lam_assoc: float = None,
    mu: float = None,
) -> tuple:
    """Run the whole vertical-potential pipeline on one parameter point.

    Returns (k, lam, lam_assoc, report): the potential's scalar, and the
    constants in the soliton residual (lam_assoc is None with mu).

    The potential defaults to the scenario family k = -2 t0 with
    xi-derivative -2; passing k overrides it, which drops the checks tied
    to that family (specialized Lie-derivative values and the closed-form
    soliton constants in t0). Passing lam/lam_assoc verifies those values
    against the solved ones and uses them in the soliton residual. Passing
    mu switches the claim to the single-metric equation with the
    eta (.) eta term: the two-metric solve is skipped and lam defaults to
    0 there.

    The report is built by the same per-level helpers as sweep's rows.
    """
    geom = _example2_geometry(params.p, params.q)
    (k,), lam, lam_assoc, table = _example2_rows(
        geom, (params.t0,), (params.beta,), k, lam, lam_assoc, mu
    )
    return k, lam, lam_assoc, table.report(0)


def run_example2_report(
    params: Example2Params,
    *,
    k: VerticalScalar = None,
    lam: float = None,
    lam_assoc: float = None,
    mu: float = None,
) -> TheoremReport:
    """The report of example2_point."""
    return example2_point(params, k=k, lam=lam, lam_assoc=lam_assoc, mu=mu)[3]


class _Example1Level(NamedTuple):
    """The curve of one n at some parameters t. excluded[i] is the message
    of the i-th t when the curve excludes it, else None; p and q are arrays
    over the other t, in order, and conformal is the conformal level of the
    theorem at them, whose head opens with the curve's own checks."""

    excluded: list
    p: np.ndarray
    q: np.ndarray
    conformal: ConformalLevel


def _example1_level(ts, n: int) -> _Example1Level:
    """The curve at each t of ts for dimension 2n+1, in one array pass over
    the t it does not exclude; see example1_curve.

    cos t and sin t come from math, once per t (numpy's may round
    differently); everything after them is array arithmetic in the
    operation order of a single point. The Ricci tensor is the published
    formula in (p, q) on the flat carrier of n, whose eta (.) eta
    coefficient vanishes on the curve.
    """
    if n < 1:
        raise GeometryError(f"example1 needs n >= 1, got n={n!r}")
    cos_sin = [(math.cos(t), math.sin(t)) for t in ts]
    excluded = [
        f"curve parameter t={t!r} makes the scalar-curvature denominator vanish"
        if abs(SQRT2 + cos - sin) <= EXCLUDED_DEN
        else None
        for t, (cos, sin) in zip(ts, cos_sin)
    ]
    kept = [j for j, text in enumerate(excluded) if text is None]
    cos, sin = np.reshape(cos_sin, (-1, 2))[kept].T
    den = SQRT2 + cos - sin
    p = 0.5 * (1.0 + SQRT2 * cos)
    q = -0.5 * (1.0 - SQRT2 * sin)
    square_sum = p * p + q * q
    constraint = square_sum - p + q
    require(constraint, "curve constraint violated by {residual:.3e}")

    tau_via_pq = 2.0 * n * (1.0 + 2.0 * n * p / square_sum)
    tau_assoc_via_pq = 2.0 * n * (1.0 - 2.0 * n * q / square_sum)
    tau = 2.0 * n * ((n + 1.0) * SQRT2 + (2.0 * n + 1.0) * cos - sin) / den
    tau_assoc = 2.0 * n * ((n + 1.0) * SQRT2 + cos - (2.0 * n + 1.0) * sin) / den
    routes = {"tau": (tau_via_pq, tau), "tau_assoc": (tau_assoc_via_pq, tau_assoc)}
    for label, (left, right) in routes.items():
        tol = 1e-9 * np.maximum(np.maximum(1.0, np.abs(left)), np.abs(right))
        # the first t whose routes disagree raises
        for j in np.flatnonzero(~Check(label, np.abs(left - right), tol).passes())[:1]:
            message = label + " routes disagree by {residual:.3e} at t=" + repr(ts[kept[j]])
            require(left[j] - right[j], message, tol[j])

    s = _cached_carrier(n)
    # the coefficients of the Ricci formula, one (1, 1) block per t
    scale, p_, q_, c_ = (v[:, None, None] for v in (2.0 * n / square_sum, p, q, constraint))
    ricci = scale * (p_ * s.g.matrix - q_ * s.g_assoc.matrix + c_ * s.eta_outer)
    reeb = ricci @ s.xi.data @ s.xi.data - 2.0 * n
    note = "through (p, q) against direct in t"
    curve_columns = (
        Column.of("curve_constraint", constraint, 1e-12),
        *(
            Column.of(f"{label}_route_agreement", left - right, note=note)
            for label, (left, right) in routes.items()
        ),
        Column.of("ricci_reeb_value", reeb, note="rho(xi, xi) = 2n"),
    )
    level = conformal_level(tau, tau_assoc, n, ricci=ricci, structure=s)
    level = level._replace(head=(*curve_columns, *level.head))
    return _Example1Level(excluded, p, q, level)


_SUMS_NOTE = (
    "only the sums psi+lam and psi_assoc+lam_assoc are determined; "
    "they are passed through psi with lam = 0"
)


def _example1_rows(level: ConformalLevel, betas, sums_override=None) -> tuple:
    """(sum_g, sum_assoc, table) of the curve's level (of one n) at betas:
    the sums psi + lam and psi_assoc + lam_assoc that the conformal theorem
    forces, lists over the rows i * points + j of betas[i] at point j, and
    the conformal_row table there, which checks the split
    (psi, psi_assoc, lam, lam_assoc) of sums_override when one is given."""
    n = level.n
    beta = np.array(betas)[:, None]
    branch = is_degenerate_beta(beta, n)
    factor = 1.0 + 2.0 * n * beta
    sum_g = np.where(branch, 1.0, 1.0 - factor * level.tau / (2.0 * n))
    sum_assoc = np.where(branch, 1.0, 1.0 - factor * level.tau_assoc / (2.0 * n))
    if sums_override is None:
        table = conformal_row(level, betas, sum_g, sum_assoc, (_SUMS_NOTE,))
    else:
        psi, psi_assoc, lam, lam_assoc = (float(v) for v in sums_override)
        table = conformal_row(level, betas, psi + lam, psi_assoc + lam_assoc)
    return sum_g.ravel().tolist(), sum_assoc.ravel().tolist(), table


def example1_point(t: float, n: int, beta: float, *, sums_override=None) -> tuple:
    """(Example1Point, report) of run_example1_report, from one evaluation
    of the curve."""
    curve = _example1_level((t,), n)
    if curve.excluded[0] is not None:
        raise DegenerateParameter(curve.excluded[0])
    level = curve.conformal
    (sum_g,), (sum_assoc,), table = _example1_rows(level, (beta,), sums_override)
    scalars = (float(v[0]) for v in (curve.p, curve.q, level.tau, level.tau_assoc))
    return Example1Point(t, n, beta, *scalars, sum_g, sum_assoc), table.report(0)


def example1_curve(t: float, n: int, beta: float) -> Example1Point:
    """Evaluate the formula-level curve at parameter t for dimension 2n+1.

    Scalar curvatures are computed twice, through (p, q) and directly in
    t, and must agree to 1e-9 relative to their size: both grow like the
    reciprocal of the shared denominator near its zeros, which are exactly
    the excluded parameter values.
    """
    return example1_point(t, n, beta)[0]


def run_example1_report(t: float, n: int, beta: float, *, sums_override=None) -> TheoremReport:
    """Full conformal-potential verification at one curve point.

    Formula-level scalars feed the theorem checker; entrywise Ricci checks
    run on the flat carrier with the published transformed-Ricci formula,
    whose eta(.)eta coefficient vanishes exactly on the curve.

    sums_override, when given, is a (psi, psi_assoc, lam, lam_assoc)
    split supplied by the caller; the theorem is then checked against
    that split instead of the curve's forced sums, so an inconsistent
    split shows up as failing checks.

    The report is built by the same per-level helpers as sweep's rows.
    """
    return example1_point(t, n, beta, sums_override=sums_override)[1]


@dataclass(frozen=True)
class SweepRow:
    """One grid point; its report is row position of table, built when read."""

    index: int
    params: dict
    scalars: dict
    table: CheckTable = field(repr=False)
    position: int = field(repr=False)
    degenerate: bool = False

    @property
    def report(self) -> TheoremReport:
        return self.table.report(self.position)


@dataclass(frozen=True)
class SweepResult:
    """The rows of a sweep, held as columns, frozen once built.

    params maps each parameter name to a list over the rows. excluded holds
    the message of each degenerate row (an excluded point), None for the
    others, which are the judged rows. The judged rows are the rows of
    tables, table after table, each in its order: a judged row's (table,
    position) is its place there. scalars maps each scalar name to a list
    over the judged rows. rows builds one SweepRow per row when it is
    first read.
    """

    scenario: str
    params: dict
    scalars: dict
    excluded: list
    tables: tuple
    notes: list = field(default_factory=list)

    @cached_property
    def rows(self) -> list:
        judged = ((table, position) for table in self.tables for position in range(table.rows))
        scalars = zip(*self.scalars.values())
        rows = []
        for index, (values, text) in enumerate(zip(zip(*self.params.values()), self.excluded)):
            params = dict(zip(self.params, values))
            if text is None:
                scalar_values = dict(zip(self.scalars, next(scalars)))
                rows.append(SweepRow(index, params, scalar_values, *next(judged)))
            else:
                table = CheckTable(1, notes=((text, None),))
                rows.append(SweepRow(index, params, {}, table, 0, degenerate=True))
        return rows

    def verdict_columns(self, tol: float = None) -> tuple:
        """(passed, worst check name, worst residual), each a list over the
        judged rows: every table is judged once, by CheckTable.verdicts."""
        columns = ([], [], [])
        for table in self.tables:
            for column, part in zip(columns, table.verdicts(tol)):
                column += part
        return columns

    def verdicts(self, tol: float = None) -> list:
        """(passed, worst check name, worst residual) of each row, None for a
        degenerate row."""
        judged = zip(*self.verdict_columns(tol))
        return [None if text is not None else next(judged) for text in self.excluded]


def _extend(columns: dict, values) -> None:
    """Append values[i] to the i-th list of columns."""
    for column, part in zip(columns.values(), values):
        column += part


def sweep(
    scenario: str,
    *,
    p_grid=None,
    q_grid=None,
    beta_grid=None,
    t0_grid=None,
    t_grid=None,
    n_grid=None,
) -> SweepResult:
    """Run a scenario over a parameter grid, one report per point.

    Rows are ordered lexicographically in the grid indices. Degenerate
    example1 points (excluded t values) become marked rows that do not
    count toward pass/fail.

    The checks are held as check tables (solitons.CheckTable), built by the
    helpers that build the single-point reports, and a row's report is
    built from its table only when it is read: example2 has one table per
    (p, q), whose geometry checks are computed once, its potential checks
    once per t0, and the solve, the constants and the soliton residual as
    arrays over (beta, t0). example1 has one table per n from one array
    pass over its t (_example1_level): the curve, its Ricci tensors and the
    beta-free checks as arrays over t, every other check as one array over
    (beta, t). The params and scalars of the rows are gathered as columns,
    a list per name, with no object or dict per row.
    """
    if scenario == "example2":
        betas = _grid(beta_grid, DEFAULT_BETA_GRID)
        t0s = _grid(t0_grid, DEFAULT_T0_GRID)
        size = len(betas) * len(t0s)
        beta_column = [beta for beta in betas for _ in t0s]
        t0_column = list(t0s) * len(betas)
        params = {name: [] for name in ("p", "q", "beta", "t0")}
        scalars = {name: [] for name in ("tau", "tau_tilde", "lambda", "lambda_tilde")}
        tables = []
        for p, q in product(_grid(p_grid, DEFAULT_P_GRID), _grid(q_grid, DEFAULT_Q_GRID)):
            geom = _example2_geometry(p, q)
            tau, tau_assoc = geom.analysis.pkg.tau, geom.analysis.assoc_pkg.tau
            _, *solved, table = _example2_rows(geom, t0s, betas)
            lams, lam_assocs = (
                np.broadcast_to(v, (len(betas), len(t0s))).ravel().tolist() for v in solved
            )
            _extend(params, ([p] * size, [q] * size, beta_column, t0_column))
            _extend(scalars, ([tau] * size, [tau_assoc] * size, lams, lam_assocs))
            tables.append(table)
        excluded = [None] * len(params["p"])
        constants = {
            (round(lam, 12), round(lam_assoc, 12))
            for lam, lam_assoc in zip(scalars["lambda"], scalars["lambda_tilde"])
        }
        notes = [
            "soliton constants vary across the sweep: this is the almost-soliton "
            "regime, reported as information only"
        ] if len(constants) > 1 else []
        return SweepResult("example2", params, scalars, excluded, tuple(tables), notes)

    if scenario == "example1":
        n_values = tuple(int(v) for v in _grid(n_grid, DEFAULT_N_GRID))
        betas = _grid(beta_grid, DEFAULT_BETA_GRID)
        ts = _grid(t_grid, DEFAULT_T_GRID)
        size = len(betas) * len(ts)
        beta_column = [beta for beta in betas for _ in ts]
        t_column = list(ts) * len(betas)
        params = {"n": [], "beta": [], "t": []}
        names = ("p", "q", "tau", "tau_tilde", "psi_plus_lambda", "psi_tilde_plus_lambda_tilde")
        scalars = {name: [] for name in names}
        excluded, tables = [], []
        for n in n_values:
            curve = _example1_level(ts, n)
            level = curve.conformal
            _extend(params, ([n] * size, beta_column, t_column))
            excluded += curve.excluded * len(betas)
            if len(level.tau):
                sum_g, sum_assoc, table = _example1_rows(level, betas)
                # the rows of the table are (beta, kept t) in order
                kept = (curve.p, curve.q, level.tau, level.tau_assoc)
                _extend(scalars, (*(v.tolist() * len(betas) for v in kept), sum_g, sum_assoc))
                tables.append(table)
        return SweepResult("example1", params, scalars, excluded, tuple(tables))

    raise GeometryError(f"unknown scenario {scenario!r}; choose example1 or example2")


def _grid(values, default):
    if values is None:
        return tuple(default)
    grid = tuple(float(v) for v in values)
    if not grid:
        raise EmptyGrid("a sweep grid must contain at least one value")
    return grid
