"""File-driven front end: inspect manifolds, check soliton equations, sweep grids.

Three commands:

    inspect  -- validate a structure and print curvature, scalars,
                Sasaki-like classification and the Einstein-like fit
    soliton  -- run the applicable theorem checks at one parameter point
    sweep    -- run a scenario over a parameter grid

Input is either a built-in scenario (--scenario example1 | example2) or a
JSON manifold definition (--input). A definition file and example2 both
go through geometry.analyze; the reports come from the scenario and
soliton builders, so this module parses options and renders results but
assembles no theorem. Exit codes: 0 all checks passed, 1 at least one
residual above tolerance, 2 input or parse error.

JSON output of every command comes from one writer, to_json: the bytes
of json.dumps(payload, indent=2), without json's pure-Python indenting
encoder, and an error rather than NaN or Infinity for a non-finite float.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .definitions import load_definition
from .errors import GeometryError, ParseError
from .geometry import analyze, reeb_derivative_residual
from .scenarios import (
    Example2Params,
    example1_point,
    example2_point,
    example2_state,
    sweep,
)
from .solitons import (
    TheoremReport,
    VerticalScalar,
    conformal_report,
    einstein_like_fit,
    vertical_level,
    vertical_rows,
)
from .structure import metric_signature
from .tensors import MAX_DIM

#: component magnitudes below this are not listed as nonzero
DISPLAY_EPS = 1e-12
#: largest contact dimension parameter n, so that dim = 2n + 1 <= MAX_DIM
MAX_N = (MAX_DIM - 1) // 2
#: largest magnitude of a float option or grid value; the scenario formulas
#: stay finite far beyond it and first overflow near 1e307
OPTION_LIMIT = 1e250


def _fmt(value) -> str:
    # adding 0.0 normalizes -0.0 so text output is reproducible
    return f"{float(value) + 0.0:.12g}"


def _fmt_res(value) -> str:
    return f"{float(value) + 0.0:.3e}"


#: command-line flags of the options whose flag is not "--" + dest
_OPTION_FLAGS = {
    "k_prime": "--k-prime",
    "psi_tilde": "--psi-tilde",
    "lam": "--lambda",
    "lam_tilde": "--lambda-tilde",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by all commands."""

    command: str
    input_path: str = None
    scenario: str = None
    fmt: str = "text"
    tol: float = None
    grids: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tol is not None and not (self.tol > 0 and math.isfinite(self.tol)):
            raise ParseError(f"--tol must be a positive finite tolerance, got {self.tol}")
        if self.fmt not in ("text", "json"):
            raise ParseError(f"unknown format {self.fmt!r}")
        # a non-finite or overflowing value would reach the checks as a NaN
        # residual, or the JSON output as a non-finite float; NaN fails the
        # comparison too
        values = [(_OPTION_FLAGS.get(name, f"--{name}"), v) for name, v in self.options.items()]
        values += [(f"--grid-{name}", v) for name, grid in self.grids.items() for v in grid]
        for flag, value in values:
            if isinstance(value, float) and not abs(value) <= OPTION_LIMIT:
                raise ParseError(
                    f"{flag} must be finite and at most {OPTION_LIMIT:g} in magnitude, got {value}"
                )
        # the conformal formulas divide by 2n, and the carrier of dimension
        # 2n+1 is allocated only after this check
        n = self.options.get("n")
        if n is not None and not 1 <= n <= MAX_N:
            raise ParseError(f"--n must be between 1 and {MAX_N}, got {n}")
        for value in self.grids.get("n", ()):
            if not 1 <= value <= MAX_N:
                raise ParseError(f"--grid-n values must be between 1 and {MAX_N}, got {value}")

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        grids = {}
        for name in ("p", "q", "beta", "t0", "t", "n"):
            raw = getattr(args, f"grid_{name}", None)
            if raw is not None:
                grids[name] = _parse_grid(raw, name)
        options = {
            name: getattr(args, name, None)
            for name in (
                "p",
                "q",
                "beta",
                "t0",
                "t",
                "n",
                "k",
                "k_prime",
                "psi",
                "psi_tilde",
                "lam",
                "lam_tilde",
                "mu",
                "solve",
            )
        }
        return cls(
            command=args.command,
            input_path=getattr(args, "input", None),
            scenario=getattr(args, "scenario", None),
            fmt=getattr(args, "format", "text"),
            tol=getattr(args, "tol", None),
            grids=grids,
            options=options,
        )


def _parse_grid(raw: str, name: str):
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(int(piece) if name == "n" else float(piece))
        except ValueError:
            raise ParseError(f"--grid-{name}: {piece!r} is not a number") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accrgeo",
        description=(
            "Curvature and soliton-equation checks for almost contact "
            "B-metric structures on Lie groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", help="path to a JSON manifold definition")
        p.add_argument("--scenario", help="built-in scenario name (example1 | example2)")
        p.add_argument("--tol", type=float, help="override every check tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")

    inspect_p = sub.add_parser("inspect", help="validate and describe one manifold")
    add_common(inspect_p)
    inspect_p.add_argument("--p", type=float, help="scenario parameter p")
    inspect_p.add_argument("--q", type=float, help="scenario parameter q")

    soliton_p = sub.add_parser("soliton", help="check the soliton equations at a point")
    add_common(soliton_p)
    soliton_p.add_argument("--p", type=float, help="scenario parameter p")
    soliton_p.add_argument("--q", type=float, help="scenario parameter q")
    soliton_p.add_argument("--beta", type=float, help="soliton parameter beta")
    soliton_p.add_argument("--t0", type=float, help="vertical evaluation point (example2)")
    soliton_p.add_argument("--t", type=float, help="curve parameter (example1)")
    soliton_p.add_argument("--n", type=int, help="contact dimension parameter (example1)")
    soliton_p.add_argument("--k", type=float, help="vertical potential value")
    soliton_p.add_argument("--k-prime", type=float, dest="k_prime", help="xi-derivative of k")
    soliton_p.add_argument("--psi", type=float, help="conformal scalar for g")
    soliton_p.add_argument(
        "--psi-tilde", type=float, dest="psi_tilde", help="conformal scalar for the associated metric"
    )
    soliton_p.add_argument("--lambda", type=float, dest="lam", help="soliton constant for g")
    soliton_p.add_argument(
        "--lambda-tilde",
        type=float,
        dest="lam_tilde",
        help="soliton constant for the associated metric",
    )
    soliton_p.add_argument("--mu", type=float, help="eta(.)eta coefficient of the single-metric equation")
    soliton_p.add_argument(
        "--solve", action="store_true", help="solve for the soliton constants instead of verifying given ones"
    )

    sweep_p = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    sweep_p.add_argument("--scenario", required=True, help="example1 | example2")
    sweep_p.add_argument("--tol", type=float, help="override every check tolerance")
    sweep_p.add_argument("--format", choices=("text", "json"), default="text")
    for name in ("p", "q", "beta", "t0", "t", "n"):
        sweep_p.add_argument(
            f"--grid-{name}",
            dest=f"grid_{name}",
            help=f"comma-separated {name} values",
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig.from_args(args)
        if config.command == "inspect":
            payload, code = cmd_inspect(config)
        elif config.command == "soliton":
            payload, code = cmd_soliton(config)
        else:
            payload, code = cmd_sweep(config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.fmt == "json":
        print(to_json(payload))
    else:
        print("\n".join(_render_text(config.command, payload)))
    return code


# --- command implementations -------------------------------------------------


def _input_analysis(config: RunConfig):
    """The analysis of the --input definition file."""
    return analyze(*load_definition(config.input_path).build())


def cmd_inspect(config: RunConfig):
    """Structure validity, curvature table, scalars, classification, fit."""
    if (config.input_path is None) == (config.scenario is None):
        raise ParseError("exactly one of --input and --scenario is required")
    if config.input_path is not None:
        _, s, pkg, _, classification, assoc_pkg = _input_analysis(config)
    elif config.scenario != "example2":
        raise ParseError(
            "only example2 defines a concrete manifold; example1 is a "
            "formula-level curve (use the soliton or sweep commands)"
        )
    else:
        p = config.options.get("p") or 0.0
        q = config.options.get("q") or 0.0
        _, s, pkg, _, classification, assoc_pkg = example2_state(p, q)
    fit = einstein_like_fit(pkg.ricci, s)
    pos, neg = metric_signature(s.g.g)

    curvature_entries = _nonzero_entries(pkg.riemann.data)
    ricci_entries = _nonzero_entries(pkg.ricci.data)
    payload = {
        "dim": s.frame.dim,
        "n": s.n,
        "signature": [pos, neg],
        "structure": "valid",
        "sasaki_like": bool(classification.is_sasaki_like),
        "sasaki_residual": classification.residual,
        "tau": pkg.tau,
        "tau_star": pkg.tau_star,
        "tau_tilde": assoc_pkg.tau,
        # the two-route identity tau_tilde = 2n - tau_star holds only in the
        # Sasaki-like class; outside it the gap is not a residual
        "tau_tilde_cross_route_gap": (
            abs(assoc_pkg.tau - (2.0 * s.n - pkg.tau_star))
            if classification.is_sasaki_like
            else None
        ),
        "reeb_derivative_residual": reeb_derivative_residual(pkg.conn, s),
        "einstein_like": {
            "kind": fit.kind,
            "a": fit.a,
            "b": fit.b,
            "c": fit.c,
            "residual": fit.residual,
        },
        "curvature_nonzero": curvature_entries,
        "ricci_nonzero": ricci_entries,
    }
    return payload, 0


def _nonzero_entries(a: np.ndarray) -> list:
    """[*index, value] of each entry of a with |value| > DISPLAY_EPS, in C order."""
    flat = np.flatnonzero((a > DISPLAY_EPS) | (a < -DISPLAY_EPS))
    index = [axis.tolist() for axis in np.unravel_index(flat, a.shape)]
    return list(map(list, zip(*index, a.ravel()[flat].tolist())))


def _soliton_result(scenario, scalars: dict, report: TheoremReport, tol_override=None):
    """The soliton payload of one report and its exit code."""
    checks = []
    for check in report.checks:
        tol = check.tol if tol_override is None else tol_override
        checks.append(
            {
                "name": check.name,
                "residual": check.residual,
                "tol": tol,
                "passed": bool(check.residual < tol),
                "note": check.note,
            }
        )
    passed, _ = report.verdict(tol_override)
    payload = {
        "scenario": scenario,
        "scalars": scalars,
        "checks": checks,
        "notes": list(report.notes),
        "passed": passed,
    }
    return payload, 0 if passed else 1


def cmd_soliton(config: RunConfig):
    opts = config.options
    if (config.input_path is None) == (config.scenario is None):
        raise ParseError("exactly one of --input and --scenario is required")

    if config.scenario == "example2":
        params = Example2Params(
            **{name: opts[name] for name in ("p", "q", "beta", "t0") if opts[name] is not None}
        )
        k = None
        if opts["k"] is not None or opts["k_prime"] is not None:
            if opts["k"] is None or opts["k_prime"] is None:
                raise ParseError("a vertical potential needs both --k and --k-prime")
            k = VerticalScalar(value=opts["k"], xi_derivative=opts["k_prime"])
        lam = None if opts["solve"] else opts["lam"]
        lam_assoc = None if opts["solve"] else opts["lam_tilde"]
        used_k, row_lam, row_lam_assoc, report = example2_point(
            params, k=k, lam=lam, lam_assoc=lam_assoc, mu=opts["mu"]
        )
        _, _, pkg, _, _, assoc_pkg = example2_state(params.p, params.q)
        scalars = {
            "p": params.p,
            "q": params.q,
            "beta": params.beta,
            "t0": params.t0,
            "k": used_k.value,
            "k_prime": used_k.xi_derivative,
            "tau": pkg.tau,
            "tau_star": pkg.tau_star,
            "tau_tilde": assoc_pkg.tau,
        }
        # the constants the soliton residual was evaluated with; the
        # single-metric equation has no lambda_tilde
        if opts["mu"] is not None:
            scalars["mu"] = opts["mu"]
        scalars["lambda"] = row_lam
        if row_lam_assoc is not None:
            scalars["lambda_tilde"] = row_lam_assoc
        return _soliton_result("example2", scalars, report, config.tol)

    if config.scenario == "example1":
        t = opts["t"] if opts["t"] is not None else 0.0
        n = opts["n"] if opts["n"] is not None else 2
        beta = opts["beta"] if opts["beta"] is not None else 0.0
        sums_override = None
        if any(opts[name] is not None for name in ("psi", "psi_tilde", "lam", "lam_tilde")):
            sums_override = (
                opts["psi"] or 0.0,
                opts["psi_tilde"] or 0.0,
                opts["lam"] or 0.0,
                opts["lam_tilde"] or 0.0,
            )
        point, report = example1_point(t, n, beta, sums_override=sums_override)
        scalars = {
            "t": point.t,
            "n": point.n,
            "beta": point.beta,
            "p": point.p,
            "q": point.q,
            "tau": point.tau,
            "tau_tilde": point.tau_assoc,
            "tau_plus_tau_tilde": point.tau + point.tau_assoc,
            "psi_plus_lambda": point.sum_g,
            "psi_tilde_plus_lambda_tilde": point.sum_assoc,
        }
        return _soliton_result("example1", scalars, report, config.tol)

    if config.scenario is not None:
        raise ParseError(f"unknown scenario {config.scenario!r}")
    return _soliton_from_input(config)


def _soliton_from_input(config: RunConfig):
    """Soliton checks for a user-supplied manifold definition."""
    opts = config.options
    a = _input_analysis(config)
    s = a.s
    beta = opts["beta"] if opts["beta"] is not None else 0.0
    scalars = {
        "dim": s.frame.dim,
        "n": s.n,
        "beta": beta,
        "sasaki_like": bool(a.classification.is_sasaki_like),
        "tau": a.pkg.tau,
        "tau_star": a.pkg.tau_star,
        "tau_tilde": a.assoc_pkg.tau,
    }

    vertical = opts["k"] is not None or opts["k_prime"] is not None
    conformal = opts["psi"] is not None or opts["psi_tilde"] is not None
    if vertical and conformal:
        raise ParseError("choose one potential kind: vertical (--k) or conformal (--psi)")
    if not vertical and not conformal:
        raise ParseError(
            "no potential specified: pass --k/--k-prime (vertical) or "
            "--psi/--psi-tilde (conformal)"
        )

    if conformal:
        psi = opts["psi"] or 0.0
        psi_assoc = opts["psi_tilde"] or 0.0
        lam = opts["lam"] or 0.0
        lam_assoc = opts["lam_tilde"] or 0.0
        scalars.update(
            {"psi": psi, "psi_tilde": psi_assoc, "lambda": lam, "lambda_tilde": lam_assoc}
        )
        report = conformal_report(a, beta, psi, psi_assoc, lam, lam_assoc)
    else:
        if opts["k"] is None or opts["k_prime"] is None:
            raise ParseError("a vertical potential needs both --k and --k-prime")
        k = VerticalScalar(value=opts["k"], xi_derivative=opts["k_prime"])
        scalars.update({"k": k.value, "k_prime": k.xi_derivative})
        lam, lam_assoc = opts["lam"], opts["lam_tilde"]
        if opts["mu"] is None:
            if opts["solve"]:
                lam = lam_assoc = None
            elif lam is None or lam_assoc is None:
                raise ParseError(
                    "pass --lambda and --lambda-tilde, or --solve, or --mu for "
                    "the single-metric equation"
                )
        level = vertical_level(a, k)
        ((row,),) = vertical_rows(
            a, (level,), (beta,), lam, lam_assoc, solve=opts["solve"], mu=opts["mu"]
        )
        row_lam, row_lam_assoc, checks, residual, notes = row
        scalars["lambda"] = row_lam
        if opts["mu"] is None:
            scalars["lambda_tilde"] = row_lam_assoc
        else:
            scalars["mu"] = opts["mu"]
        report = TheoremReport([*checks, residual], notes)
    return _soliton_result(None, scalars, report, config.tol)


def cmd_sweep(config: RunConfig):
    grids = config.grids
    result = sweep(
        config.scenario,
        p_grid=grids.get("p"),
        q_grid=grids.get("q"),
        beta_grid=grids.get("beta"),
        t0_grid=grids.get("t0"),
        t_grid=grids.get("t"),
        n_grid=grids.get("n"),
    )
    rows = []
    n_pass = n_fail = 0
    for row in result.rows:
        passed = worst = None
        if not row.degenerate:
            passed, worst = row.report.verdict(config.tol)
            if passed:
                n_pass += 1
            else:
                n_fail += 1
        # the payload only reads the rows' params and scalars dicts
        rows.append(
            {
                "index": row.index,
                "params": row.params,
                "scalars": row.scalars,
                "degenerate": row.degenerate,
                "passed": passed,
                "worst_check": worst.name if worst else None,
                "worst_residual": worst.residual if worst else None,
            }
        )
    summary = {
        "rows": len(rows),
        "pass": n_pass,
        "fail": n_fail,
        "degenerate": len(rows) - n_pass - n_fail,
    }
    payload = {
        "scenario": result.scenario,
        "rows": rows,
        "summary": summary,
        "notes": list(result.notes),
        "passed": n_fail == 0,
    }
    return payload, 0 if n_fail == 0 else 1


# --- JSON writer -------------------------------------------------------------

_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _json_float(value) -> str:
    text = float.__repr__(value)
    if text in _NON_FINITE:
        raise ValueError(f"JSON output has a non-finite float: {text}")
    return text


#: JSON text of a scalar by exact type, as json writes it: float.__repr__ and
#: int.__repr__ are what json calls, so a numpy float64 prints as a float
_JSON_SCALARS = {
    float: _json_float,
    np.float64: _json_float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    str: encode_basestring_ascii,
}


def to_json(payload) -> str:
    """payload as json.dumps(payload, indent=2) writes it.

    CPython's C encoder does not run when indent is set, so json.dumps
    spends a large payload's time in pure-Python encoding; this writer
    produces the same bytes directly. It takes dicts with str keys, lists
    and the scalar types of _JSON_SCALARS. A non-finite float raises
    ValueError where json would write NaN or Infinity, and any other type
    raises TypeError. The recursion lives in _json_value, so a tracer that
    wraps public functions records one span per document.
    """
    return _json_value(payload, "\n")


def _json_value(value, indent: str) -> str:
    """value at the nesting whose newline-plus-indent is indent."""
    kind = type(value)
    write = _JSON_SCALARS.get(kind)
    if write is not None:
        return write(value)
    if kind is not dict and kind is not list:
        raise TypeError(f"JSON output has a {kind.__name__}")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    # scalars are written in place: one call per container, not per value
    scalar = _JSON_SCALARS.get
    if kind is list:
        items = [
            write(item) if (write := scalar(type(item))) else _json_value(item, inner)
            for item in value
        ]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    items = [
        f"{encode_basestring_ascii(key)}: "
        f"{write(item) if (write := scalar(type(item))) else _json_value(item, inner)}"
        for key, item in value.items()
    ]
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


# --- text rendering ----------------------------------------------------------


def _render_text(command: str, payload: dict):
    if command == "inspect":
        return _render_inspect(payload)
    if command == "soliton":
        return _render_soliton(payload)
    return _render_sweep(payload)


def _render_inspect(payload: dict):
    fit = payload["einstein_like"]
    lines = [
        f"dim = {payload['dim']}",
        f"n = {payload['n']}",
        f"signature = ({payload['signature'][0]},{payload['signature'][1]})",
        "structure = valid",
        f"sasaki_like = {'true' if payload['sasaki_like'] else 'false'}",
        f"sasaki_residual = {_fmt_res(payload['sasaki_residual'])}",
        f"tau = {_fmt(payload['tau'])}",
        f"tau_star = {_fmt(payload['tau_star'])}",
        f"tau_tilde = {_fmt(payload['tau_tilde'])}",
        (
            "tau_tilde_cross_route_gap = "
            + (
                _fmt_res(payload["tau_tilde_cross_route_gap"])
                if payload["tau_tilde_cross_route_gap"] is not None
                else "n/a (not sasaki_like)"
            )
        ),
        f"reeb_derivative_residual = {_fmt_res(payload['reeb_derivative_residual'])}",
        (
            f"einstein_like = {fit['kind']} "
            f"(a,b,c)=({_fmt(fit['a'])},{_fmt(fit['b'])},{_fmt(fit['c'])})"
        ),
        f"einstein_fit_residual = {_fmt_res(fit['residual'])}",
        "curvature_nonzero:",
    ]
    for i, j, k, l, value in payload["curvature_nonzero"]:
        lines.append(f"  R[{i},{j},{k},{l}] = {_fmt(value)}")
    lines.append("ricci_nonzero:")
    for i, j, value in payload["ricci_nonzero"]:
        lines.append(f"  rho[{i},{j}] = {_fmt(value)}")
    return lines


def _check_table(checks):
    if not checks:
        return ["(no checks)"]
    name_width = max(len(c["name"]) for c in checks)
    lines = [f"{'check'.ljust(name_width)}  {'residual':>10}  {'tol':>8}  status"]
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(
            f"{c['name'].ljust(name_width)}  {_fmt_res(c['residual']):>10}  "
            f"{c['tol']:>8.0e}  {status}"
        )
    return lines


#: JSON field names stay identifier-safe; text mode shows the usual notation
_SCALAR_DISPLAY = {"tau_plus_tau_tilde": "tau+tau_tilde"}


def _render_soliton(payload: dict):
    lines = []
    if payload.get("scenario"):
        lines.append(f"scenario = {payload['scenario']}")
    scalars = payload["scalars"]
    for key, value in scalars.items():
        if key == "lambda_tilde" and "lambda" in scalars:
            continue
        name = _SCALAR_DISPLAY.get(key, key)
        if key == "lambda" and "lambda_tilde" in scalars:
            lines.append(
                f"lambda = {_fmt(value)}, lambda_tilde = {_fmt(scalars['lambda_tilde'])}"
            )
        elif isinstance(value, bool):
            lines.append(f"{name} = {'true' if value else 'false'}")
        elif isinstance(value, int):
            lines.append(f"{name} = {value}")
        else:
            lines.append(f"{name} = {_fmt(value)}")
    lines.append("")
    lines.extend(_check_table(payload["checks"]))
    for note in payload["notes"]:
        lines.append(f"note: {note}")
    lines.append(f"result = {'pass' if payload['passed'] else 'FAIL'}")
    return lines


def _render_sweep(payload: dict):
    lines = [f"scenario = {payload['scenario']}"]
    rows = payload["rows"]
    if rows:
        param_names = list(rows[0]["params"].keys())
        headers = ["index", *param_names, "worst_check", "worst_residual", "status"]
        table = []
        for row in rows:
            if row["degenerate"]:
                status, worst_name, worst_res = "degenerate", "-", "-"
            else:
                status = "pass" if row["passed"] else "FAIL"
                worst_name = row["worst_check"] or "-"
                worst_res = (
                    _fmt_res(row["worst_residual"])
                    if row["worst_residual"] is not None
                    else "-"
                )
            table.append(
                [
                    str(row["index"]),
                    *[_fmt(row["params"][name]) for name in param_names],
                    worst_name,
                    worst_res,
                    status,
                ]
            )
        widths = [
            max(len(headers[col]), *(len(line[col]) for line in table))
            for col in range(len(headers))
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        for line in table:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    summary = payload["summary"]
    lines.append(
        f"summary: rows = {summary['rows']}, pass = {summary['pass']}, "
        f"fail = {summary['fail']}, degenerate = {summary['degenerate']}"
    )
    for note in payload["notes"]:
        lines.append(f"note: {note}")
    lines.append(f"result = {'pass' if payload['passed'] else 'FAIL'}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
