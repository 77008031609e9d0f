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

Each option is declared once, in OPTIONS, with the commands that take it
and the sources (example1, example2, --input) that read it, and each
command once, in COMMANDS, with the sources it takes; the tables build the
parser and every message. RunConfig rejects a bad request (a source the
command does not take, an option the source does not read, or one that
another given option leaves unread: UNREAD_WITH) before any file is read,
so the commands raise no input error of their own.

JSON output of every command comes from one writer, to_json: the bytes
of json.dumps(payload, indent=2), without json's pure-Python indenting
encoder, and an error rather than NaN or Infinity for a non-finite float.
A sweep's rows and inspect's two listings of nonzero components stay
columns up to the output text, JSON or text: no dict per row and no list
per listed entry.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .definitions import load_definition
from .errors import GeometryError, ParseError
from .geometry import analyze, reeb_derivative_residual
from .scenarios import (
    Example2Params,
    SweepResult,
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
    vertical_rows,
)
from .tensors import MAX_DIM

#: component magnitudes below this are not listed as nonzero
DISPLAY_EPS = 1e-12
#: entries that _nonzero_entries masks at once
SCAN_BLOCK = 1 << 16
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


class _FmtText(dict):
    """The _fmt text of every value written in one listing or column, by
    value, so that a repeated value is formatted once. Equal values have
    the same text (0.0 and -0.0 both give "0")."""

    def __missing__(self, value) -> str:
        text = self[value] = _fmt(value)
        return text


#: every option a source reads, by name: (type, help, the commands that
#: take it, the sources that read it). Its flag is "--" + name with "-" for
#: "_", and sweep takes it as the grid --grid-<name> of comma-separated values
OPTIONS = {
    "p": (float, "scenario parameter p", "inspect soliton sweep", "example2"),
    "q": (float, "scenario parameter q", "inspect soliton sweep", "example2"),
    "beta": (float, "soliton parameter beta", "soliton sweep", "example1 example2 input"),
    "t0": (float, "vertical evaluation point (example2)", "soliton sweep", "example2"),
    "t": (float, "curve parameter (example1)", "soliton sweep", "example1"),
    "n": (int, "contact dimension parameter (example1)", "soliton sweep", "example1"),
    "k": (float, "vertical potential value", "soliton", "example2 input"),
    "k_prime": (float, "xi-derivative of k", "soliton", "example2 input"),
    "psi": (float, "conformal scalar for g", "soliton", "example1 input"),
    "psi_tilde": (
        float, "conformal scalar for the associated metric", "soliton", "example1 input"
    ),
    "lambda": (float, "soliton constant for g", "soliton", "example1 example2 input"),
    "lambda_tilde": (
        float, "soliton constant for the associated metric", "soliton", "example1 example2 input"
    ),
    "mu": (
        float, "eta(.)eta coefficient of the single-metric equation", "soliton", "example2 input"
    ),
    "solve": (
        bool,
        "solve for the soliton constants instead of verifying given ones",
        "soliton",
        "example2 input",
    ),
}


#: the options that an option leaves unread, by name: --solve computes the
#: constants, the single-metric equation (--mu) has no lambda_tilde, a given
#: potential (--k) replaces the family one evaluated at t0, and a conformal
#: potential is neither vertical nor solved
UNREAD_WITH = {
    "solve": "lambda lambda_tilde mu",
    "mu": "lambda_tilde",
    "k": "t0",
    "psi": "k k_prime mu solve",
    "psi_tilde": "k k_prime mu solve",
}


#: every command, by name: (help, the sources it takes, the names of the
#: functions that build its payload and exit code and render it as text
#: lines), looked up at each run so that a wrapper bound to a name sees it
COMMANDS = {
    "inspect": (
        "validate and describe one manifold", "example2 input", "cmd_inspect", "_render_inspect"
    ),
    "soliton": (
        "check the soliton equations at a point",
        "example1 example2 input",
        "cmd_soliton",
        "_render_soliton",
    ),
    "sweep": (
        "run a scenario over a parameter grid", "example1 example2", "cmd_sweep", "_render_sweep"
    ),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _source_flag(source: str) -> str:
    return "--input" if source == "input" else f"--scenario {source}"


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by all commands. options and
    grids are keyed by OPTIONS names; an option not given is None (False
    for --solve), and a grid not given is absent."""

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
        # flag: (name, values) of every option and grid given
        given = {
            _flag(name): (name, [value])
            for name, value in self.options.items()
            if value is not None and value is not False
        }
        given.update((_flag(f"grid_{name}"), (name, grid)) for name, grid in self.grids.items())
        # a non-finite or overflowing value would reach the checks as a NaN
        # residual, or the JSON output as a non-finite float; NaN fails the
        # comparison too
        for flag, (_, values) in given.items():
            for value in values:
                if isinstance(value, float) and not abs(value) <= OPTION_LIMIT:
                    raise ParseError(
                        f"{flag} must be finite and at most {OPTION_LIMIT:g} in magnitude, "
                        f"got {value}"
                    )
        # the conformal formulas divide by 2n, and the carrier of dimension
        # 2n+1 is allocated only after this check
        n = self.options.get("n")
        if n is not None and not 1 <= n <= MAX_N:
            raise ParseError(f"--n must be between 1 and {MAX_N}, got {n}")
        for value in self.grids.get("n", ()):
            if not 1 <= value <= MAX_N:
                raise ParseError(f"--grid-n values must be between 1 and {MAX_N}, got {value}")
        if (self.input_path is None) == (self.scenario is None):
            raise ParseError("exactly one of --input and --scenario is required")
        source = "input" if self.scenario is None else self.scenario
        where = _source_flag(source)
        takes = COMMANDS[self.command][1].split()
        if source not in takes:
            raise ParseError(
                f"{self.command} does not take {where}; it takes "
                + " or ".join(map(_source_flag, takes))
            )
        for flag, (name, _) in given.items():
            _, _, commands, sources = OPTIONS[name]
            if self.command not in commands.split() or source not in sources.split():
                raise ParseError(f"{flag} is not read by {self.command} {where}")
            for other, unread in UNREAD_WITH.items():
                if _flag(other) in given and name in unread.split():
                    raise ParseError(
                        f"{flag} is not read by {self.command} {where} with {_flag(other)}"
                    )
        if ("--k" in given) != ("--k-prime" in given):
            raise ParseError("a vertical potential needs both --k and --k-prime")
        # a definition file brings no potential and no soliton constants
        flags = given.keys()
        if self.command == "soliton" and source == "input" and not flags & {"--psi", "--psi-tilde"}:
            if "--k" not in flags:
                raise ParseError(
                    "no potential specified: pass --k/--k-prime (vertical) or "
                    "--psi/--psi-tilde (conformal)"
                )
            if not (flags >= {"--lambda", "--lambda-tilde"} or flags & {"--solve", "--mu"}):
                raise ParseError(
                    "pass --lambda and --lambda-tilde, or --solve, or --mu for "
                    "the single-metric equation"
                )

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        values = {name: getattr(args, name) for name in OPTIONS if hasattr(args, name)}
        grids = {}
        if args.command == "sweep":
            grids = {
                name: _parse_grid(raw, name) for name, raw in values.items() if raw is not None
            }
            values = {}
        input_path = getattr(args, "input", None)
        return cls(args.command, input_path, args.scenario, args.format, args.tol, grids, values)


def _parse_grid(raw: str, name: str):
    flag, kind = _flag(f"grid_{name}"), OPTIONS[name][0]
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(kind(piece))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ParseError(f"{flag}: {piece!r} is not {what}") from None
    if not values:
        raise ParseError(f"{flag} has no values")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and kept: a
    parse does not change it."""
    parser = argparse.ArgumentParser(
        prog="accrgeo",
        description=(
            "Curvature and soliton-equation checks for almost contact "
            "B-metric structures on Lie groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, sources, _, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        takes_input = "input" in sources.split()
        if takes_input:
            p.add_argument("--input", help="path to a JSON manifold definition")
        p.add_argument(
            "--scenario",
            required=not takes_input,
            help="built-in scenario name (example1 | example2)",
        )
        p.add_argument("--tol", type=float, help="override every check tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for name, (kind, help_text, commands, _) in OPTIONS.items():
            if command not in commands.split():
                continue
            if command == "sweep":
                p.add_argument(
                    _flag(f"grid_{name}"), dest=name, help=f"comma-separated {name} values"
                )
            elif kind is bool:
                p.add_argument(_flag(name), action="store_true", help=help_text)
            else:
                p.add_argument(_flag(name), type=kind, help=help_text)
    return parser


def _print(text: str, stream) -> None:
    """Print text to stream. If the reader has gone (as with `| head -1`),
    point the stream at devnull, so that the flush at exit does not fail
    again, and keep the exit code."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig.from_args(args)
        _, _, build, render = COMMANDS[config.command]
        payload, code = globals()[build](config)
    except GeometryError as exc:
        _print(f"error: {exc}", sys.stderr)
        return 2
    text = to_json(payload) if config.fmt == "json" else "\n".join(globals()[render](payload))
    _print(text, sys.stdout)
    return code


# --- command implementations -------------------------------------------------


def _input_analysis(config: RunConfig):
    """The analysis of the --input definition file."""
    return analyze(*load_definition(config.input_path).build())


def cmd_inspect(config: RunConfig):
    """Structure validity, curvature table, scalars, classification, fit."""
    # unpacked at once, so F is freed before curvature_nonzero builds R of g;
    # at dim 33 the peak is then R and its listing, about 1.2 dim^4 float64
    # arrays (tracemalloc)
    if config.input_path is not None:
        _, s, pkg, _, classification, assoc_pkg = _input_analysis(config)
    else:
        p = config.options.get("p") or 0.0
        q = config.options.get("q") or 0.0
        _, s, pkg, _, classification, assoc_pkg = example2_state(p, q)
    fit = einstein_like_fit(pkg.ricci, s)
    payload = {
        "dim": s.frame.dim,
        "n": s.n,
        # validate_structure admits only the signature (n+1, n)
        "signature": [s.n + 1, s.n],
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
        "curvature_nonzero": _nonzero_entries(pkg.riemann.data),
        "ricci_nonzero": _nonzero_entries(pkg.ricci.data),
    }
    return payload, 0


@dataclass(frozen=True)
class _Listing:
    """Listed entries of an array as columns: index, one list of int indices
    per axis, and values. to_json writes it as the list of one [*index,
    value] list per entry, and _render_inspect as one line per entry."""

    index: tuple
    values: list

    def __len__(self) -> int:
        return len(self.values)


def _nonzero_entries(a: np.ndarray) -> _Listing:
    """The entries of a with |value| > DISPLAY_EPS, in C order, as columns,
    masked SCAN_BLOCK entries at a time: no temporary the size of a dim^4 R."""
    values, found = a.ravel(), []
    for start in range(0, values.size, SCAN_BLOCK):
        mask = np.abs(values[start : start + SCAN_BLOCK]) > DISPLAY_EPS
        found.append(np.flatnonzero(mask) + start)
    flat = np.concatenate(found)
    index = tuple(axis.tolist() for axis in np.unravel_index(flat, a.shape))
    return _Listing(index, values[flat].tolist())


def _soliton_result(scenario, scalars: dict, report: TheoremReport, tol_override=None):
    """The soliton payload of one report and its exit code."""
    checks = [
        {
            "name": check.name,
            "residual": check.residual,
            "tol": check.tol if tol_override is None else tol_override,
            "passed": bool(check.passes(tol_override)),
            "note": check.note,
        }
        for check in report.checks
    ]
    passed = all(check["passed"] for check in checks)
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
    if config.scenario == "example2":
        params = Example2Params(
            **{name: opts[name] for name in ("p", "q", "beta", "t0") if opts[name] is not None}
        )
        k = None
        if opts["k"] is not None:
            k = VerticalScalar(value=opts["k"], xi_derivative=opts["k_prime"])
        used_k, row_lam, row_lam_assoc, report = example2_point(
            params, k=k, lam=opts["lambda"], lam_assoc=opts["lambda_tilde"], mu=opts["mu"]
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
        names = ("psi", "psi_tilde", "lambda", "lambda_tilde")
        if any(opts[name] is not None for name in names):
            sums_override = tuple(opts[name] or 0.0 for name in names)
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

    # RunConfig has rejected a request with no potential, or with both kinds
    if opts["psi"] is not None or opts["psi_tilde"] is not None:
        psi = opts["psi"] or 0.0
        psi_assoc = opts["psi_tilde"] or 0.0
        lam = opts["lambda"] or 0.0
        lam_assoc = opts["lambda_tilde"] or 0.0
        scalars.update(
            {"psi": psi, "psi_tilde": psi_assoc, "lambda": lam, "lambda_tilde": lam_assoc}
        )
        report = conformal_report(a, beta, psi, psi_assoc, lam, lam_assoc)
    else:
        k = VerticalScalar(value=opts["k"], xi_derivative=opts["k_prime"])
        scalars.update({"k": k.value, "k_prime": k.xi_derivative})
        lam, lam_assoc = opts["lambda"], opts["lambda_tilde"]
        row_lam, row_lam_assoc, table = vertical_rows(
            a, (k,), (beta,), lam, lam_assoc, solve=opts["solve"], mu=opts["mu"]
        )
        scalars["lambda"] = row_lam
        if opts["mu"] is None:
            scalars["lambda_tilde"] = row_lam_assoc
        else:
            scalars["mu"] = opts["mu"]
        report = table.report(0)
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
    rows = _SweepRows(result, result.verdict_columns(config.tol))
    passed = rows.verdicts[0]
    n_fail = passed.count(False)
    summary = {
        "rows": len(rows),
        "pass": len(passed) - n_fail,
        "fail": n_fail,
        "degenerate": len(rows) - len(passed),
    }
    payload = {
        "scenario": result.scenario,
        "rows": rows,
        "summary": summary,
        "notes": list(result.notes),
        "passed": n_fail == 0,
    }
    return payload, 0 if n_fail == 0 else 1


@dataclass(frozen=True)
class _SweepRows:
    """The rows of a sweep payload, as columns: result's params, scalars and
    degenerate rows, and verdicts, the (passed, worst check, worst residual)
    columns over its judged rows. to_json writes it as the list of one dict
    per row (index, params, scalars, degenerate, passed, worst_check,
    worst_residual), with scalars {} and null verdicts on a degenerate row."""

    result: SweepResult
    verdicts: tuple

    def __len__(self) -> int:
        return len(self.result.excluded)


# --- JSON writer -------------------------------------------------------------

_NON_FINITE = frozenset({"nan", "inf", "-inf"})


class _FloatText(dict):
    """The JSON text of every float written in one document, by value, so
    that a float repeated in the document is formatted once. A zero is not
    kept: 0.0 and -0.0 are equal keys with different text."""

    def __missing__(self, value) -> str:
        text = float.__repr__(value)
        if text in _NON_FINITE:
            raise ValueError(f"JSON output has a non-finite float: {text}")
        if value:
            self[value] = text
        return text


#: JSON text of a scalar by exact type, as json writes it: float.__repr__ and
#: int.__repr__ are what json calls, so a numpy float64 prints as a float;
#: to_json adds both float types, whose text it keeps per document
_JSON_SCALARS = {
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
    and the scalar types of _JSON_SCALARS, float and numpy float64, a
    sweep's rows as a _SweepRows column block, written as its list of row
    dicts, and a listing as a _Listing, written as its list of entry lists.
    A non-finite float raises ValueError where json would write NaN
    or Infinity, and any other type raises TypeError. The recursion lives
    in _json_value, so a tracer that wraps public functions records one
    span per document.
    """
    text = _FloatText().__getitem__
    return _json_value(payload, "\n", {**_JSON_SCALARS, float: text, np.float64: text})


def _json_value(value, indent: str, writers: dict) -> str:
    """value at the nesting whose newline-plus-indent is indent, each scalar
    written by writers[its type]."""
    kind = type(value)
    write = writers.get(kind)
    if write is not None:
        return write(value)
    if kind is _SweepRows:
        return _json_sweep_rows(value, indent, writers)
    if kind is _Listing:
        return _json_listing(value, indent, writers)
    if kind is not dict and kind is not list:
        raise TypeError(f"JSON output has a {kind.__name__}")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    # scalars are written in place: one call per container, not per value
    scalar = writers.get
    if kind is list:
        items = [
            write(item) if (write := scalar(type(item))) else _json_value(item, inner, writers)
            for item in value
        ]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    items = [
        f"{encode_basestring_ascii(key)}: "
        f"{write(item) if (write := scalar(type(item))) else _json_value(item, inner, writers)}"
        for key, item in value.items()
    ]
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


def _json_column(column: list, writers: dict):
    """The JSON text of each value of column, one writer mapped over the
    column when its values share a type."""
    kinds = set(map(type, column))
    missing = kinds - writers.keys()
    if missing:
        raise TypeError(f"JSON output has a {missing.pop().__name__}")
    if len(kinds) == 1:
        return map(writers[kinds.pop()], column)
    return [writers[type(value)](value) for value in column]


def _json_listing(listing: _Listing, indent: str, writers: dict) -> str:
    """listing as _json_value writes its list of [*index, value] lists at
    indent: the values written at once by _json_column, then each entry by
    one % over one template, with %d for each index."""
    if not listing:
        return "[]"
    item = indent + "  "
    inner = item + "  "
    template = f"[{inner}{(',' + inner).join(['%d'] * len(listing.index) + ['%s'])}{item}]"
    texts = map(template.__mod__, zip(*listing.index, _json_column(listing.values, writers)))
    return f"[{item}{(',' + item).join(texts)}{indent}]"


def _json_object(fields: dict, indent: str) -> str:
    """The %-template of a dict of fields (key: the text or template of its
    value) at the nesting whose newline-plus-indent is indent."""
    if not fields:
        return "{}"
    inner = indent + "  "
    items = [
        f"{encode_basestring_ascii(key).replace('%', '%%')}: {text}"
        for key, text in fields.items()
    ]
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


def _json_sweep_rows(rows: _SweepRows, indent: str, writers: dict) -> str:
    """rows as _json_value writes its list of row dicts at indent: each
    column written at once by _json_column, then each row by one % over
    the template of its shape, judged or degenerate."""
    if not rows:
        return "[]"
    result, item = rows.result, indent + "  "
    nested = item + "  "
    head = {"index": "%s", "params": _json_object(dict.fromkeys(result.params, "%s"), nested)}
    scalars = _json_object(dict.fromkeys(result.scalars, "%s"), nested)
    verdict = dict.fromkeys(("passed", "worst_check", "worst_residual"), "%s")
    judged = _json_object({**head, "scalars": scalars, "degenerate": "false", **verdict}, item)
    degenerate = {**head, "scalars": "{}", "degenerate": "true", **dict.fromkeys(verdict, "null")}
    degenerate = _json_object(degenerate, item)
    heads = zip(
        map(int.__repr__, range(len(rows))),
        *(_json_column(column, writers) for column in result.params.values()),
    )
    tails = zip(
        *(_json_column(column, writers) for column in (*result.scalars.values(), *rows.verdicts))
    )
    texts = [
        judged % (*values, *next(tails)) if text is None else degenerate % values
        for values, text in zip(heads, result.excluded)
    ]
    return f"[{item}{(',' + item).join(texts)}{indent}]"


# --- text rendering ----------------------------------------------------------


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
    lines.extend(_listing_lines("R", payload["curvature_nonzero"]))
    lines.append("ricci_nonzero:")
    lines.extend(_listing_lines("rho", payload["ricci_nonzero"]))
    return lines


def _listing_lines(name: str, listing: _Listing):
    """The line "  name[i,j,...] = value" of each entry of listing."""
    template = f"  {name}[{','.join(['%d'] * len(listing.index))}] = %s"
    return map(template.__mod__, zip(*listing.index, map(_FmtText().__getitem__, listing.values)))


def _check_table(checks):
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
        result = rows.result
        judged = zip(*rows.verdicts)
        # worst check, worst residual and status of each row
        verdicts = []
        for text in result.excluded:
            if text is not None:
                verdicts.append(("-", "-", "degenerate"))
                continue
            passed, worst, residual = next(judged)
            verdicts.append((worst, _fmt_res(residual), "pass" if passed else "FAIL"))
        text = _FmtText().__getitem__
        columns = [
            list(map(str, range(len(rows)))),
            *(list(map(text, column)) for column in result.params.values()),
            *zip(*verdicts),
        ]
        headers = ["index", *result.params, "worst_check", "worst_residual", "status"]
        widths = [max(len(header), *map(len, column)) for header, column in zip(headers, columns)]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        for line in zip(*columns):
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
