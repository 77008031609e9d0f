"""The four benchmark workloads: seeded inputs, argv lists and output checks.

Everything here is plain Python with no numpy, so the worker can import it
after it has timed ``import accrgeo.cli``. Definition files are written in
the documented JSON format of ``accrgeo.definitions`` (entry order as
``ManifoldDefinition.from_structure`` emits it), so the program under test
receives only files and argv.

Every op of every workload is expected to exit 0; any other exit code, a
traceback or a failed output check counts the op as failed.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass

#: relative tolerance of every numeric output check
CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: object  # (seed, workdir) -> list of {"argv": [...], "check": {...}}
    #: ops that belong together (inspect F, soliton F); workers start on a
    #: block boundary and traced runs switch tracing per block
    block: int = 1


# --- definition files --------------------------------------------------------


def example2_definition(p: float, q: float) -> dict:
    """The five-dimensional example2 scenario at (p, q) as a definition dict."""
    rows = {
        1: {2: p, 3: 1.0, 4: q},
        2: {1: -p, 3: -q, 4: 1.0},
        3: {1: -1.0, 2: -q, 4: p},
        4: {1: q, 2: -1.0, 3: -p},
    }
    brackets = [
        [0, i, k, float(rows[i][k])]
        for i in range(1, 5)
        for k in range(5)
        if rows[i].get(k, 0.0) != 0.0
    ]
    return _definition(2, brackets)


def semidirect_definition(n: int) -> dict:
    """[e_0, e_a] = e_{n+a}, [e_0, e_{n+a}] = -e_a on the flat carrier of size n.

    It is example2 at p = q = 0 for n = 2 and is Sasaki-like for every n,
    with tau = tau_tilde = 2n, tau_star = 0 and an eta-Einstein Ricci tensor
    with c = 2n.
    """
    brackets = [[0, a, n + a, 1.0] for a in range(1, n + 1)]
    brackets += [[0, n + a, a, -1.0] for a in range(1, n + 1)]
    return _definition(n, brackets)


def _definition(n: int, brackets: list) -> dict:
    """Definition on the carrier g = diag(1, I_n, -I_n), xi = e_0, phi e_a = e_{n+a}."""
    dim = 2 * n + 1
    phi = [[a, n + a, -1.0] for a in range(1, n + 1)]
    phi += [[n + a, a, 1.0] for a in range(1, n + 1)]
    reeb = [1.0] + [0.0] * (dim - 1)
    return {
        "dim": dim,
        "structure_constants": brackets,
        "phi": phi,
        "xi": list(reeb),
        "eta": list(reeb),
        "g": [[i, i, 1.0 if i <= n else -1.0] for i in range(dim)],
    }


@functools.cache
def example2_curvature() -> dict:
    """Nonzero R_ijkl of example2 (every (p, q)), closed under the pair symmetries."""
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
    table = {}
    for index, value in seeds.items():
        todo = [(index, value)]
        while todo:
            (i, j, k, l), v = todo.pop()
            if (i, j, k, l) in table:
                continue
            table[(i, j, k, l)] = v
            todo += [((j, i, k, l), -v), ((i, j, l, k), -v), ((k, l, i, j), v)]
    return table


# --- workloads ---------------------------------------------------------------


def _write(workdir: str, name: str, definition: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(definition, handle, indent=2)
        handle.write("\n")
    return path


def _draw_beta(rng: random.Random, n: int) -> float:
    """beta in [-1, 1], kept away from the branch point -1/(2n)."""
    while True:
        beta = rng.uniform(-1.0, 1.0)
        if abs(beta + 1.0 / (2 * n)) > 0.05:
            return beta


def _input_ops(paths_and_n, rng: random.Random, *, curvature: bool) -> list:
    """inspect F, soliton F --solve for each file, with seeded K and beta."""
    ops = []
    for path, n in paths_and_n:
        k = rng.uniform(-2.0, 2.0)
        beta = _draw_beta(rng, n)
        ops.append(
            {
                "argv": ["inspect", "--input", path, "--format", "json"],
                "check": {"kind": "inspect", "n": n, "curvature": curvature},
            }
        )
        ops.append(
            {
                "argv": [
                    "soliton", "--input", path,
                    "--k", repr(k), "--k-prime", str(-n),
                    "--beta", repr(beta), "--solve", "--format", "json",
                ],
                "check": {"kind": "soliton", "n": n, "k": k, "beta": beta},
            }
        )
    return ops


def input_dim5_ops(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    files = []
    for index in range(8):
        if index % 2 == 0:
            p, q = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            files.append((_write(workdir, f"dim5-{index}.json", example2_definition(p, q)), 2))
        else:
            files.append((_write(workdir, f"dim5-{index}.json", semidirect_definition(2)), 2))
    return _input_ops(files, rng, curvature=True)


def input_dim33_ops(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    path = _write(workdir, "dim33.json", semidirect_definition(16))
    return _input_ops([(path, 16)] * 4, rng, curvature=False)


def sweep_ops(scenario: str):
    def make(seed: int, workdir: str) -> list:
        argv = ["sweep", "--scenario", scenario, "--format", "json"]
        return [{"argv": argv, "check": {"kind": f"sweep-{scenario}"}}]

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-example2",
            "700-row default example2 sweep: report assembly and Tensor churn over cached dim-5 geometry",
            sweep_ops("example2"),
        ),
        Workload(
            "sweep-example1",
            "1295-row default example1 sweep: conformal-theorem path, no geometry, largest JSON output",
            sweep_ops("example1"),
        ),
        Workload(
            "input-dim5",
            "inspect and soliton --solve on dim-5 files: fixed per-command cost, where a dim-33 kernel win must not lose",
            input_dim5_ops,
            block=2,
        ),
        Workload(
            "input-dim33",
            "inspect and soliton --solve at dim 33: the O(dim^5) Jacobi, curvature and fundamental-tensor kernels",
            input_dim33_ops,
            block=2,
        ),
    )
}


# --- output checks -----------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"bare {name} in output")


def _close(actual, expected) -> bool:
    return (
        isinstance(actual, (int, float))
        and abs(actual - expected) <= CHECK_RTOL * max(1.0, abs(expected))
    )


def check_output(check: dict, code: int, stdout: str) -> list:
    """Reasons the op's output is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        payload = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    kind = check["kind"]
    if kind == "inspect":
        return _check_inspect(check, payload)
    if kind == "soliton":
        return _check_soliton(check, payload)
    if kind == "sweep-example2":
        return _check_sweep(payload, 700, _example2_row)
    return _check_sweep(payload, 1295, _example1_row)


def _check_inspect(check: dict, payload: dict) -> list:
    n = check["n"]
    fit = payload.get("einstein_like", {})
    problems = [
        f"{name} = {payload.get(name)!r}, expected {value}"
        for name, value in (("tau", 2 * n), ("tau_tilde", 2 * n), ("tau_star", 0.0))
        if not _close(payload.get(name), value)
    ]
    if payload.get("dim") != 2 * n + 1 or payload.get("sasaki_like") is not True:
        problems.append("expected a Sasaki-like structure of dim 2n+1")
    if fit.get("kind") != "eta_einstein" or not _close(fit.get("c"), 2 * n):
        problems.append(f"einstein fit {fit!r}, expected eta_einstein with c = {2 * n}")
    if check["curvature"]:
        expected = example2_curvature()
        listed = {tuple(entry[:4]): entry[4] for entry in payload.get("curvature_nonzero", [])}
        if listed.keys() != expected.keys() or not all(
            _close(listed[idx], value) for idx, value in expected.items()
        ):
            problems.append("curvature_nonzero differs from the example2 table")
    return problems


def _check_soliton(check: dict, payload: dict) -> list:
    n, k, beta = check["n"], check["k"], check["beta"]
    scalars = payload.get("scalars", {})
    tau = 2 * n
    factor = tau * (1.0 + 2 * n * beta) / (2 * n)
    problems = []
    if payload.get("passed") is not True:
        problems.append("soliton report did not pass")
    if not _close(scalars.get("lambda"), 1.0 - k - factor):
        problems.append(f"lambda = {scalars.get('lambda')!r}, expected {1.0 - k - factor}")
    if not _close(scalars.get("lambda_tilde"), 1.0 + k - factor):
        problems.append(
            f"lambda_tilde = {scalars.get('lambda_tilde')!r}, expected {1.0 + k - factor}"
        )
    return problems


def _check_sweep(payload: dict, rows: int, row_check) -> list:
    summary = payload.get("summary", {})
    problems = []
    if summary != {"rows": rows, "pass": rows, "fail": 0, "degenerate": 0}:
        problems.append(f"summary {summary!r}, expected {rows} passing rows")
    # degenerate rows carry no scalars; the summary check above already counts them
    bad = [
        row.get("index")
        for row in payload.get("rows", [])
        if not row.get("degenerate") and not row_check(row)
    ]
    if bad:
        problems.append(f"{len(bad)} rows with wrong scalars, first at index {bad[0]}")
    return problems


def _example2_row(row: dict) -> bool:
    params, scalars = row["params"], row["scalars"]
    t0, beta = params["t0"], params["beta"]
    return _close(scalars["lambda"], 2.0 * (t0 - 2.0 * beta)) and _close(
        scalars["lambda_tilde"], -2.0 * (t0 + 2.0 * beta)
    )


def _example1_row(row: dict) -> bool:
    n = row["params"]["n"]
    scalars = row["scalars"]
    return _close(scalars["tau"] + scalars["tau_tilde"], 4.0 * n * (n + 1))
