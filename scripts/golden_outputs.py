#!/usr/bin/env python3
"""Write the CLI's JSON output for a fixed set of commands into a directory.

The set covers every path from (algebra, structure) to a report:

- both default sweeps;
- example2 `inspect` and `soliton --solve` at three (p, q), and `soliton`
  with supplied constants, a supplied potential, the single-metric
  equation and the two special betas;
- example1 `soliton` at two curve points and with supplied scalars;
- an option that `soliton --scenario example2` does not read (`--psi`),
  an option that `--solve` leaves unread (`--lambda`) and a grid that the
  example1 sweep does not read (`--grid-p`), which exit 2;
- the example1 sweep at t = 2.3565, next to the excluded t = 3 pi/4, which
  marks that row degenerate;
- `--input` files, written here from literals: example2 at (0, 0), the
  Sasaki-like semidirect family at n = 4 and n = 16 (dim 33), and three
  algebras that are not Sasaki-like: the abelian dim-5 algebra on the same
  carrier, sl(2, R) on the dim-3 carrier (Einstein-fit kind
  `einstein_like`) and [e_1, e_3] = e_2, [e_2, e_3] = -e_2 on the dim-5
  carrier (`not_einstein_like`). Each gets `inspect` and `soliton` with
  `--solve`, with `--lambda/--lambda-tilde`, with `--mu` and with
  `--psi/--psi-tilde`;
- example2 at (0, 0) in a dense integer frame of determinant 1, through
  `inspect` and `soliton --solve`: every input entry is exact, but the
  connection is dense, so a change in how curvature rounds shows here;
- small sweeps in both formats: example1 through the degenerate t = 3 pi/4
  and beta = -1/(2n), example1 with `--tol 1e-3` and `--tol 1e-16` (which
  judge every check against the override), and example2 on single-value
  grids;
- the text format of `inspect` and `soliton --solve` of example2 at (0, 0),
  example1 `soliton` at t = 0, and `inspect` and `soliton --psi` of the
  example2 `--input` file (TEXT_STEMS), written last.

Each command's stdout goes to `<stem>.json` (`<stem>-text.txt` for the text
format), its stderr to `<stem>.stderr` (`<stem>-text.stderr`) when it exits
nonzero, and `exit_codes.txt` lists every exit code. The sweep JSON keeps
only each row's worst check, so `checks-sweep-example1.txt` and
`checks-sweep-example2.txt` list every check of the two default sweeps, one
line each (row index, name, repr of residual and tol, note), and every row
note. Run it on two checkouts and compare the directories with `diff -r` to
show that a change keeps the output byte-identical.

`--against REV OUTDIR` does that in one command: it exports the `src/` of
the git revision REV with `git archive`, writes this command set against
that `src/` into OUTDIR/against and against this checkout's `src/` into
OUTDIR/current, each in a fresh interpreter, and runs `diff -r` on the two.
It exits 0 only if they are identical, and 1, with the differences, if not.

Examples (from the repository root):
    PYTHONPATH=src python scripts/golden_outputs.py /tmp/golden-new
    diff -r /tmp/golden-old /tmp/golden-new
    python scripts/golden_outputs.py --against HEAD /tmp/golden-check
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

PQ_POINTS = ((0.0, 0.0), (1.5, -2.0), (-2.0, 1.0))

#: the commands of commands() that are run in the text format as well
TEXT_STEMS = (
    "inspect-p0-q0",
    "soliton-p0-q0",
    "soliton-ex1-t0-n2",
    "example2-p0-q0-inspect",
    "example2-p0-q0-psi",
)


def carrier_definition(n: int, brackets: list) -> dict:
    """g = diag(1, I_n, -I_n), xi = eta = e_0, phi e_a = e_{n+a}, phi e_{n+a} = -e_a."""
    dim = 2 * n + 1
    reeb = [1.0] + [0.0] * (dim - 1)
    return {
        "dim": dim,
        "structure_constants": brackets,
        "phi": [[n + a, a, 1.0] for a in range(1, n + 1)]
        + [[a, n + a, -1.0] for a in range(1, n + 1)],
        "xi": reeb,
        "eta": list(reeb),
        "g": [[i, i, 1.0 if i <= n else -1.0] for i in range(dim)],
    }


def semidirect_brackets(n: int) -> list:
    """[e_0, e_a] = e_{n+a}, [e_0, e_{n+a}] = -e_a: Sasaki-like, tau = 2n."""
    return [[0, a, n + a, 1.0] for a in range(1, n + 1)] + [
        [0, n + a, a, -1.0] for a in range(1, n + 1)
    ]


#: (file stem, contact dimension n, brackets, Sasaki-like)
INPUTS = (
    # example2 at (p, q) = (0, 0), bracket by bracket as its scenario lists them
    (
        "example2-p0-q0",
        2,
        [[0, 1, 3, 1.0], [0, 2, 4, 1.0], [0, 3, 1, -1.0], [0, 4, 2, -1.0]],
        True,
    ),
    ("semidirect-n4", 4, semidirect_brackets(4), True),
    ("semidirect-n16", 16, semidirect_brackets(16), True),
    ("abelian-n2", 2, [], False),
    # the two Einstein-fit kinds that no other output prints: sl(2, R) on the
    # dim-3 carrier (einstein_like) and a solvable algebra (not_einstein_like)
    ("sl2r-n1", 1, [[0, 1, 1, 1.0], [0, 2, 2, -1.0], [1, 2, 0, 1.0]], False),
    ("solvable-n2", 2, [[1, 3, 2, 1.0], [2, 3, 2, -1.0]], False),
)

#: f_a = sum_i DENSE_FRAME[i][a] e_i, with det 1 and an integer inverse
DENSE_FRAME = [[min(i, j) + 1 for j in range(5)] for i in range(5)]


def in_frame(definition: dict, frame: list) -> dict:
    """An integer definition rewritten in the frame f_a = sum_i frame[i][a] e_i
    of an integer matrix with det +-1; every entry stays an exact integer."""
    dim = definition["dim"]
    a = np.array(frame, dtype=np.int64)
    inverse = np.rint(np.linalg.inv(a)).astype(np.int64)
    c = np.zeros((dim,) * 3, dtype=np.int64)
    for i, j, k, value in definition["structure_constants"]:
        c[k, i, j], c[k, j, i] = value, -value
    phi, g = (np.zeros((dim, dim), dtype=np.int64) for _ in range(2))
    for matrix, key in ((phi, "phi"), (g, "g")):
        for i, j, value in definition[key]:
            matrix[i, j] = value
    # moved[i, j, k] = c'[k, i, j], the f_k-component of [f_i, f_j]
    moved = np.einsum("ck,kij,ia,jb->abc", inverse, c, a, a)

    def entries(m: np.ndarray) -> list:
        return [[*map(int, index), float(m[index])] for index in zip(*np.nonzero(m))]

    return {
        "dim": dim,
        "structure_constants": [entry for entry in entries(moved) if entry[0] < entry[1]],
        "phi": entries(inverse @ phi @ a),
        "xi": (inverse @ np.array(definition["xi"], dtype=np.int64)).astype(float).tolist(),
        "eta": (np.array(definition["eta"], dtype=np.int64) @ a).astype(float).tolist(),
        "g": entries(a.T @ g @ a),
    }


def input_commands(path: str, stem: str, n: int, sasaki_like: bool):
    """(file stem, argv) of the commands run on one definition file."""
    base = ["soliton", "--input", path, "--beta", "0.3"]
    # on the Sasaki-like files tau + tau_tilde = 4n(k' + n + 1) needs k' = -n
    k = ["--k", "0.5", "--k-prime", repr(float(-n))]
    if not sasaki_like:
        k = ["--k", "1", "--k-prime", "0"]
    yield f"{stem}-inspect", ["inspect", "--input", path]
    yield f"{stem}-solve", [*base, *k, "--solve"]
    yield f"{stem}-lambda", [*base, *k, "--lambda", "0.25", "--lambda-tilde=-1.5"]
    yield f"{stem}-mu", [*base, *k, "--mu=-4", "--lambda", "0.5"]
    yield f"{stem}-psi", [
        *base, "--psi", "1", "--psi-tilde=-1", "--lambda", "0.5", "--lambda-tilde", "0.25",
    ]


def commands(inputs_dir: Path):
    """(file stem, argv) for every output written."""
    yield "sweep-example2", ["sweep", "--scenario", "example2"]
    yield "sweep-example1", ["sweep", "--scenario", "example1"]
    for p, q in PQ_POINTS:
        pq = [f"--p={p!r}", f"--q={q!r}"]
        yield f"inspect-p{p:g}-q{q:g}", ["inspect", "--scenario", "example2", *pq]
        yield f"soliton-p{p:g}-q{q:g}", [
            "soliton", "--scenario", "example2", *pq, "--beta", "0.25", "--t0", "1", "--solve",
        ]
    ex2 = ["soliton", "--scenario", "example2"]
    yield "soliton-ex2-lambda", [*ex2, "--lambda", "2", "--lambda-tilde=-2"]
    yield "soliton-ex2-k-solve", [*ex2, "--k", "0.5", "--k-prime=-2", "--solve"]
    yield "soliton-ex2-mu", [*ex2, "--k", "0", "--k-prime", "0", "--mu=-4"]
    yield "soliton-ex2-beta-0.25", [*ex2, "--beta=-0.25", "--solve"]
    yield "soliton-ex2-beta-0.2", [*ex2, "--beta=-0.2", "--solve"]
    ex1 = ["soliton", "--scenario", "example1"]
    yield "soliton-ex1-t0-n2", [*ex1, "--t", "0", "--n", "2", "--beta", "0"]
    yield "soliton-ex1-t1-n2", [*ex1, "--t", "1", "--n", "2", "--beta=-0.25"]
    yield "soliton-ex1-override", [
        *ex1, "--t", "0.5", "--n", "3", "--beta", "0.1", "--psi", "1", "--lambda", "0.5",
    ]
    # options that the chosen source does not read exit 2
    yield "soliton-ex2-unread-psi", [*ex2, "--psi", "1"]
    yield "sweep-ex1-unread-grid-p", [
        "sweep", "--scenario", "example1",
        "--grid-p", "5", "--grid-n", "1", "--grid-t", "0", "--grid-beta", "0",
    ]
    yield "soliton-ex2-solve-lambda", [*ex2, "--solve", "--lambda", "3"]
    yield "sweep-ex1-near-excluded-t", [
        "sweep", "--scenario", "example1", "--grid-t", "0,2.3565", "--grid-n", "2",
        "--grid-beta", "0",
    ]
    for stem, n, brackets, sasaki_like in INPUTS:
        path = inputs_dir / f"{stem}.json"
        path.write_text(json.dumps(carrier_definition(n, brackets), indent=2) + "\n")
        yield from input_commands(str(path), stem, n, sasaki_like)
    stem, n, brackets, _ = INPUTS[0]
    dense = in_frame(carrier_definition(n, brackets), DENSE_FRAME)
    path = inputs_dir / "example2-dense-frame.json"
    path.write_text(json.dumps(dense, indent=2) + "\n")
    # inspect and soliton --solve
    yield from islice(input_commands(str(path), "example2-dense-frame", n, True), 2)


def small_sweeps():
    """(file stem, argv) of the sweeps written in both formats."""
    ex1 = ["sweep", "--scenario", "example1", "--grid-n", "1,2"]
    # t = 3 pi/4 is excluded; beta = -1/(2n) is the branch point of n = 1 and 2
    yield "sweep-ex1-degenerate", [
        *ex1, f"--grid-t=0,{3 * math.pi / 4!r},1", "--grid-beta=-0.5,-0.25,0.3",
    ]
    small = [*ex1, "--grid-t=0,0.5,2", "--grid-beta=-0.25,0,0.5"]
    yield "sweep-ex1-tol-1e-3", [*small, "--tol", "1e-3"]
    yield "sweep-ex1-tol-1e-16", [*small, "--tol", "1e-16"]
    yield "sweep-ex2-single", [
        "sweep", "--scenario", "example2",
        "--grid-p", "1.5", "--grid-q=-2", "--grid-beta", "0.25", "--grid-t0", "1",
    ]


def check_listing(scenario: str) -> str:
    """Every check and note of the default sweep of scenario, one per line,
    tab-separated."""
    from accrgeo.scenarios import sweep

    lines = []
    for row in sweep(scenario).rows:
        lines.extend(
            f"{row.index}\tcheck\t{name}\t{residual!r}\t{tol!r}\t{note}\n"
            for name, residual, tol, note in row.report.checks
        )
        lines.extend(f"{row.index}\tnote\t{note}\n" for note in row.report.notes)
    return "".join(lines)


def against(rev: str, outdir: Path) -> int:
    """Write the outputs against rev's src/ and against this checkout's, each
    in a fresh interpreter, and compare them with diff -r: its exit code."""
    if outdir.exists() and any(outdir.iterdir()):
        print(f"error: {outdir} is not empty", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    if archive.returncode:
        return 2
    with tempfile.TemporaryDirectory() as export:
        subprocess.run(["tar", "-x", "-C", export], input=archive.stdout, check=True)
        for name, src in (("against", Path(export) / "src"), ("current", ROOT / "src")):
            env = {**os.environ, "PYTHONPATH": str(src)}
            code = subprocess.call([sys.executable, __file__, str(outdir / name)], env=env)
            if code:
                print(f"error: writing {outdir / name} exited {code}", file=sys.stderr)
                return 2
    return subprocess.call(["diff", "-r", str(outdir / "against"), str(outdir / "current")])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--against":
        return against(argv[1], Path(argv[2]))
    if len(argv) != 1:
        print(f"usage: {Path(sys.argv[0]).name} [--against REV] OUTDIR", file=sys.stderr)
        return 2
    # imported here, so that --against runs with no accrgeo on the path
    from accrgeo.cli import main as cli_main

    outdir = Path(argv[0])
    inputs_dir = outdir / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    argvs = dict(commands(inputs_dir))
    runs = [(stem, args, "json") for stem, args in argvs.items()]
    runs += [(stem, args, fmt) for stem, args in small_sweeps() for fmt in ("json", "text")]
    runs += [(stem, argvs[stem], "text") for stem in TEXT_STEMS]
    codes = []
    for stem, args, fmt in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([*args, "--format", fmt])
        if fmt == "json":
            (outdir / f"{stem}.json").write_text(out.getvalue())
        else:
            stem += "-text"
            (outdir / f"{stem}.txt").write_text(out.getvalue())
        if code != 0:
            (outdir / f"{stem}.stderr").write_text(err.getvalue())
        codes.append(f"{stem} {code}\n")
    (outdir / "exit_codes.txt").write_text("".join(codes))
    for scenario in ("example1", "example2"):
        (outdir / f"checks-sweep-{scenario}.txt").write_text(check_listing(scenario))
    return 0


if __name__ == "__main__":
    sys.exit(main())
