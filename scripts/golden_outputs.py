#!/usr/bin/env python3
"""Write the CLI's JSON output for a fixed set of commands into a directory.

The set is both default sweeps plus the example2 `inspect` and
`soliton --solve` acceptance points at three (p, q). Each command's stdout
goes to its own file, and `exit_codes.txt` lists every exit code. Run it on
two checkouts and compare the directories with `diff -r` to show that a
change keeps the output byte-identical.

Example (from the repository root):
    PYTHONPATH=src python scripts/golden_outputs.py /tmp/golden-new
    diff -r /tmp/golden-old /tmp/golden-new
"""

import contextlib
import io
import sys
from pathlib import Path

from accrgeo.cli import main as cli_main

PQ_POINTS = ((0.0, 0.0), (1.5, -2.0), (-2.0, 1.0))


def commands():
    """(file stem, argv) for every output written."""
    yield "sweep-example2", ["sweep", "--scenario", "example2"]
    yield "sweep-example1", ["sweep", "--scenario", "example1"]
    for p, q in PQ_POINTS:
        pq = [f"--p={p!r}", f"--q={q!r}"]
        yield f"inspect-p{p:g}-q{q:g}", ["inspect", "--scenario", "example2", *pq]
        yield f"soliton-p{p:g}-q{q:g}", [
            "soliton", "--scenario", "example2", *pq, "--beta", "0.25", "--t0", "1", "--solve",
        ]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(f"usage: {Path(sys.argv[0]).name} OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    codes = []
    for stem, args in commands():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main([*args, "--format", "json"])
        (outdir / f"{stem}.json").write_text(buffer.getvalue())
        codes.append(f"{stem} {code}\n")
    (outdir / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
