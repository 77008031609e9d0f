"""scripts/golden_outputs.py runs end to end and every command keeps its verdict.

The script's own use is a byte comparison of two checkouts with `diff -r`.
This test pins what does not depend on the BLAS kernels: that every output
exists and is strict JSON, that stderr is kept exactly for the commands
that fail, and each command's exit code. It also pins the JSON writer to
json's own bytes on the real `inspect`, `soliton` and `sweep` payloads, and
the check schedule of both default sweeps: every check's row, name,
tolerance and note, and every row note, without the residuals.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"

#: every command of the set that exits nonzero, with its exit code; the
#: other 38 exit 0
NONZERO = {
    "soliton-ex1-override": 1,
    "soliton-ex2-unread-psi": 2,
    "sweep-ex1-unread-grid-p": 2,
    "soliton-ex2-solve-lambda": 2,
    "example2-p0-q0-lambda": 1,
    "example2-p0-q0-mu": 1,
    "example2-p0-q0-psi": 1,
    "semidirect-n4-lambda": 1,
    "semidirect-n4-mu": 1,
    "semidirect-n4-psi": 1,
    "semidirect-n16-lambda": 1,
    "semidirect-n16-mu": 1,
    "semidirect-n16-psi": 1,
    "abelian-n2-solve": 2,
    "abelian-n2-lambda": 1,
    "abelian-n2-mu": 1,
    "abelian-n2-psi": 1,
    "sl2r-n1-solve": 2,
    "sl2r-n1-lambda": 1,
    "sl2r-n1-mu": 1,
    "sl2r-n1-psi": 1,
    "solvable-n2-solve": 2,
    "solvable-n2-lambda": 1,
    "solvable-n2-mu": 1,
    "solvable-n2-psi": 1,
    "bianchi-v-n1-solve": 2,
    "bianchi-v-n1-lambda": 1,
    "bianchi-v-n1-mu": 1,
    "bianchi-v-n1-psi": 1,
    "sweep-ex1-tol-1e-16": 1,
    "sweep-ex1-tol-1e-16-text": 1,
    "example2-p0-q0-psi-text": 1,
}

#: sha256 of each default sweep's check listing with the residual column
#: dropped; what is left does not depend on the BLAS kernels
CHECK_SCHEDULES = {
    "example1": "15357a2a24911e82b17452ac18b06c52ca0a81bd43095be7bee43ac9f6fa53ec",
    "example2": "11094286723589c0abc3237f8b8593ad39cb99704e3ad230367cd30760ad944c",
}


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_dir(golden, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    assert golden.main([str(path)]) == 0
    return path


def test_against_writes_into_an_empty_outdir_only(golden, tmp_path, capsys):
    # a stale file in OUTDIR would be compared as if it had been written
    (tmp_path / "stale.json").write_text("{}\n")
    assert golden.main(["--against", "HEAD", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path} is not empty\n"
    assert golden.main(["--against", "HEAD"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_golden_commands_keep_their_verdicts(golden_dir):
    lines = (golden_dir / "exit_codes.txt").read_text().splitlines()
    codes = {stem: int(code) for stem, code in (line.split() for line in lines)}
    assert len(codes) == len(lines) == 70
    assert {stem: code for stem, code in codes.items() if code} == NONZERO
    for stem, code in codes.items():
        assert (golden_dir / f"{stem}.stderr").is_file() == (code != 0), stem
        if stem.endswith("-text"):
            assert (golden_dir / f"{stem}.txt").read_text(), stem
            continue
        text = (golden_dir / f"{stem}.json").read_text()
        # malformed input exits 2 with nothing on stdout
        assert (text == "") == (code == 2), stem
        if text:
            json.loads(text, parse_constant=_reject)
    # 70 outputs, 32 stderr files, exit_codes.txt, the two check listings and
    # the inputs directory
    assert len(list(golden_dir.iterdir())) == 106


def test_golden_json_is_what_json_dumps_writes(golden_dir):
    outputs = [path.read_text() for path in sorted(golden_dir.glob("*.json"))]
    outputs = [text for text in outputs if text]
    assert len(outputs) == 54
    for text in outputs:
        assert text.endswith("}\n")
        assert text[:-1] == json.dumps(json.loads(text), indent=2)


@pytest.mark.parametrize("scenario", sorted(CHECK_SCHEDULES))
def test_default_sweeps_keep_their_check_schedule(golden_dir, scenario):
    # a check that is reordered, renamed, retolerated or dropped changes the hash
    lines = []
    listing = (golden_dir / f"checks-sweep-{scenario}.txt").read_text()
    for line in listing.splitlines(keepends=True):
        fields = line.split("\t")
        if fields[1] == "check":
            del fields[3]  # the residual
        lines.append("\t".join(fields))
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == CHECK_SCHEDULES[scenario]
