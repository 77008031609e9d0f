"""scripts/golden_outputs.py runs end to end and every command keeps its verdict.

The script's own use is a byte comparison of two checkouts with `diff -r`.
This test pins what does not depend on the BLAS kernels: that every output
exists and is strict JSON, that stderr is kept exactly for the commands
that fail, and each command's exit code. It also pins the JSON writer to
json's own bytes on the real `inspect`, `soliton` and `sweep` payloads.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"

#: every command of the set that exits nonzero, with its exit code; the
#: other 28 exit 0
NONZERO = {
    "soliton-ex1-override": 1,
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
    "sweep-ex1-tol-1e-16": 1,
    "sweep-ex1-tol-1e-16-text": 1,
}


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("golden_outputs", SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    path = tmp_path_factory.mktemp("golden")
    assert golden.main([str(path)]) == 0
    return path


def test_golden_commands_keep_their_verdicts(golden_dir):
    lines = (golden_dir / "exit_codes.txt").read_text().splitlines()
    codes = {stem: int(code) for stem, code in (line.split() for line in lines)}
    assert len(codes) == len(lines) == 44
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
    # 44 outputs, 16 stderr files, exit_codes.txt and the inputs directory
    assert len(list(golden_dir.iterdir())) == 62


def test_golden_json_is_what_json_dumps_writes(golden_dir):
    outputs = [path.read_text() for path in sorted(golden_dir.glob("*.json"))]
    outputs = [text for text in outputs if text]
    assert len(outputs) == 39
    for text in outputs:
        assert text.endswith("}\n")
        assert text[:-1] == json.dumps(json.loads(text), indent=2)
