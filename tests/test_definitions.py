"""JSON manifold definitions: parsing, validation diagnostics, round-trips."""

import json

import numpy as np
import pytest

from accrgeo import (
    ManifoldDefinition,
    build_example2,
    load_definition,
    parse_definition,
    save_definition,
)
from accrgeo.errors import JacobiViolation, NotSymmetric, ParseError


@pytest.fixture(scope="module")
def ex2_definition():
    alg, s = build_example2(1.0, -2.0)
    return ManifoldDefinition.from_structure(alg, s)


def test_round_trip_dict(ex2_definition):
    rebuilt = ManifoldDefinition.from_dict(ex2_definition.to_dict())
    assert rebuilt == ex2_definition


def test_round_trip_build_identical_arrays(ex2_definition):
    alg0, s0 = build_example2(1.0, -2.0)
    alg1, s1 = ex2_definition.build()
    assert np.array_equal(alg0.c.data, alg1.c.data)
    assert np.array_equal(s0.g.matrix, s1.g.matrix)
    assert np.array_equal(s0.phi.data, s1.phi.data)
    assert np.array_equal(s0.g_assoc.matrix, s1.g_assoc.matrix)


def test_round_trip_file(tmp_path, ex2_definition):
    path = tmp_path / "def.json"
    save_definition(ex2_definition, path)
    loaded = load_definition(path)
    assert loaded == ex2_definition


def test_text_serialization_is_json(tmp_path, ex2_definition):
    path = tmp_path / "def.json"
    save_definition(ex2_definition, path)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 5
    assert sorted(payload.keys()) == [
        "dim",
        "eta",
        "g",
        "phi",
        "structure_constants",
        "xi",
    ]


def test_invalid_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_definition("{\n  \"dim\": 5,,\n}")
    assert "line" in str(err.value)


@pytest.mark.parametrize(
    "opening,inner,closing", [("[", "", "]"), ('{"a": ', "1", "}")], ids=["array", "object"]
)
def test_deep_nesting_is_a_parse_error(opening, inner, closing):
    # past the recursion limit json's decoder raises RecursionError
    text = opening * 100000 + inner + closing * 100000
    with pytest.raises(ParseError, match="invalid JSON: arrays or objects nested too deeply"):
        parse_definition(text)


def test_missing_file():
    with pytest.raises(ParseError):
        load_definition("/nonexistent/path.json")


def test_missing_key(ex2_definition):
    d = ex2_definition.to_dict()
    del d["phi"]
    with pytest.raises(ParseError) as err:
        ManifoldDefinition.from_dict(d)
    assert "phi" in str(err.value)


def test_unknown_key(ex2_definition):
    d = ex2_definition.to_dict()
    d["extra"] = []
    with pytest.raises(ParseError) as err:
        ManifoldDefinition.from_dict(d)
    assert "extra" in str(err.value)


def test_bool_is_not_a_number(ex2_definition):
    d = ex2_definition.to_dict()
    d["dim"] = True
    with pytest.raises(ParseError):
        ManifoldDefinition.from_dict(d)


def test_index_out_of_range(ex2_definition):
    d = ex2_definition.to_dict()
    d["g"] = list(d["g"]) + [[0, 9, 1.0]]
    with pytest.raises(ParseError) as err:
        ManifoldDefinition.from_dict(d)
    assert "9" in str(err.value)


def test_conflicting_duplicate_entries(ex2_definition):
    d = ex2_definition.to_dict()
    d["g"] = list(d["g"]) + [[0, 0, 2.0]]  # contradicts the existing entry
    definition = ManifoldDefinition.from_dict(d)
    with pytest.raises(ParseError):
        definition.build()


def test_diagonal_bracket_rejected(ex2_definition):
    d = ex2_definition.to_dict()
    d["structure_constants"] = list(d["structure_constants"]) + [[1, 1, 2, 1.0]]
    definition = ManifoldDefinition.from_dict(d)
    with pytest.raises(ParseError):
        definition.build()


@pytest.mark.parametrize("mirror", [5.0, -1.0], ids=["contradicting", "agreeing"])
def test_bracket_conflict_with_mirror(ex2_definition, mirror):
    d = ex2_definition.to_dict()
    # [e_0, e_1] has e_2-component p = 1, so the antisymmetric fill gives
    # [e_1, e_0] the e_2-component -1; an explicit mirror must agree with it
    assert [0, 1, 2, 1.0] in [list(entry) for entry in d["structure_constants"]]
    d["structure_constants"] = list(d["structure_constants"]) + [[1, 0, 2, mirror]]
    definition = ManifoldDefinition.from_dict(d)
    if mirror != -1.0:
        with pytest.raises(ParseError):
            definition.build()
        return
    alg, _ = definition.build()
    one_sided, _ = ex2_definition.build()
    assert np.array_equal(alg.c.data, one_sided.c.data)


def test_metric_needs_both_triangles(ex2_definition):
    # no implicit symmetrization: a one-sided off-diagonal entry leaves g
    # asymmetric and is rejected, not mirrored
    d = ex2_definition.to_dict()
    d["g"] = list(d["g"]) + [[0, 1, 0.3]]
    definition = ManifoldDefinition.from_dict(d)
    with pytest.raises(NotSymmetric):
        definition.build()


def test_non_jacobi_build(ex2_definition):
    d = ex2_definition.to_dict()
    d["structure_constants"] = list(d["structure_constants"]) + [[3, 1, 2, 1.0]]
    definition = ManifoldDefinition.from_dict(d)
    with pytest.raises(JacobiViolation) as err:
        definition.build()
    assert len(err.value.triple) == 3


def test_xi_eta_length_checked(ex2_definition):
    d = ex2_definition.to_dict()
    d["xi"] = [1.0, 0.0]
    with pytest.raises(ParseError):
        ManifoldDefinition.from_dict(d)
