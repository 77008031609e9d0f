"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os

import numpy as np
import pytest

import run
import tracing
import workloads
from accrgeo.definitions import ManifoldDefinition
from accrgeo.geometry import classify_sasaki_like, curvature_package, fundamental_tensor
from accrgeo.scenarios import build_example2, example2_expected_curvature
from accrgeo.solitons import einstein_like_fit


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(tracing.self_times(parent, start, end), [10 - 3 - 4, 3 - 1, 1, 4])


def test_layer_totals_sum_calls_and_self_time_per_layer():
    names = ["geometry.riemann", "tensors.Tensor", "geometry.ricci"]
    name_id = np.array([0, 1, 1, 2, 0])
    self_s = np.array([1.0, 0.25, 0.25, 0.5, 2.0])
    totals = tracing.layer_totals(names, name_id, self_s)
    assert totals["geometry.riemann.calls"] == 2
    assert totals["geometry.riemann.self_ms"] == 3000.0
    assert totals["tensors.Tensor.calls"] == 2
    assert totals["geometry.self_ms"] == 3500.0
    assert totals["tensors.self_ms"] == 500.0


def test_recorder_nests_spans_and_self_time_excludes_children():
    recorder = tracing.SpanRecorder()

    def leaf():
        return 1

    traced_leaf = recorder.wrap("tensors.leaf", leaf)
    outer = recorder.wrap("geometry.outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2
    spans = recorder.arrays()
    assert [recorder.names[i] for i in spans["name_id"]] == [
        "geometry.outer", "tensors.leaf", "tensors.leaf",
    ]
    assert list(spans["parent"]) == [-1, 0, 0]
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    outer_duration = spans["end"][0] - spans["start"][0]
    assert own[0] == pytest.approx(outer_duration - own[1] - own[2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(tmp_path, name):
    def generate(seed, workdir):
        workdir.mkdir()
        ops = workloads.WORKLOADS[name].make_ops(seed, str(workdir))
        argv = [[a.replace(str(workdir), "DIR") for a in op["argv"]] for op in ops]
        files = {path.name: path.read_text() for path in workdir.iterdir()}
        return argv, [op["check"] for op in ops], files

    first = generate(7, tmp_path / "a")
    assert generate(7, tmp_path / "b") == first
    if name.startswith("input-"):
        assert generate(8, tmp_path / "c") != first


def test_example2_files_match_the_package_serializer():
    for p, q in ((0.0, 0.0), (1.25, -0.5), (-2.0, 1.9999)):
        expected = ManifoldDefinition.from_structure(*build_example2(p, q)).to_dict()
        assert json.loads(json.dumps(workloads.example2_definition(p, q))) == expected


def test_example2_curvature_table_matches_the_package():
    expected = example2_expected_curvature(build_example2(0.0, 0.0)[1].frame).data
    table = workloads.example2_curvature()
    assert {tuple(int(i) for i in idx) for idx in np.argwhere(expected != 0)} == set(table)
    assert all(expected[idx] == value for idx, value in table.items())


@pytest.mark.parametrize("n", range(1, 17))
def test_semidirect_family_is_sasaki_like(n):
    alg, s = ManifoldDefinition.from_dict(workloads.semidirect_definition(n)).build()
    pkg = curvature_package(alg, s.g, s.phi)
    assoc = curvature_package(alg, s.g_assoc, s.phi)
    classification = classify_sasaki_like(
        fundamental_tensor(pkg.conn, s), s, conn=pkg.conn, ricci_tensor=pkg.ricci
    )
    fit = einstein_like_fit(pkg.ricci, s)
    assert classification.is_sasaki_like
    assert pkg.tau == pytest.approx(2 * n, abs=1e-9)
    assert assoc.tau == pytest.approx(2 * n, abs=1e-9)
    assert pkg.tau_star == pytest.approx(0.0, abs=1e-9)
    assert fit.kind == "eta_einstein" and fit.c == pytest.approx(2 * n, abs=1e-9)


def test_checks_accept_right_and_reject_wrong_outputs():
    check = {"kind": "soliton", "n": 2, "k": 0.5, "beta": 0.25}
    # 1 + 2n beta = 2, so lambda = 1 - k - 4 * 2 / 4 and lambda_tilde = 1 + k - 2
    good = {"passed": True, "scalars": {"lambda": -1.5, "lambda_tilde": -0.5}}
    assert workloads.check_output(check, 0, json.dumps(good)) == []
    bad = {"passed": True, "scalars": {"lambda": -1.5 + 1e-6, "lambda_tilde": -0.5}}
    assert workloads.check_output(check, 0, json.dumps(bad))
    assert workloads.check_output(check, 1, json.dumps(good))
    assert workloads.check_output(check, 0, "Traceback")
    assert workloads.check_output(check, 0, json.dumps(good).replace("-1.5", "NaN"))


def test_sweep_check_reports_degenerate_rows_without_reading_their_scalars():
    check = {"kind": "sweep-example1"}
    rows = [{"index": i, "params": {"n": 1}, "scalars": {"tau": 4.0, "tau_tilde": 4.0},
             "degenerate": False} for i in range(1295)]
    summary = {"rows": 1295, "pass": 1295, "fail": 0, "degenerate": 0}
    assert workloads.check_output(check, 0, json.dumps({"summary": summary, "rows": rows})) == []
    rows[3] = {"index": 3, "params": {"n": 1}, "scalars": {}, "degenerate": True}
    summary = {"rows": 1295, "pass": 1294, "fail": 0, "degenerate": 1}
    problems = workloads.check_output(check, 0, json.dumps({"summary": summary, "rows": rows}))
    assert len(problems) == 1 and problems[0].startswith("summary")


def test_input_ops_alternate_inspect_and_solve(tmp_path):
    ops = workloads.input_dim5_ops(3, str(tmp_path))
    assert [op["argv"][0] for op in ops] == ["inspect", "soliton"] * 8
    assert all("--solve" in op["argv"] and op["argv"][op["argv"].index("--k-prime") + 1] == "-2"
               for op in ops[1::2])
    assert len(os.listdir(tmp_path)) == 8


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_install_wraps_layer_boundaries_and_switches_off():
    import accrgeo.geometry
    import accrgeo.scenarios

    original = accrgeo.geometry.riemann
    recorder = tracing.SpanRecorder()
    bindings = tracing.install(recorder)
    try:
        assert accrgeo.geometry.riemann is not original
        accrgeo.scenarios.build_example2(0.5, 0.0)
        spans = recorder.arrays()
        names = {recorder.names[i] for i in spans["name_id"]}
        assert {
            "scenarios.build_example2",
            "geometry.LieAlgebra",
            "tensors.Tensor",
            "structure.validate_structure",
        } <= names
        assert spans["parent"][0] == -1 and recorder.names[spans["name_id"][0]] == "scenarios.build_example2"
    finally:
        bindings.set(False)
    assert accrgeo.geometry.riemann is original


def test_host_factors_use_the_references_around_each_op():
    # references read after op 0 (10 ms), after op 3 (20 ms) and after op 4 (5 ms)
    factors = run.host_factors(5, [(0, 10.0), (3, 20.0), (4, 5.0)])
    nominal = run.NOMINAL_REF_MS
    assert factors == pytest.approx(
        [nominal / 10, nominal / 15, nominal / 15, nominal / 15, nominal / 12.5]
    )
