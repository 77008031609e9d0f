"""Structure tensor identities and the associated metric."""

import numpy as np
import pytest

from accrgeo import (
    Frame,
    Tensor,
    build_example2,
    flat_carrier_structure,
    metric_signature,
    phi_trace,
    trace_g,
    validate_structure,
)
from accrgeo.errors import StructureViolation, WrongSignature
from accrgeo.structure import associated_metric_from_parts


def test_signature_of_flat_carrier():
    for n in (1, 2, 3):
        s = flat_carrier_structure(n)
        assert metric_signature(s.g.g) == (n + 1, n)


def test_validate_catches_wrong_signature():
    f = Frame(5)
    phi = np.zeros((5, 5))
    phi[3, 1] = phi[4, 2] = 1.0
    phi[1, 3] = phi[2, 4] = -1.0
    xi = np.eye(5)[0]
    eta = np.eye(5)[0]
    g = np.diag([1.0] * 5)  # positive definite: wrong for this structure
    with pytest.raises((WrongSignature, StructureViolation)):
        validate_structure(phi, xi, eta, g, f)


def test_validate_collects_all_violations():
    f = Frame(5)
    phi = np.zeros((5, 5))  # phi = 0 breaks several identities at once
    xi = np.eye(5)[0]
    eta = np.eye(5)[0]
    g = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
    with pytest.raises(StructureViolation) as err:
        validate_structure(phi, xi, eta, g, f)
    assert len(err.value.violations) >= 2


def test_structure_identities_on_corpus(ex2_structures):
    for _, _, _, s in ex2_structures:
        phi, xi, eta, g = s.phi.data, s.xi.data, s.eta.data, s.g.matrix
        n = s.n
        assert np.max(np.abs(phi @ xi)) < 1e-9
        assert (
            np.max(np.abs(phi @ phi + np.eye(2 * n + 1) - np.outer(xi, eta)))
            < 1e-9
        )
        assert np.max(np.abs(eta @ phi)) < 1e-9
        assert abs(eta @ xi - 1.0) < 1e-9
        assert (
            np.max(np.abs(phi.T @ g @ phi + g - np.outer(eta, eta))) < 1e-9
        )
        # metric line of the Reeb field
        assert np.max(np.abs(g @ xi - eta)) < 1e-9


def test_associated_metric_formula(ex2_origin):
    _, s, _, _, _, _ = ex2_origin
    expected = s.g.matrix @ s.phi.data + np.outer(s.eta.data, s.eta.data)
    assert np.max(np.abs(s.g_assoc.matrix - expected)) < 1e-12


def test_associated_metric_is_b_metric(ex2_structures):
    for _, _, _, s in ex2_structures:
        n = s.n
        assert metric_signature(s.g_assoc.g) == (n + 1, n)
        phi, eta = s.phi.data, s.eta.data
        ga = s.g_assoc.matrix
        assert np.max(np.abs(phi.T @ ga @ phi + ga - np.outer(eta, eta))) < 1e-9


def test_associated_map_has_period_four(ex2_origin):
    # applying the map twice gives -g + 2 eta(.)eta, not g; four times is g
    _, s, _, _, _, _ = ex2_origin
    eta_outer = np.outer(s.eta.data, s.eta.data)
    once = s.g_assoc.matrix

    def apply(m):
        return m @ s.phi.data + eta_outer

    twice = apply(once)
    assert np.max(np.abs(twice - (-s.g.matrix + 2 * eta_outer))) < 1e-12
    four = apply(apply(twice))
    assert np.max(np.abs(four - s.g.matrix)) < 1e-12


def test_trace_interplay(ex2_structures):
    for _, _, _, s in ex2_structures:
        n = s.n
        assert trace_g(s.g_assoc.g, s.g) == pytest.approx(1.0, abs=1e-9)
        assert phi_trace(s.g.g, s.g, s.phi) == pytest.approx(0.0, abs=1e-9)
        assert phi_trace(s.g_assoc.g, s.g, s.phi) == pytest.approx(
            -2.0 * n, abs=1e-9
        )
        xi = s.xi.data
        assert float(xi @ s.g.matrix @ xi) == pytest.approx(1.0)
        assert float(xi @ s.g_assoc.matrix @ xi) == pytest.approx(1.0)


def test_rebuild_associated_matches(ex2_generic):
    _, s, _, _, _, _ = ex2_generic
    rebuilt = associated_metric_from_parts(s.g.g, s.phi, s.eta)
    assert np.max(np.abs(rebuilt.matrix - s.g_assoc.matrix)) < 1e-12


def test_example2_brackets_build(ex2_structures):
    for p, q, alg, _ in ex2_structures:
        # [e_0, e_1] = p e_2 + e_3 + q e_4 and the two-index antisymmetry
        b = alg.c.data[:, 0, 1]
        assert b[2] == pytest.approx(p)
        assert b[3] == pytest.approx(1.0)
        assert b[4] == pytest.approx(q)
        assert np.max(np.abs(alg.c.data[:, 1, 0] + b)) == 0.0
        # brackets among e_1..e_4 vanish
        for i in range(1, 5):
            for j in range(1, 5):
                assert np.max(np.abs(alg.c.data[:, i, j])) == 0.0


def test_example2_family_shares_structure_tensors():
    # the (p,q) family varies only the brackets; (phi, xi, eta, g) are the
    # same frame components at every parameter point
    _, s_base = build_example2(0.0, 0.0)
    for p, q in [(1.0, 1.0), (2.0, -1.0)]:
        _, s_pq = build_example2(p, q)
        assert np.max(np.abs(s_pq.phi.data - s_base.phi.data)) == 0.0
        assert np.max(np.abs(s_pq.xi.data - s_base.xi.data)) == 0.0
        assert np.max(np.abs(s_pq.g.matrix - s_base.g.matrix)) == 0.0


def test_eta_outer_is_one_frozen_array():
    s = flat_carrier_structure(2)
    outer = s.eta_outer
    assert isinstance(outer, np.ndarray) and outer.dtype == np.float64
    assert np.array_equal(outer, np.outer(s.eta.data, s.eta.data))
    assert not outer.flags.writeable
    with pytest.raises(ValueError):
        outer[0, 0] = 2.0
    # built once per structure
    assert s.eta_outer is outer
