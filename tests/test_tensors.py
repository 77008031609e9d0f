"""Frame/Tensor plumbing and metric inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accrgeo import (
    Check,
    DimensionMismatch,
    Frame,
    Tensor,
    invert_metric,
    phi_trace,
    trace_g,
)
from accrgeo.errors import DegenerateMetric, GeometryError, NotSymmetric
from accrgeo.geometry import LieAlgebra
from accrgeo.tensors import DEFAULT_TOL, as_tensor, require


def test_frame_requires_odd_dimension():
    Frame(3)
    Frame(5)
    with pytest.raises(DimensionMismatch):
        Frame(4)
    with pytest.raises(DimensionMismatch):
        Frame(1)
    assert Frame(5).n == 2


def test_tensor_is_read_only():
    f = Frame(3)
    t = Tensor(f, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0


def test_tensor_copies_writeable_source():
    f = Frame(3)
    source = np.eye(3)
    t = Tensor(f, source)
    source[0, 0] = 7.0
    assert t.data[0, 0] == 1.0
    assert not np.shares_memory(t.data, source)


def test_tensor_keeps_frozen_owned_array():
    f = Frame(3)
    source = np.eye(3)
    source.setflags(write=False)
    assert np.shares_memory(Tensor(f, source).data, source)


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.eye(4)[:3, :3],  # a view: its base could still be written
        lambda: np.eye(3, dtype=np.float32),  # not float64
        lambda: np.eye(3, dtype=np.int64),
    ],
)
def test_tensor_copies_other_frozen_arrays(make):
    f = Frame(3)
    source = make()
    source.setflags(write=False)
    t = Tensor(f, source)
    assert not np.shares_memory(t.data, source)
    assert t.data.dtype == np.float64
    assert not t.data.flags.writeable


def test_tensor_shape_checked():
    f = Frame(3)
    with pytest.raises(DimensionMismatch):
        Tensor(f, np.zeros((3, 4)))


def test_tensor_arithmetic_and_scalars():
    # a Tensor only holds its array: formulas are written on .data
    f = Frame(3)
    a = Tensor(f, -2.0 * np.eye(3))
    assert Check.measure("a", a.data).residual == 2.0
    assert Check.measure("zero", np.zeros((3, 3))).residual == 0.0
    assert Check.measure("empty", np.zeros((0, 3))).residual == 0.0
    with pytest.raises(TypeError):
        a + a  # noqa: B018


def test_as_tensor_keeps_tensors_and_checks_rank_and_frame():
    f = Frame(3)
    t = Tensor(f, np.eye(3))
    assert as_tensor(t, f, 2) is t
    assert np.array_equal(as_tensor([1.0, 0.0, 0.0], f, 1).data, [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        as_tensor(t, f, 1)
    with pytest.raises(DimensionMismatch):
        as_tensor(t, Frame(5), 2)
    # structure constants go through it too
    with pytest.raises(DimensionMismatch):
        LieAlgebra(f, np.zeros((3, 3)))


def test_invert_metric_rejects_asymmetric():
    f = Frame(3)
    m = np.eye(3)
    m[0, 1] = 0.5
    with pytest.raises(NotSymmetric):
        invert_metric(Tensor(f, m))


def test_invert_metric_rejects_singular():
    f = Frame(3)
    m = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(DegenerateMetric):
        invert_metric(Tensor(f, m))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.2, max_value=5.0), min_size=5, max_size=5
    ),
    st.lists(st.integers(min_value=0, max_value=1), min_size=5, max_size=5),
)
def test_invert_metric_roundtrip(diag, signs):
    f = Frame(5)
    values = [d * (1 if s else -1) for d, s in zip(diag, signs)]
    pair = invert_metric(Tensor(f, np.diag(values)))
    assert np.max(np.abs(pair.matrix @ pair.inverse - np.eye(5))) < 1e-12


def test_traces_on_known_metric():
    f = Frame(5)
    g = invert_metric(Tensor(f, np.diag([1.0, 1.0, 1.0, -1.0, -1.0])))
    # trace of g against itself is the dimension
    assert trace_g(g.g, g) == pytest.approx(5.0)
    phi = np.zeros((5, 5))
    phi[3, 1] = phi[4, 2] = 1.0
    phi[1, 3] = phi[2, 4] = -1.0
    # phi-twisted trace of the metric vanishes: phi maps the two
    # eigenblocks of g into each other
    assert phi_trace(g.g, g, Tensor(f, phi)) == pytest.approx(0.0)


def test_require_returns_the_residual_or_raises_with_it():
    assert require(np.array([[1e-10, -3e-10]]), "unused") == 3e-10
    assert require(-0.5, "unused", tol=1.0) == 0.5
    assert type(require(np.float64(0.0), "unused")) is float
    with pytest.raises(GeometryError, match=r"^off by 2.000e-09 against 1e-09$"):
        require(np.array([-2e-9]), "off by {residual:.3e} against {tol}")
    with pytest.raises(NotSymmetric, match=r"^plain$"):
        require(1.0, "plain", tol=0.5, error=NotSymmetric)


def test_nan_residual_fails_the_rule():
    check = Check.measure("nan", np.array([0.0, np.nan]))
    assert np.isnan(check.residual)
    assert not check.passed and not check.passes(np.inf)
    assert not Check.measure("nan", float("nan")).passes(DEFAULT_TOL)
    with pytest.raises(GeometryError, match="residual nan"):
        require(np.nan, "residual {residual}")
