import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otmf.errors import NumericalError, ShapeMismatchError
from otmf.params import (
    MaskVector,
    ParamVector,
    pv_add,
    pv_hadamard,
    pv_scale,
    pv_sub,
)

finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
    elements=st.floats(-1e6, 1e6),
)


@st.composite
def param_vectors(draw, max_layers=3):
    n = draw(st.integers(1, max_layers))
    return ParamVector({f"layer{i}": draw(finite_arrays) for i in range(n)})


@st.composite
def pv_pairs(draw):
    a = draw(param_vectors())
    b = ParamVector(
        {n: draw(hnp.arrays(np.float64, arr.shape, elements=st.floats(-1e6, 1e6)))
         for n, arr in a.entries.items()}
    )
    return a, b


def test_constructor_copies_and_write_protects(rng):
    src = rng.normal(size=(2, 2))
    pv = ParamVector({"w": src})
    src[0, 0] = 99.0
    assert pv["w"][0, 0] != 99.0
    with pytest.raises(ValueError):
        pv["w"][0, 0] = 1.0


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ShapeMismatchError):
        ParamVector({})
    with pytest.raises(ShapeMismatchError):
        ParamVector({"w": np.empty((0,))})
    with pytest.raises(NumericalError):
        ParamVector({"w": np.array([1.0, np.nan])})
    with pytest.raises(NumericalError):
        ParamVector({"w": np.array([np.inf])})


def test_immutable():
    pv = ParamVector({"w": np.ones(2)})
    with pytest.raises(AttributeError):
        pv.w = 3


@given(param_vectors())
@settings(deadline=None)
def test_flatten_roundtrip(pv):
    rebuilt = pv.with_flat(pv.flatten())
    assert rebuilt == pv
    assert rebuilt.signature() == pv.signature()


@given(param_vectors())
@settings(deadline=None)
def test_num_params_matches_flatten(pv):
    assert pv.num_params() == pv.flatten().size


def test_with_flat_rejects_wrong_length():
    pv = ParamVector({"w": np.ones(3)})
    with pytest.raises(ShapeMismatchError):
        pv.with_flat(np.ones(4))


@given(pv_pairs())
@settings(deadline=None)
def test_elementwise_algebra(pair):
    a, b = pair
    for op, ref in ((pv_add, np.add), (pv_sub, np.subtract), (pv_hadamard, np.multiply)):
        out = op(a, b)
        for n in a.layers():
            np.testing.assert_array_equal(out[n], ref(a[n], b[n]))


@given(param_vectors(), st.floats(-100, 100))
@settings(deadline=None)
def test_scale(pv, s):
    out = pv_scale(s, pv)
    for n in pv.layers():
        np.testing.assert_array_equal(out[n], s * pv[n])


def test_scale_rejects_nonfinite():
    pv = ParamVector({"w": np.ones(2)})
    with pytest.raises(NumericalError):
        pv_scale(np.nan, pv)


def test_shape_mismatch_names_layer():
    a = ParamVector({"good": np.ones(2), "bad": np.ones(3)})
    b = ParamVector({"good": np.ones(2), "bad": np.ones(4)})
    with pytest.raises(ShapeMismatchError, match="bad"):
        pv_add(a, b)


def test_layer_order_matters():
    a = ParamVector({"x": np.ones(2), "y": np.ones(2)})
    b = ParamVector({"y": np.ones(2), "x": np.ones(2)})
    with pytest.raises(ShapeMismatchError):
        pv_add(a, b)


def test_mask_ones_like(rng):
    pv = random_pv_helper(rng)
    mask = MaskVector.ones_like(pv)
    assert mask.signature() == pv.signature()
    for n in mask.layers():
        np.testing.assert_array_equal(mask[n], np.ones_like(pv[n]))


def random_pv_helper(rng):
    return ParamVector({"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)})
