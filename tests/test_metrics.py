import numpy as np
import pytest

from conftest import small_model
from otmf.errors import DataError
from otmf.metrics import (
    AccuracyMatrix,
    accuracy,
    bwt,
    l1_shift,
    normalized_feature_scale,
    sinkhorn_shift,
)
from otmf.models import Batch, ModelSpec, ToyModel, forward_features
from otmf.params import ParamVector
from otmf.sinkhorn import SinkhornConfig


def test_l1_shift_self_zero_and_symmetric(rng):
    a = small_model(rng)
    b = small_model(rng)
    x = rng.normal(size=(10, 3))
    assert l1_shift(a, a, x) == 0.0
    assert l1_shift(a, b, x) == pytest.approx(l1_shift(b, a, x))


def test_l1_shift_matches_manual(rng):
    a = small_model(rng)
    b = small_model(rng)
    x = rng.normal(size=(8, 3))
    manual = np.abs(forward_features(a, x) - forward_features(b, x)).sum(axis=1).mean()
    assert l1_shift(a, b, x) == pytest.approx(manual, abs=1e-15)


def test_l1_shift_rejects_empty(rng):
    a = small_model(rng)
    with pytest.raises(DataError):
        l1_shift(a, a, np.empty((0, 3)))


def test_sinkhorn_shift_self_near_zero(rng):
    a = small_model(rng)
    x = rng.normal(size=(8, 3))
    cfg = SinkhornConfig(epsilon=1e-3, max_iters=5000)
    # the entropic plan spreads a little mass off-diagonal, so the
    # self-distance is small but not exactly zero
    assert sinkhorn_shift(a, a, x, cfg) <= 1e-3


def test_normalized_feature_scale(rng):
    feats = rng.normal(size=(20, 4))
    s = normalized_feature_scale(feats)
    assert np.linalg.norm(s * feats, axis=1).mean() == pytest.approx(1.0)
    assert normalized_feature_scale(np.zeros((3, 2))) == 1.0


def test_accuracy_ties_break_low(rng):
    # a head of zeros makes every logit equal, so argmax picks class 0
    head = ParamVector({"weight": np.zeros((3, 2)), "bias": np.zeros(3)})
    model = ToyModel(ModelSpec((2, 2)), small_model(rng, dims=(2, 2)).backbone, {"t": head})
    batch = Batch(rng.normal(size=(5, 2)), np.array([0, 0, 1, 2, 0]))
    assert accuracy(model, "t", batch) == pytest.approx(3 / 5)


def test_accuracy_matrix_triangle():
    mat = AccuracyMatrix(3)
    mat.set(2, 1, 0.5)
    assert mat.get(2, 1) == 0.5
    with pytest.raises(DataError):
        mat.set(1, 2, 0.5)
    with pytest.raises(DataError):
        mat.set(2, 2, 1.5)
    with pytest.raises(DataError):
        mat.final_average()


def test_final_average_and_bwt_manual():
    mat = AccuracyMatrix(3)
    mat.set(1, 1, 0.9)
    mat.set(2, 1, 0.8)
    mat.set(2, 2, 0.7)
    mat.set(3, 1, 0.6)
    mat.set(3, 2, 0.9)
    mat.set(3, 3, 0.5)
    assert mat.final_average() == pytest.approx((0.6 + 0.9 + 0.5) / 3)
    # bwt = mean over earlier tasks of final minus diagonal
    assert bwt(mat) == pytest.approx(((0.6 - 0.9) + (0.9 - 0.7)) / 2)


def test_bwt_requires_two_tasks():
    with pytest.raises(DataError):
        bwt(AccuracyMatrix(1))
