import warnings

import numpy as np
import pytest

from conftest import small_model
from otmf.errors import DataError, ShapeMismatchError
from otmf.metrics import (
    accuracy,
    bwt,
    l1_shift,
    Shift,
    normalized_feature_scale,
    score_shift,
    sinkhorn_shift,
)
from otmf.models import Batch, ModelSpec, ToyModel, forward_features
from otmf.sinkhorn import SinkhornConfig, SolverState, TransportPlan


def test_l1_shift_self_zero_and_symmetric(rng):
    fa, fb = rng.normal(size=(2, 10, 4))
    assert l1_shift(fa, fa) == 0.0
    assert l1_shift(fa, fb) == pytest.approx(l1_shift(fb, fa))


def test_l1_shift_matches_manual(rng):
    fa, fb = rng.normal(size=(2, 8, 4))
    manual = np.abs(fa - fb).sum(axis=1).mean()
    assert l1_shift(fa, fb) == pytest.approx(manual, abs=1e-15)


def test_l1_shift_rejects_empty():
    with pytest.raises(DataError):
        l1_shift(np.empty((0, 3)), np.empty((0, 3)))


def test_sinkhorn_shift_checks_clouds_before_scaling(rng):
    # an empty reference cloud would warn in its mean norm before the solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="empty"):
            sinkhorn_shift(np.empty((0, 3)), np.empty((0, 3)), SinkhornConfig())
    for other in (rng.normal(size=(5, 2)), rng.normal(size=(4, 3))):
        for shift in (l1_shift, lambda fm, fr: sinkhorn_shift(fm, fr, SinkhornConfig())):
            with pytest.raises(ShapeMismatchError):
                shift(rng.normal(size=(5, 3)), other)


def test_sinkhorn_shift_self_near_zero(rng):
    feats = rng.normal(size=(8, 4))
    cfg = SinkhornConfig(epsilon=1e-3, max_iters=5000)
    # the entropic plan spreads a little mass off-diagonal, so the
    # self-distance is small but not exactly zero
    distance, plan = sinkhorn_shift(feats, feats, cfg)
    assert distance <= 1e-3
    assert plan.converged and distance == plan.transport_cost


def test_score_shift_is_both_shifts_on_one_feature_pass(rng):
    a = small_model(rng)
    b = small_model(rng)
    x = rng.normal(size=(8, 3))
    cfg = SinkhornConfig()
    solver = SolverState()
    score = score_shift(a, b, x, cfg, solver)
    fa, fb = forward_features(a, x), forward_features(b, x)
    np.testing.assert_array_equal(score.merged, fa)
    np.testing.assert_array_equal(score.reference, fb)
    assert score.l1 == l1_shift(fa, fb)
    distance, plan = sinkhorn_shift(fa, fb, cfg)
    assert score.sinkhorn == distance == plan.transport_cost
    direct = SolverState()
    direct.record(plan)
    assert solver == direct


def test_score_shift_records_its_solve_and_keeps_no_plan(rng):
    a, b = small_model(rng), small_model(rng)
    x = rng.normal(size=(12, 3))
    cfg = SinkhornConfig(max_iters=3)  # few checks, so the counts are not all zero
    solver = SolverState(solves=2, iters=5)  # an earlier tally the solve adds to
    score = score_shift(a, b, x, cfg, solver)
    _, plan = sinkhorn_shift(forward_features(a, x), forward_features(b, x), cfg)
    directions, fell_back = plan.newton
    assert solver == SolverState(solves=3, iters=5 + plan.iterations_used,
                                 directions=directions, fallbacks=int(fell_back),
                                 unconverged=int(not plan.converged))
    assert Shift._fields == ("l1", "sinkhorn", "merged", "reference")
    assert not any(isinstance(v, TransportPlan) for v in score)


def test_normalized_feature_scale(rng):
    feats = rng.normal(size=(20, 4))
    s = normalized_feature_scale(feats)
    assert np.linalg.norm(s * feats, axis=1).mean() == pytest.approx(1.0)
    assert normalized_feature_scale(np.zeros((3, 2))) == 1.0


def test_accuracy_ties_break_low(rng):
    # a head of zeros makes every logit equal, so argmax picks class 0
    head = {"weight": np.zeros((3, 2)), "bias": np.zeros(3)}
    model = ToyModel(ModelSpec((2, 2)), small_model(rng, dims=(2, 2)).backbone, {"t": head})
    batch = Batch(rng.normal(size=(5, 2)), np.array([0, 0, 1, 2, 0]))
    assert accuracy(model, "t", batch) == pytest.approx(3 / 5)


def test_final_average_and_bwt_manual():
    mat = np.full((3, 3), np.nan)
    mat[0, 0] = 0.9
    mat[1, 0] = 0.8
    mat[1, 1] = 0.7
    mat[2, 0] = 0.6
    mat[2, 1] = 0.9
    mat[2, 2] = 0.5
    assert mat[-1].mean() == pytest.approx((0.6 + 0.9 + 0.5) / 3)
    # bwt = mean over earlier tasks of final minus diagonal
    assert bwt(mat) == pytest.approx(((0.6 - 0.9) + (0.9 - 0.7)) / 2)


def test_bwt_requires_two_tasks():
    with pytest.raises(DataError):
        bwt(np.full((1, 1), np.nan))
