import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from otmf.errors import ConfigError
from otmf.models import Batch
from otmf.taskgen import TaskStreamSpec, _rotation, generate_stream, subsample_labeled


def test_spec_validation():
    with pytest.raises(ConfigError):
        TaskStreamSpec(num_tasks=1)
    with pytest.raises(ConfigError):
        TaskStreamSpec(input_dim=0)
    with pytest.raises(ConfigError):
        TaskStreamSpec(heterogeneity=-0.5)
    with pytest.raises(ConfigError):
        TaskStreamSpec(heterogeneity=float("nan"))


def test_stream_shapes_and_ids():
    spec = TaskStreamSpec(num_tasks=3, input_dim=5, classes_per_task=4,
                          samples_per_task=50)
    pretrain, tasks = generate_stream(spec)
    assert pretrain.size == 4 * 50
    assert [td.task_id for td in tasks] == ["task01", "task02", "task03"]
    for td in tasks:
        n_test = round(0.2 * 50)
        assert td.test.size == n_test
        assert td.train.size == 50 - n_test
        assert td.unlabeled.shape[1] == 5
        assert set(np.unique(td.train.labels)) <= set(range(4))


def test_stream_deterministic():
    a_pre, a_tasks = generate_stream(TaskStreamSpec(), seed=3)
    b_pre, b_tasks = generate_stream(TaskStreamSpec(), seed=3)
    np.testing.assert_array_equal(a_pre.inputs, b_pre.inputs)
    for ta, tb in zip(a_tasks, b_tasks):
        np.testing.assert_array_equal(ta.train.inputs, tb.train.inputs)
        np.testing.assert_array_equal(ta.test.labels, tb.test.labels)
        np.testing.assert_array_equal(ta.unlabeled, tb.unlabeled)


def test_different_seeds_differ():
    a, _ = generate_stream(TaskStreamSpec(), seed=0)
    b, _ = generate_stream(TaskStreamSpec(), seed=1)
    assert not np.array_equal(a.inputs, b.inputs)


def test_heterogeneity_spreads_tasks():
    """Class means drift apart between tasks as the knob grows."""

    def mean_gap(het):
        _, tasks = generate_stream(TaskStreamSpec(heterogeneity=het), seed=0)
        gaps = []
        for a, b in zip(tasks, tasks[1:]):
            for c in range(4):
                ma = a.train.inputs[a.train.labels == c].mean(axis=0)
                mb = b.train.inputs[b.train.labels == c].mean(axis=0)
                gaps.append(np.linalg.norm(ma - mb))
        return float(np.mean(gaps))

    assert mean_gap(0.0) < mean_gap(1.0) < mean_gap(4.0)


# ---------------------------------------------------------------------------
# stratified subsampling


@st.composite
def labeled_batches(draw):
    k = draw(st.integers(1, 4))
    counts = [draw(st.integers(1, 12)) for _ in range(k)]
    labels = np.concatenate([np.full(c, i, dtype=np.int64) for i, c in enumerate(counts)])
    rng = np.random.default_rng(draw(st.integers(0, 100)))
    rng.shuffle(labels)
    return Batch(rng.normal(size=(labels.size, 2)), labels)


@given(labeled_batches(), st.floats(0.05, 0.99), st.integers(0, 5))
@settings(deadline=None, max_examples=80)
def test_subsample_budget_and_stratification(batch, fraction, seed):
    sub = subsample_labeled(batch, fraction, seed=seed)
    total = math.ceil(fraction * batch.size)
    assert sub.size == min(total, batch.size)
    classes = np.unique(batch.labels)
    if total >= classes.size:
        assert set(np.unique(sub.labels)) == set(classes)
    # every selected row exists in the source batch
    for x, y in zip(sub.inputs, sub.labels):
        match = (batch.inputs == x).all(axis=1) & (batch.labels == y)
        assert match.any()


def _subsample_with_unique(batch, fraction, seed):
    """subsample_labeled as it was written with np.unique, the reference."""
    classes = np.unique(batch.labels)
    total = math.ceil(fraction * batch.size)
    sizes = np.array([np.count_nonzero(batch.labels == c) for c in classes])
    exact = fraction * sizes
    counts = np.floor(exact).astype(int)
    if total >= len(classes):
        counts = np.maximum(counts, 1)
    counts = np.minimum(counts, sizes)
    order = np.argsort(-(exact - np.floor(exact)), kind="stable")
    i = 0
    while counts.sum() < total:
        j = order[i % len(classes)]
        if counts[j] < sizes[j]:
            counts[j] += 1
        i += 1
    while counts.sum() > total:
        counts[int(np.argmax(counts))] -= 1
    rng = np.random.default_rng(seed)
    keep = [rng.permutation(np.flatnonzero(batch.labels == c))[:cnt]
            for c, cnt in zip(classes, counts)]
    sel = np.sort(np.concatenate(keep))
    return Batch(batch.inputs[sel], batch.labels[sel])


@given(st.lists(st.integers(0, 9), min_size=1, max_size=60),
       st.floats(0.05, 0.99), st.integers(0, 5))
@settings(deadline=None, max_examples=80)
def test_subsample_equals_the_unique_version(labels, fraction, seed):
    # label sets with gaps, such as {1, 4, 9}, as well as contiguous ones
    labels = np.array(labels)
    batch = Batch(np.random.default_rng(seed).normal(size=(labels.size, 2)), labels)
    sub = subsample_labeled(batch, fraction, seed=seed)
    ref = _subsample_with_unique(batch, fraction, seed)
    np.testing.assert_array_equal(sub.inputs, ref.inputs)
    np.testing.assert_array_equal(sub.labels, ref.labels)


@pytest.mark.parametrize("sizes, fraction, counts", [
    # four classes of 7 at 0.3: a budget of 9, floors of 2 each and every
    # remainder 0.1, so only the sort's stability gives the first class
    # the ninth row
    ([7, 7, 7, 7], 0.3, [3, 2, 2, 2]),
    # a budget of 2 for 5 classes: no class is kept by the one-per-class
    # floor, and the tie of equal remainders goes to the first classes
    ([4, 4, 4, 4, 4], 0.1, [1, 1, 0, 0, 0]),
])
def test_subsample_breaks_remainder_ties_in_class_order(sizes, fraction, counts):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    np.random.default_rng(3).shuffle(labels)
    batch = Batch(np.arange(2.0 * labels.size).reshape(-1, 2), labels)
    sub = subsample_labeled(batch, fraction, seed=4)
    ref = _subsample_with_unique(batch, fraction, 4)
    assert np.bincount(sub.labels, minlength=len(sizes)).tolist() == counts
    np.testing.assert_array_equal(sub.inputs, ref.inputs)
    np.testing.assert_array_equal(sub.labels, ref.labels)


def test_subsample_trims_the_one_per_class_floor_back_to_the_budget():
    # 4 of 100 rows: flooring 0.04 * [1, 1, 1, 97] gives [0, 0, 0, 3], one
    # row per class lifts that to 6 rows, and the trim takes the two extra
    # from the largest class
    labels = np.repeat(np.arange(4), [1, 1, 1, 97])
    batch = Batch(np.arange(200.0).reshape(100, 2), labels)
    sub = subsample_labeled(batch, 0.04, seed=0)
    assert np.bincount(sub.labels).tolist() == [1, 1, 1, 1]


def test_subsample_deterministic(rng):
    batch = Batch(rng.normal(size=(40, 3)), rng.integers(0, 4, size=40))
    a = subsample_labeled(batch, 0.25, seed=9)
    b = subsample_labeled(batch, 0.25, seed=9)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_subsample_full_fraction_is_identity(rng):
    batch = Batch(rng.normal(size=(10, 2)), rng.integers(0, 2, size=10))
    assert subsample_labeled(batch, 1.0, seed=0) is batch


def test_subsample_rejects_bad_fraction(rng):
    batch = Batch(rng.normal(size=(4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ConfigError):
        subsample_labeled(batch, 0.0, seed=0)
    with pytest.raises(ConfigError):
        subsample_labeled(batch, 1.5, seed=0)


def test_subsample_rejects_a_negative_seed(rng):
    batch = Batch(rng.normal(size=(8, 2)), np.arange(8) % 2)
    with pytest.raises(ConfigError, match="non-negative"):
        subsample_labeled(batch, 0.5, seed=-1)


@pytest.mark.parametrize("h", [0.0, 3.5, 10.0])
def test_rotation_matches_scipy_expm(h):
    rng = np.random.default_rng(int(h * 10))
    for d in (2, 5, 8):
        for _ in range(20):
            raw = rng.normal(size=(d, d))
            skew = (raw - raw.T) / 2.0
            rot = _rotation(h, skew)
            np.testing.assert_allclose(rot, expm(h * skew), rtol=0, atol=1e-12)
            np.testing.assert_allclose(rot @ rot.T, np.eye(d), rtol=0, atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def test_rotation_at_zero_heterogeneity_is_identity():
    raw = np.random.default_rng(1).normal(size=(8, 8))
    np.testing.assert_array_equal(_rotation(0.0, raw - raw.T), np.eye(8))
