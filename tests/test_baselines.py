import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmf.baselines import BaselineConfig, baseline_fold, ties_merge_pair
from otmf.errors import ConfigError


def folded(method, vecs, **cfg):
    """The fold's merged vector after the last incoming vector."""
    *_, last = map(baseline_fold(method, BaselineConfig(**cfg)), vecs)
    return last


def random_vectors(seed, count, size=10):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(count)]


def reference_ties(a_flat, b_flat, trim_fraction):
    """Independent elementwise reimplementation of trim / elect / merge."""

    def trim(v):
        keep = math.ceil(trim_fraction * v.size)
        out = np.zeros_like(v)
        if keep >= v.size:
            return v.copy()
        idx = np.argsort(np.abs(v), kind="stable")[v.size - keep :]
        out[idx] = v[idx]
        return out

    a, b = trim(a_flat), trim(b_flat)
    out = np.zeros_like(a)
    for i in range(a.size):
        pos = max(a[i], 0.0) + max(b[i], 0.0)
        neg = max(-a[i], 0.0) + max(-b[i], 0.0)
        sign = 1.0 if pos >= neg else -1.0
        vals = [v for v in (a[i], b[i]) if v != 0.0 and np.sign(v) == sign]
        out[i] = sum(vals) / len(vals) if vals else 0.0
    return out


def test_config_validation():
    with pytest.raises(ConfigError):
        folded("magic", random_vectors(0, 2))
    with pytest.raises(ConfigError):
        BaselineConfig(trim_fraction=0.0)
    with pytest.raises(ConfigError):
        BaselineConfig(scaling=float("inf"))


def test_swa_equals_batch_mean():
    vecs = random_vectors(0, 7)
    avg = folded("swa", vecs)
    np.testing.assert_allclose(avg, np.stack(vecs).mean(axis=0), atol=1e-12)


def test_swa_identical_vectors_identity():
    v = random_vectors(1, 1)[0]
    merged = folded("swa", [v, v, v])
    assert np.array_equal(merged, v)


def test_task_arithmetic_is_scaled_sum():
    vecs = random_vectors(2, 4)
    merged = folded("task_arithmetic", vecs, scaling=0.3)
    np.testing.assert_allclose(merged, 0.3 * sum(vecs), atol=1e-12)


@given(st.integers(0, 99), st.sampled_from([0.2, 0.5, 1.0]))
@settings(deadline=None, max_examples=50)
def test_ties_pair_matches_reference(seed, trim_fraction):
    a, b = random_vectors(seed, 2)
    merged = ties_merge_pair(a, b, trim_fraction)
    np.testing.assert_array_equal(merged, reference_ties(a, b, trim_fraction))


def test_ties_sign_tie_elects_positive():
    a = np.array([1.0, -1.0])
    b = np.array([-1.0, 1.0])
    merged = ties_merge_pair(a, b, 1.0)
    # equal positive and negative mass at every entry: positive wins
    np.testing.assert_array_equal(merged, np.array([1.0, 1.0]))


def test_continual_ties_is_left_fold():
    vecs = random_vectors(5, 3)
    step = ties_merge_pair(ties_merge_pair(vecs[0], vecs[1], 0.4), vecs[2], 0.4)
    assert np.array_equal(folded("ties", vecs, trim_fraction=0.4), step)


def test_input_validation():
    # the stream itself is checked by fusion.merge_stream; the fold checks
    # only its method, when it is made, before it takes a vector
    for method in ("mean", "SWA", "otmf", ""):
        with pytest.raises(ConfigError, match="unknown baseline method"):
            baseline_fold(method, BaselineConfig())


def test_fold_yields_each_prefix_merge():
    vecs = random_vectors(3, 4)
    for method in ("swa", "task_arithmetic", "ties"):
        steps = list(map(baseline_fold(method, BaselineConfig()), vecs))
        assert len(steps) == len(vecs)
        for t in range(2, len(vecs) + 1):
            assert np.array_equal(steps[t - 1], folded(method, vecs[:t]))
