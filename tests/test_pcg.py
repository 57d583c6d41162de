"""otmf._pcg against numpy's default_rng, the Generator it ports."""

import numpy as np
import pytest

from otmf._pcg import PCG64, _seed_state
from otmf.errors import ConfigError
from otmf.fusion import _ot_batch

# 0 is one entropy word, 2**32 + 5 and 2**70 are two and three, and 2**200
# is seven, more than SeedSequence's pool of four
SEEDS = [0, 2**32 + 5, 2**70]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, *SEEDS[1:], 2**200])
def test_seed_state_is_seed_sequences(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    assert _seed_state(seed) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_stream_is_pcg64s(seed):
    port, gen = PCG64(seed), np.random.default_rng(seed).bit_generator
    assert (port._state, port._inc) == (gen.state["state"]["state"], gen.state["state"]["inc"])
    assert [port.next_uint64() for _ in range(1000)] == gen.random_raw(1000).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_the_32_bit_half_carries_across_calls(seed):
    port, gen = PCG64(seed), np.random.default_rng(seed)
    # choice(5, 3) takes five 32-bit draws, so it leaves a half buffered;
    # 64-bit draws pass it by and the next 32-bit draw takes it
    assert port.choice(5, 3) == gen.choice(5, 3, replace=False).tolist()
    assert port._half is not None
    assert port.next_uint64() == int(gen.bit_generator.random_raw())
    assert port.choice(2**40, 3) == gen.choice(2**40, 3, replace=False).tolist()
    assert port.permutation(7) == gen.permutation(7).tolist()
    assert port.choice(9, 4) == gen.choice(9, 4, replace=False).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, k", [
    (0, 0), (5, 0), (1, 1), (10, 1), (10, 9), (10, 10), (128, 64), (256, 64),
    (10000, 5000),                 # Floyd: n is not above 10000
    (20000, 400),                  # Floyd: k is not above n // 50
    (20000, 401), (20000, 1000),   # the tail shuffle
    (20001, 1), (20000, 19999), (20000, 20000),
    (2**31 + 40, 40),              # Lemire rejects about half its products
    (2**32 + 2, 4),                # ranges 2**32 - 2 to 2**32 + 1: 32- and 64-bit draws
    (2**40, 5),                    # 64-bit Lemire
])
def test_choice_is_generator_choice(seed, n, k):
    port, gen = PCG64(seed), np.random.default_rng(seed)
    assert port.choice(n, k) == gen.choice(n, k, replace=False).tolist()
    # and the stream goes on where numpy's does
    assert port.next_uint32() == int(gen.integers(0, 2**32, dtype=np.uint32))


def test_lemire_rejection_draws_again():
    class Counting(PCG64):
        draws = 0

        def next_uint32(self):
            self.draws += 1
            return super().next_uint32()

    port = Counting(0)
    want = np.random.default_rng(0).choice(2**31 + 40, 40, replace=False).tolist()
    assert port.choice(2**31 + 40, 40) == want
    # Floyd's 40 draws and the shuffle's 39, and the redraws on top
    assert port.draws > 79


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 30, 1000])
def test_permutation_is_generator_permutation(seed, n):
    assert PCG64(seed).permutation(n) == np.random.default_rng(seed).permutation(n).tolist()
    x = np.arange(n) * 3 + 7
    np.testing.assert_array_equal(x[PCG64(seed).permutation(n)],
                                  np.random.default_rng(seed).permutation(x))


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_in_continual_merge_order(seed):
    # each step draws its pre batch from the seen tasks' pools, then its
    # post batch from the incoming one's, on one stream; the head subsample
    # of step t permutes each class's rows on a stream of its own, seed + t
    port, gen = PCG64(seed), np.random.default_rng(seed)
    for t in range(2, 7):
        for n in (128 * (t - 1), 128):
            pool = np.arange(2.0 * n).reshape(n, 2)
            want = pool[np.sort(gen.choice(n, 64, replace=False))]
            np.testing.assert_array_equal(_ot_batch(port, pool, 64), want)
        head, head_gen = PCG64(seed + t), np.random.default_rng(seed + t)
        for size in (31, 30, 29, 30):
            assert head.permutation(size) == head_gen.permutation(size).tolist()


def test_draws_are_pinned():
    # the draws of the default config's merge at seed 0: step 2's pre and
    # post OT batches from 128-row pools, and its head subsample's first
    # class of 30. NEP 19 lets numpy change its Generator's algorithms; if
    # a release does, the tests above fail and these keep the merge's bits
    port = PCG64(0)
    assert port.choice(128, 64) == [
        124, 86, 125, 115, 3, 71, 117, 21, 55, 98, 51, 106, 29, 30, 46, 119,
        43, 48, 5, 104, 110, 13, 100, 78, 2, 89, 105, 68, 84, 73, 34, 42,
        23, 35, 1, 60, 123, 38, 58, 116, 47, 83, 77, 16, 76, 69, 113, 8,
        127, 95, 53, 18, 72, 49, 50, 0, 44, 70, 80, 87, 108, 54, 12, 45,
    ]
    assert port.choice(128, 64)[:16] == [
        30, 54, 88, 32, 98, 50, 48, 39, 116, 44, 49, 93, 40, 46, 105, 114,
    ]
    assert PCG64(2).permutation(30) == [
        15, 24, 7, 26, 12, 16, 18, 14, 22, 10, 25, 28, 20, 23, 6, 29,
        2, 11, 13, 0, 27, 17, 19, 9, 5, 21, 3, 4, 8, 1,
    ]
    assert PCG64(2**70).choice(20000, 500)[:8] == [5983, 9983, 6001, 9327, 6668, 17209, 9928, 480]
    assert PCG64(2**32 + 5).next_uint64() == 14281546376153053393


def test_bad_seeds_and_sizes_raise():
    with pytest.raises(ConfigError, match="non-negative"):
        PCG64(-1)
    with pytest.raises(TypeError):
        PCG64(1.5)
    with pytest.raises(ValueError):
        PCG64(0).choice(3, 4)
    with pytest.raises(ValueError):
        PCG64(0).choice(3, -1)
