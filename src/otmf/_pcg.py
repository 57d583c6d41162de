"""numpy's `default_rng(seed)` stream in pure Python, for the draws of a merge.

`merge otmf` draws its OT batches with `choice(n, k, replace=False)` and its
head subsample with `permutation`, and those draws fix the merged model's
bits. Importing `numpy.random` loads eight Cython extensions and OpenSSL's
libcrypto, about 5.5 MB of resident memory, for those two calls. So the
merge draws from this port of the numpy 2 algorithms, which gives the same
integers as `np.random.default_rng(seed)` bit for bit:

- `SeedSequence(seed).generate_state(4, np.uint64)`, the hashmix/mix pool
  that turns the seed into PCG64's state and increment;
- PCG64 (O'Neill 2014): a 128-bit LCG with the XSL-RR 128/64 output. A
  32-bit draw takes the low half of a 64-bit one and keeps the high half
  for the next 32-bit draw on the stream;
- bounded integers by Lemire's multiply-and-reject (Lemire 2019);
- `choice` without replacement: Floyd's algorithm and a shuffle of its
  sample, or, for n > 10000 and k > n // 50, a Fisher-Yates shuffle of the
  last k slots of range(n);
- `permutation`: a Fisher-Yates shuffle drawing by masked rejection.

A merge imports this module where it first draws: with bytecode caching
off (PYTHONDONTWRITEBYTECODE), each import compiles its source, a cost a
process that draws nothing should not pay.

NEP 19 lets numpy change its Generator's algorithms between releases; this
port keeps the 2.x ones, and tests pin its outputs.
"""

from __future__ import annotations

import operator

from .errors import ConfigError

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64) as Python ints."""
    entropy = [seed & _M32]  # the seed's 32-bit words, least significant first
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The stream of np.random.default_rng(seed) for a seed >= 0, with the
    Generator methods a merge calls. A negative seed raises ConfigError."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
        s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = 0
        self.next_uint64()
        self._state = (self._state + (s_hi << 64 | s_lo)) & _M128
        self.next_uint64()
        self._half: int | None = None  # the buffered high half of a 64-bit draw

    def next_uint64(self) -> int:
        """Step the LCG and return the XSL-RR output of its new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next_uint32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self.next_uint64()
        self._half = x >> 32
        return x & _M32

    def _bounded(self, top: int) -> int:
        """An integer in [0, top], Lemire's way (random_bounded_uint64); a
        32-bit draw while top fits in 32 bits. top 0 takes no draw."""
        if top == 0:
            return 0
        draw, bits = (self.next_uint32, 32) if top <= _M32 else (self.next_uint64, 64)
        span, low = top + 1, (1 << bits) - 1
        threshold = (1 << bits) % span  # reject the low products that bias
        m = draw() * span
        while m & low < threshold:
            m = draw() * span
        return m >> bits

    def _interval(self, top: int) -> int:
        """An integer in [0, top] by masked rejection (random_interval)."""
        mask = (1 << top.bit_length()) - 1
        draw = self.next_uint32 if top <= _M32 else self.next_uint64
        while (value := draw() & mask) > top:
            pass
        return value

    @staticmethod
    def _shuffle(data: list[int], first: int, draw) -> None:
        """Swap each slot from the last down to first with one drawn at or below it."""
        for i in range(len(data) - 1, first - 1, -1):
            j = draw(i)
            data[i], data[j] = data[j], data[i]

    def choice(self, n: int, size: int) -> list[int]:
        """Generator.choice(n, size, replace=False): size distinct integers in [0, n)."""
        if not 0 <= size <= n:
            raise ValueError(f"cannot draw {size} distinct integers from {n}")
        if n > 10000 and size > n // 50:
            idx = list(range(n))
            self._shuffle(idx, max(n - size, 1), self._bounded)
            return idx[n - size:]
        # Floyd's algorithm, then a shuffle of the sample
        idx, seen = [], set()
        for j in range(n - size, n):
            val = self._bounded(j)
            if val in seen:
                val = j
            seen.add(val)
            idx.append(val)
        self._shuffle(idx, 1, self._bounded)
        return idx

    def permutation(self, n: int) -> list[int]:
        """Generator.permutation(n): range(n) shuffled. Generator.permutation(x)
        of a 1-d array x of length n is x indexed by it."""
        idx = list(range(n))
        self._shuffle(idx, 1, self._interval)
        return idx
