"""Deterministic 64-bit PRNG used everywhere reproducibility matters.

splitmix64 is used instead of numpy's generators because it is trivial to
reimplement bit-exactly in any language, which keeps generated datasets,
initialized models and shuffle orders portable across implementations.
"""

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the 53 high bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_floats(self, n: int) -> np.ndarray:
        """The next n `next_float` draws as a float64 array, in one pass of
        numpy uint64 arithmetic (which wraps modulo 2^64 like the masks
        above); the state advances by n draws. n must be an integer >= 0,
        checked before the state moves."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"next_floats needs n >= 0, got {n}")
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n). Modulo bias is irrelevant for the
        desk-scale ranges used here and keeps the mapping trivial to port.
        n must be an integer >= 1, checked before the state moves."""
        n = operator.index(n)
        if n <= 0:
            raise ValueError("next_below needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, high index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
