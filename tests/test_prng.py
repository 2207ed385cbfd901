import numpy as np
import pytest

from contextvp.prng import SplitMix64

WRAPPING_SEED = (1 << 64) - 1000  # within 2^16 of 2^64: the state wraps


class TestNextFloats:
    @pytest.mark.parametrize("seed", [0, 123, WRAPPING_SEED])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_equals_scalar_draws(self, seed, n):
        vec, scalar = SplitMix64(seed), SplitMix64(seed)
        got = vec.next_floats(n)
        want = [scalar.next_float() for _ in range(n)]
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        # the same state: both streams go on identically
        assert vec.next_u64() == scalar.next_u64()

    def test_interleaved_with_scalar_draws(self):
        vec, scalar = SplitMix64(WRAPPING_SEED), SplitMix64(WRAPPING_SEED)
        got, want = [], []
        for n in (3, 0, 1, 500, 2):
            got.append(vec.next_float())
            got.extend(vec.next_floats(n))
            want.extend(scalar.next_float() for _ in range(n + 1))
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert vec.next_u64() == scalar.next_u64()

    def test_range(self):
        draws = SplitMix64(7).next_floats(10000)
        assert draws.min() >= 0.0 and draws.max() < 1.0
