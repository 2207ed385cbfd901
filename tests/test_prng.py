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

    def test_negative_count_refused_before_the_state_moves(self):
        # a negative count once returned [] and rewound the stream, so the
        # next draws repeated earlier ones
        rng, ref = SplitMix64(5), SplitMix64(5)
        rng.next_floats(3)
        ref.next_floats(3)
        with pytest.raises(ValueError, match="n >= 0"):
            rng.next_floats(-2)
        assert rng.next_floats(2).tobytes() == ref.next_floats(2).tobytes()

    def test_count_must_be_an_integer(self):
        rng = SplitMix64(5)
        with pytest.raises(TypeError, match="integer"):
            rng.next_floats(2.0)
        assert rng.next_u64() == SplitMix64(5).next_u64()
        # numpy integers are integers
        assert rng.next_floats(np.int64(3)).tobytes() == SplitMix64(5).next_floats(4)[1:].tobytes()

    def test_range(self):
        draws = SplitMix64(7).next_floats(10000)
        assert draws.min() >= 0.0 and draws.max() < 1.0


class TestNextBelow:
    def test_bound_must_be_an_integer(self):
        # next_below(2.5) once returned the float 0.5
        rng = SplitMix64(5)
        with pytest.raises(TypeError, match="integer"):
            rng.next_below(2.5)
        assert rng.next_u64() == SplitMix64(5).next_u64()
        # numpy integers are integers, and the result is a Python int
        draw = SplitMix64(5).next_below(np.int64(7))
        assert type(draw) is int and draw == SplitMix64(5).next_u64() % 7

    def test_bound_below_one_refused_before_the_state_moves(self):
        rng = SplitMix64(5)
        with pytest.raises(ValueError, match="n >= 1"):
            rng.next_below(0)
        assert rng.next_u64() == SplitMix64(5).next_u64()


class TestShuffle:
    def test_pinned_permutation(self):
        # Fisher-Yates from the top index down, j = next_u64() % (i + 1)
        items = list(range(10))
        SplitMix64(42).shuffle(items)
        assert items == [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]

    @pytest.mark.parametrize("seed", [0, 123, WRAPPING_SEED])
    def test_result_is_a_permutation(self, seed):
        items = [f"x{i}" for i in range(37)]
        shuffled = list(items)
        SplitMix64(seed).shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)

    @pytest.mark.parametrize("n", [0, 1])
    def test_short_lists_draw_nothing(self, n):
        items = list(range(n))
        rng = SplitMix64(7)
        rng.shuffle(items)
        assert items == list(range(n))
        assert rng.next_u64() == SplitMix64(7).next_u64()
