import hashlib

import numpy as np
import pytest

from contextvp.data import (
    GeometryError,
    MovingShape,
    ShapeSceneParams,
    bounce_track,
    generate_bouncing_shapes,
    render_sequence,
    window,
)
from contextvp.tensor import ShapeError


class TestBounceTrack:
    def test_exact_landing_dwells_one_frame_on_the_wall(self):
        # 3 is reached exactly; the next step overshoots to 4, is clamped
        # back to 3 and flips the velocity
        assert bounce_track(0.0, 1.0, 3.0, 7) == [0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0]

    def test_overshoot_is_clamped_and_flipped(self):
        assert bounce_track(0.0, 1.5, 4.0, 8) == [0.0, 1.5, 3.0, 4.0, 2.5, 1.0, 0.0, 1.5]

    def test_lower_wall(self):
        assert bounce_track(2.0, -1.0, 5.0, 5) == [2.0, 1.0, 0.0, 0.0, 1.0]

    def test_still_shape_and_single_step(self):
        assert bounce_track(2.0, 0.0, 5.0, 3) == [2.0, 2.0, 2.0]
        assert bounce_track(1.0, 1.0, 5.0, 1) == [1.0]


class TestRender:
    def test_square_moves_one_column_per_frame(self):
        square = MovingShape("square", 2, y=1.0, x=0.0, vy=0.0, vx=1.0)
        frames = render_sequence([square], H=4, W=5, T=3, C=1)
        for t in range(3):
            want = np.zeros((4, 5))
            want[1:3, t:t + 2] = 1.0
            np.testing.assert_array_equal(frames[t, :, :, 0], want)

    def test_disc_drops_the_box_corners(self):
        # size 5: center 2, radius 2.5; a corner cell sits at squared
        # distance 8 > 6.25, its neighbours at 5 <= 6.25
        disc = MovingShape("disc", 5, y=1.0, x=0.0, vy=0.0, vx=0.0)
        frames = render_sequence([disc], H=6, W=6, T=1, C=3)
        want = np.zeros((6, 6))
        want[1:6, 0:5] = 1.0
        for y, x in ((1, 0), (1, 4), (5, 0), (5, 4)):
            want[y, x] = 0.0
        for c in range(3):
            np.testing.assert_array_equal(frames[0, :, :, c], want)


class TestGenerate:
    def test_same_seed_bit_identical_and_binary(self):
        params = ShapeSceneParams(n_sequences=3, n_shapes=2, kinds=("square", "disc"),
                                  sizes=(3, 4), speeds=(1.0, 2.0), H=10, W=12, T=5, seed=4)
        a = generate_bouncing_shapes(params)
        b = generate_bouncing_shapes(params)
        assert a.shape == (3, 5, 10, 12, 1)
        assert a.tobytes() == b.tobytes()
        assert set(np.unique(a)) <= {0.0, 1.0} and a.max() == 1.0

    def test_bytes_pinned(self):
        # the seed and the params are the dataset's only portable form, so a
        # reordered or added draw must fail here; this seed draws squares and
        # discs of both sizes at both speeds
        params = ShapeSceneParams(n_sequences=3, n_shapes=2, kinds=("square", "disc"),
                                  sizes=(3, 5), speeds=(0.5, 1.5), H=10, W=12, T=6, C=3,
                                  seed=0)
        frames = generate_bouncing_shapes(params)
        assert frames.shape == (3, 6, 10, 12, 3) and frames.dtype == np.float64
        assert hashlib.sha256(frames.tobytes()).hexdigest() == (
            "06e96e582238e7ac50ef645ce7ea8dbda64cab36bc0bad6774492b09d2ed88a2"
        )

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_speed_must_be_finite_and_nonnegative(self, speed):
        # unchecked, a NaN speed fails later, inside generate_bouncing_shapes
        with pytest.raises(GeometryError, match="speeds must be finite and >= 0"):
            ShapeSceneParams(speeds=(1.0, speed))

    @pytest.mark.parametrize("field, value", [
        ("sizes", (2.7,)), ("T", 2.5), ("H", 16.0), ("seed", 1.5), ("C", 1.0), ("n_shapes", 1.0),
    ])
    def test_integer_fields_refuse_non_integers_at_construction(self, field, value):
        # neither truncated nor left to fail inside generate_bouncing_shapes
        with pytest.raises(TypeError):
            ShapeSceneParams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("kinds", "square"), ("kinds", b"square"), ("sizes", 4), ("speeds", 1.0),
    ])
    def test_sequence_fields_refuse_a_bare_value(self, field, value):
        # a string was split into characters, a number failed with a bare
        # "'int' object is not iterable"
        with pytest.raises(TypeError, match=f"{field} must be a sequence"):
            ShapeSceneParams(**{field: value})

    def test_numpy_integer_fields_become_python_ints(self):
        params = ShapeSceneParams(n_sequences=np.int64(2), H=np.int32(8), W=np.int64(8),
                                  T=np.int64(3), sizes=(np.int64(3),), seed=np.uint64(5))
        plain = ShapeSceneParams(n_sequences=2, H=8, W=8, T=3, sizes=(3,), seed=5)
        assert params == plain
        assert all(type(v) is int for v in (params.n_sequences, params.H, params.T, params.seed))
        assert type(params.sizes[0]) is int

    def test_window_pairs(self):
        frames = np.arange(2 * 5, dtype=float).reshape(2, 5, 1, 1, 1)
        pairs = window(frames, input_len=3)
        assert len(pairs) == 2 * (5 - 3)
        x, y = pairs[3]  # sequence 1, pair 1
        np.testing.assert_array_equal(x[:, 0, 0, 0], [6.0, 7.0, 8.0])
        assert y[0, 0, 0] == 9.0
        with pytest.raises(ValueError):
            window(frames, input_len=5)

    @pytest.mark.parametrize("shape", [(5, 8, 8, 1), (1, 2, 5, 8, 8, 1)], ids=["rank4", "rank6"])
    def test_window_refuses_other_ranks(self, shape):
        # a single [T, H, W, C] sequence would otherwise be cut along H
        with pytest.raises(ShapeError, match="rank"):
            window(np.zeros(shape), 3)
