import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextvp.data import (
    DATASET_MAGIC,
    Dataset,
    GeometryError,
    MovingShape,
    ShapeSceneParams,
    bounce_track,
    dataset_bytes,
    generate_bouncing_shapes,
    load_dataset,
    render_sequence,
    save_dataset,
    window,
)
from contextvp.serial import DimOverflowError, FormatError, TruncatedFileError, Writer


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
        a = generate_bouncing_shapes(params).data
        b = generate_bouncing_shapes(params).data
        assert a.shape == (3, 5, 10, 12, 1)
        assert a.tobytes() == b.tobytes()
        assert set(np.unique(a)) <= {0.0, 1.0} and a.max() == 1.0

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

    def test_numpy_integer_fields_become_python_ints(self):
        params = ShapeSceneParams(n_sequences=np.int64(2), H=np.int32(8), W=np.int64(8),
                                  T=np.int64(3), sizes=(np.int64(3),), seed=np.uint64(5))
        plain = ShapeSceneParams(n_sequences=2, H=8, W=8, T=3, sizes=(3,), seed=5)
        assert params == plain
        assert all(type(v) is int for v in (params.n_sequences, params.H, params.T, params.seed))
        assert type(params.sizes[0]) is int

    def test_window_pairs(self):
        dataset = Dataset(np.arange(2 * 5, dtype=float).reshape(2, 5, 1, 1, 1) / 16)
        pairs = window(dataset, input_len=3)
        assert len(pairs) == 2 * (5 - 3)
        x, y = pairs[3]  # sequence 1, pair 1
        np.testing.assert_array_equal(x[:, 0, 0, 0] * 16, [6.0, 7.0, 8.0])
        assert y[0, 0, 0] * 16 == 9.0
        with pytest.raises(ValueError):
            window(dataset, input_len=5)


def small_dataset():
    return Dataset(np.random.default_rng(0).uniform(size=(2, 3, 4, 5, 1)))


class TestDatasetFile:
    def test_save_load_save_byte_exact(self, tmp_path):
        path = tmp_path / "d.cvpd"
        original = small_dataset()
        save_dataset(original, str(path))
        first = path.read_bytes()
        loaded = load_dataset(str(path))
        np.testing.assert_array_equal(loaded.data, original.data.astype(np.float32))
        assert dataset_bytes(loaded) == first

    @pytest.mark.parametrize("cut", [1, 4, 17])
    def test_truncated(self, tmp_path, cut):
        path = tmp_path / "d.cvpd"
        path.write_bytes(dataset_bytes(small_dataset())[:-cut])
        with pytest.raises(TruncatedFileError):
            load_dataset(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "d.cvpd"
        path.write_bytes(dataset_bytes(small_dataset()) + b"\0")
        with pytest.raises(FormatError, match="trailing") as info:
            load_dataset(str(path))
        # the file is too long, not too short
        assert not isinstance(info.value, TruncatedFileError)

    def test_implausible_dimensions(self, tmp_path):
        w = Writer()
        w.raw(DATASET_MAGIC)
        w.u32(1)
        for dim in (2**32 - 1,) * 5:
            w.u32(dim)
        w.u8(1)
        path = tmp_path / "d.cvpd"
        path.write_bytes(w.getvalue())
        with pytest.raises(DimOverflowError):
            load_dataset(str(path))

    @pytest.mark.parametrize("offset, value, message", [
        (0, 0x58, "magic"), (4, 2, "version"), (28, 7, "dtype"),
    ])
    def test_bad_header_field(self, tmp_path, offset, value, message):
        blob = bytearray(dataset_bytes(small_dataset()))
        blob[offset] = value
        path = tmp_path / "d.cvpd"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load_dataset(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 7.0, -0.5])
    def test_dataset_rejects_what_the_loader_refuses(self, bad):
        data = np.full((1, 2, 3, 3, 1), 0.25)
        data[0, 1, 2, 0, 0] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(data)

    def test_dataset_rank_checked(self):
        with pytest.raises(ValueError, match=r"\[N, T, H, W, C\], got rank 4"):
            Dataset(np.zeros((2, 3, 3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 7.0, -0.5])
    def test_non_finite_or_out_of_range_frames(self, tmp_path, bad):
        # Dataset refuses these values, so patch one f32 of a valid file:
        # frame value [0, 1, 2, 0, 0] is payload element 1*9 + 2*3 = 15
        blob = bytearray(dataset_bytes(Dataset(np.full((1, 2, 3, 3, 1), 0.25))))
        at = len(blob) - 4 * 18 + 4 * 15
        blob[at:at + 4] = np.array([bad], dtype="<f4").tobytes()
        path = tmp_path / "d.cvpd"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"\[0, 1\]"):
            load_dataset(str(path))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_mutation_fuzz(self, tmp_path_factory, data):
        blob = bytearray(dataset_bytes(Dataset(np.full((1, 2, 3, 3, 1), 0.25))))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        blob = blob[:data.draw(st.integers(0, len(blob)))] + data.draw(st.binary(max_size=8))
        path = tmp_path_factory.mktemp("fuzz") / "d.cvpd"
        path.write_bytes(bytes(blob))
        try:
            load_dataset(str(path))
        except FormatError:
            pass
