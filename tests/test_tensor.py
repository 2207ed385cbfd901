import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextvp.tensor import Tensor, Tape, ShapeError, finite_diff_check
from oracles import naive_conv2d


def rand(shape, seed):
    return np.random.default_rng(seed).uniform(-1, 1, size=shape)


class TestConv2d:
    def test_identity_kernel_1x1(self):
        x = Tensor([[[3.5]]])
        k = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = Tape().conv2d(x, k, b)
        assert out.data[0, 0, 0] == 3.5

    def test_zero_padding_counts(self):
        x = Tensor(np.ones((3, 3, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = Tape().conv2d(x, k, Tensor(np.zeros(1)))
        assert out.data[1, 1, 0] == 9.0
        assert out.data[0, 0, 0] == 4.0
        assert out.data[0, 1, 0] == 6.0

    def test_random_matches_naive_oracle(self):
        x = rand((5, 5, 2), 0)
        k = rand((3, 3, 2, 3), 1)
        b = rand((3,), 2)
        out = Tape().conv2d(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, k, b), atol=1e-12)

    def test_exhaustive_small_sweep(self):
        rng = np.random.default_rng(7)
        for h in (1, 2, 4, 7):
            for w in (1, 3, 7):
                for kh in (1, 3):
                    for kw in (1, 3):
                        for cin in (1, 3):
                            for cout in (1, 2):
                                x = rng.standard_normal((h, w, cin))
                                k = rng.standard_normal((kh, kw, cin, cout))
                                b = rng.standard_normal(cout)
                                got = Tape().conv2d(Tensor(x), Tensor(k), Tensor(b))
                                np.testing.assert_allclose(
                                    got.data, naive_conv2d(x, k, b), atol=1e-12
                                )

    def test_batched_equals_per_sample(self):
        x = rand((4, 5, 6, 2), 3)
        k = rand((3, 3, 2, 3), 4)
        b = rand((3,), 5)
        batched = Tape().conv2d(Tensor(x), Tensor(k), Tensor(b))
        for n in range(4):
            single = Tape().conv2d(Tensor(x[n]), Tensor(k), Tensor(b))
            np.testing.assert_allclose(batched.data[n], single.data, atol=1e-12)

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((4, 4, 3)))
        k = Tensor(np.zeros((3, 3, 2, 1)))
        with pytest.raises(ShapeError, match="channels"):
            Tape().conv2d(x, k)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            Tape().conv2d(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((2, 3, 1, 1))))


class TestActivations:
    def test_sigmoid_at_zero(self):
        out = Tape().activation(Tensor(np.zeros(3)), "sigmoid")
        np.testing.assert_array_equal(out.data, 0.5)

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = Tape().sigmoid(Tensor([-1000.0, 1000.0]))
        assert y.data.tolist() == [0.0, 1.0]

    def test_tanh_at_zero(self):
        out = Tape().activation(Tensor(np.zeros(3)), "tanh")
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_passthrough(self):
        v = Tensor(rand((2, 3), 0))
        assert Tape().activation(v, "identity") is v

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="activation"):
            Tape().activation(Tensor([1.0]), "softplus")


class TestElementwise:
    def test_mul_annihilator(self):
        x = Tensor(rand((3, 4), 0))
        zeros = Tensor(np.zeros((3, 4)))
        np.testing.assert_array_equal(Tape().mul(x, zeros).data, 0.0)

    def test_add_inverse(self):
        tape = Tape()
        x = Tensor(rand((3, 4), 1))
        np.testing.assert_array_equal(tape.add(x, tape.scale(x, -1.0)).data, 0.0)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tape().add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_concat_partition_roundtrip(self):
        tape = Tape()
        parts = [Tensor(rand((2, 3, 4), s)) for s in range(5)]
        merged = tape.concat(parts, axis=2)
        assert merged.data.shape == (2, 3, 20)
        for i, p in enumerate(parts):
            back = tape.slice_axis(merged, 2, 4 * i, 4 * (i + 1))
            np.testing.assert_array_equal(back.data, p.data)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_add_commutes(self, seed):
        a, b = rand((3, 3), seed), rand((3, 3), seed + 1)
        tape = Tape()
        np.testing.assert_array_equal(
            tape.add(Tensor(a), Tensor(b)).data, tape.add(Tensor(b), Tensor(a)).data
        )


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = Tensor(rand((3, 4), 0), requires_grad=True)
        tape.backward(tape.sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sigmoid_gradient_quarter_at_zero(self):
        tape = Tape()
        x = Tensor(np.zeros((5,)), requires_grad=True)
        tape.backward(tape.sum(tape.sigmoid(x)))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_non_scalar_seed_rejected(self):
        tape = Tape()
        x = Tensor(rand((3,), 0), requires_grad=True)
        y = tape.mul(x, x)
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(y)

    def test_shared_tensor_accumulates(self):
        tape = Tape()
        x = Tensor(np.array([2.0]), requires_grad=True)
        tape.backward(tape.sum(tape.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_repeat_backward_resets(self):
        tape = Tape()
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = tape.sum(tape.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, first)

    def test_determinism_bit_identical(self):
        def run():
            tape = Tape()
            x = Tensor(rand((4, 4, 2), 0), requires_grad=True)
            k = Tensor(rand((3, 3, 2, 2), 1), requires_grad=True)
            b = Tensor(rand((2,), 2), requires_grad=True)
            y = tape.tanh(tape.conv2d(x, k, b))
            tape.backward(tape.sum(tape.mul(y, y)))
            return y.data.copy(), x.grad.copy(), k.grad.copy(), b.grad.copy()

        first, second = run(), run()
        for a, b_ in zip(first, second):
            assert a.tobytes() == b_.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composite_matches_finite_differences(self, seed):
        # conv -> gates -> elementwise -> reductions, all ops in one graph
        x_data = rand((4, 4, 2), seed + 10)

        def f(tape, params):
            k, b, k2 = params
            x = Tensor(x_data)
            h1 = tape.sigmoid(tape.conv2d(x, k, b))
            h2 = tape.tanh(tape.conv2d(h1, k2))
            top = tape.index(h2, 0, 1)
            merged = tape.concat([h2, h2], axis=2)
            return tape.add(
                tape.sum(tape.mul(h2, h2)),
                tape.add(tape.sum(top), tape.scale(tape.sum(merged), 0.25)),
            )

        params = [
            Tensor(rand((3, 3, 2, 3), seed), requires_grad=True),
            Tensor(rand((3,), seed + 1), requires_grad=True),
            Tensor(rand((1, 1, 3, 2), seed + 2), requires_grad=True),
        ]
        max_rel, excluded = finite_diff_check(f, params)
        assert excluded == []
        assert max_rel < 1e-4

    def test_layer_norm_matches_finite_differences(self):
        x_data = rand((3, 4), 0)

        def f(tape, params):
            (w,) = params
            y = tape.layer_norm(tape.mul(Tensor(x_data), w))
            return tape.sum(tape.mul(y, y))

        params = [Tensor(rand((3, 4), 1) + 2.0, requires_grad=True)]
        max_rel, excluded = finite_diff_check(f, params)
        assert excluded == []
        assert max_rel < 1e-4


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        def f(tape, params):
            (p,) = params
            return tape.sum(tape.mul(p, p))

        p = Tensor(np.array(3.0), requires_grad=True)
        max_rel, excluded = finite_diff_check(f, [p])
        assert excluded == []
        assert max_rel < 1e-9
        assert p.grad == pytest.approx(6.0)

    def test_l1_kink_flagged_as_excluded(self):
        def f(tape, params):
            (p,) = params
            return tape.sum(tape.absolute(p))

        p = Tensor(np.array([0.0, 0.5]), requires_grad=True)
        _, excluded = finite_diff_check(f, [p])
        assert (0, 0) in excluded
        assert (0, 1) not in excluded

    def test_non_finite_evaluation_raises(self):
        def f(tape, params):
            (p,) = params
            return tape.sum(Tensor(np.array(np.nan)))

        with pytest.raises(FloatingPointError):
            finite_diff_check(f, [Tensor(np.array(1.0), requires_grad=True)])


class TestStructureOps:
    def test_index_stack_roundtrip(self):
        tape = Tape()
        x = Tensor(rand((3, 2, 2), 0))
        planes = [tape.index(x, 0, i) for i in range(3)]
        back = tape.stack(planes, axis=0)
        np.testing.assert_array_equal(back.data, x.data)

    def test_reshape_gradient(self):
        tape = Tape()
        x = Tensor(rand((2, 6), 0), requires_grad=True)
        y = tape.reshape(x, (3, 4))
        tape.backward(tape.sum(tape.mul(y, y)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_rank_cap(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1, 1)))
