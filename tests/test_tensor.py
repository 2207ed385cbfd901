import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextvp.tensor import InputGrad, PatchRows, Tensor, Tape, ShapeError
from gradcheck import finite_diff_check
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

        # two leading axes convolve as one: [N, T, A, B, C] as [N*T, A, B, C],
        # values and gradients bit for bit
        x5, g5 = rand((2, 3, 5, 6, 2), 6), rand((2, 3, 5, 6, 3), 7)

        def run(x_data, g_data):
            tape = Tape()
            params = [Tensor(a, requires_grad=True) for a in (x_data, k, b)]
            out = tape.conv2d(*params)
            tape.backward(tape.sum(tape.mul(out, Tensor(g_data))))
            return [out.data] + [p.grad for p in params]

        flat = run(x5.reshape(6, 5, 6, 2), g5.reshape(6, 5, 6, 3))
        for got, want in zip(run(x5, g5), flat):
            np.testing.assert_array_equal(got.reshape(want.shape), want)

    @pytest.mark.parametrize("shape", [(5, 6, 3), (2, 3, 5, 6, 3)])
    @pytest.mark.parametrize("strided", [False, True])
    def test_1x1_equals_im2col_route(self, shape, strided):
        # a 1x1 kernel takes the input's rows without PatchRows and its one
        # tap without InputGrad: values and gradients bit for bit
        x = rand(shape[:-2] + (2 * shape[-2], 3), 8)[..., ::2, :] if strided else rand(shape, 8)
        k, b, g = rand((1, 1, 3, 4), 9), rand((4,), 10), rand(shape[:-1] + (4,), 11)
        params = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        tape = Tape()
        out = tape.conv2d(*params)
        tape.backward(tape.sum(tape.mul(out, Tensor(g))))
        rows, g2 = PatchRows(x.shape, 1, 1)(x), g.reshape(-1, 4)
        np.testing.assert_array_equal(out.data, (rows @ k.reshape(3, 4)).reshape(g.shape) + b)
        np.testing.assert_array_equal(params[0].grad, InputGrad(g.shape, k)(g))
        np.testing.assert_array_equal(params[1].grad, (rows.T @ g2).reshape(k.shape))
        np.testing.assert_array_equal(params[2].grad, g2.sum(axis=0))

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
        out = Tape().sigmoid(Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, 0.5)

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = Tape().sigmoid(Tensor([-1000.0, 1000.0]))
        assert y.data.tolist() == [0.0, 1.0]

    def test_tanh_at_zero(self):
        out = Tape().tanh(Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, 0.0)


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

    def test_output_grads_released_leaf_grads_unchanged(self):
        def graph():
            tape = Tape()
            x = Tensor(rand((4, 4, 2), 3), requires_grad=True)
            k = Tensor(rand((3, 3, 2, 2), 4), requires_grad=True)
            h = tape.tanh(tape.conv2d(x, k))
            return tape, tape.sum(tape.mul(h, h)), h, (x, k)

        def backward_keeping_output_grads(tape, loss):
            # the sweep without the release: every node's output keeps its grad
            loss.grad = np.ones(())
            for node in reversed(tape.nodes):
                contribs = node.backward_fn(node.output.grad)
                for t, contrib in zip(node.inputs, contribs):
                    if contrib is not None and t.requires_grad:
                        if t.grad is None:
                            t.grad = np.zeros_like(t.data)
                        t.grad += contrib

        tape, loss, h, leaves = graph()
        tape.backward(loss)
        assert h.grad is None and loss.grad is None
        ref_tape, ref_loss, ref_h, ref_leaves = graph()
        backward_keeping_output_grads(ref_tape, ref_loss)
        assert ref_h.grad is not None
        for got, want in zip(leaves, ref_leaves):
            assert got.grad.tobytes() == want.grad.tobytes()

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


def feed(tape, t, contrib):
    """A node reading t whose backward hands back `contrib` (an array, or
    a zero-argument function whose future does) as t's gradient."""
    return tape.record(
        "feed", (t,), t.data.copy(), lambda g: (contrib() if callable(contrib) else contrib,)
    )


class TestDeferredGradients:
    """Tape.backward with gradients handed back as futures."""

    # one leaf's contributions in sweep order; their float sum depends on
    # the order: 1e16 + 1 rounds to 1e16, and the ones are then lost
    CONTRIBS = [
        np.array([1e16, 1.0, 3.0]), np.array([1.0, 1e16, 2.0]), np.array([-1e16, -1e16, 1.0])
    ]

    @staticmethod
    def three_feeds(contribs):
        tape = Tape()
        w = Tensor(np.zeros(3), requires_grad=True)
        # the sweep reaches the feeds in reverse: contribs[0] is added first
        a, b, c = (feed(tape, w, contrib) for contrib in reversed(contribs))
        tape.backward(tape.sum(tape.add(tape.add(a, b), c)))
        return w.grad

    @pytest.mark.parametrize("deferred", [(0,), (1,), (2,), (0, 2), (0, 1, 2)])
    def test_leaf_sums_mixed_contributions_in_node_order(self, deferred):
        want = np.zeros(3)
        for contrib in self.CONTRIBS:
            want += contrib
        assert want.tobytes() != (self.CONTRIBS[1] + self.CONTRIBS[2] + self.CONTRIBS[0]).tobytes()
        gate = threading.Event()  # every future resolves only after the sweep has passed it
        with ThreadPoolExecutor(1) as pool:
            contribs = [
                (lambda c=c: pool.submit(lambda: (gate.wait(5), c)[1])) if j in deferred else c
                for j, c in enumerate(self.CONTRIBS)
            ]
            threading.Timer(0.05, gate.set).start()
            got = self.three_feeds(contribs)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == self.three_feeds(self.CONTRIBS).tobytes()

    def test_future_to_a_node_output_is_added_before_its_node(self):
        def run(deferred):
            tape = Tape()
            x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
            h = tape.tanh(x)
            contrib = np.array([3.0, 4.0])
            if deferred:
                with ThreadPoolExecutor(1) as pool:
                    fed = feed(tape, h, lambda: pool.submit(lambda: contrib))
                    tape.backward(tape.sum(tape.add(fed, h)))
            else:
                tape.backward(tape.sum(tape.add(feed(tape, h, contrib), h)))
            return x.grad

        assert run(True).tobytes() == run(False).tobytes()

    def test_deferred_error_raised_and_every_future_read(self):
        slow = []

        def failing():
            raise FloatingPointError("deferred gradient failed")

        with ThreadPoolExecutor(2) as pool:
            def contribs():
                # a good future before the failing one, and a slower one
                # after it, still running when the failing one is read
                def later(delay):
                    f = pool.submit(lambda: (threading.Event().wait(delay), np.ones(3))[1])
                    slow.append(f)
                    return f
                return [lambda: later(0.05), lambda: pool.submit(failing), lambda: later(0.5)]

            with pytest.raises(FloatingPointError, match="deferred gradient failed"):
                self.three_feeds(contribs())
            assert len(slow) == 2 and all(f.done() for f in slow)
        # a fresh tape afterwards still sums correctly
        np.testing.assert_array_equal(self.three_feeds([np.ones(3)] * 3), np.full(3, 3.0))

    def test_backward_fn_error_waits_for_pending_futures(self):
        tape = Tape()
        w = Tensor(np.zeros(2), requires_grad=True)
        pending = []

        def boom(g):
            raise RuntimeError("backward_fn failed")

        with ThreadPoolExecutor(1) as pool:
            def deferred():
                f = pool.submit(lambda: (threading.Event().wait(0.05), np.ones(2))[1])
                pending.append(f)
                return f

            bad = tape.record("boom", (w,), w.data.copy(), boom)
            # swept before `bad`: its future is pending when boom raises
            late = feed(tape, w, deferred)
            with pytest.raises(RuntimeError, match="backward_fn failed"):
                tape.backward(tape.sum(tape.add(bad, late)))
            assert len(pending) == 1 and pending[0].done()


class TestInputGrad:
    def test_stream_matches_one_shot(self):
        # the padded buffer is zeroed per call, so a second gradient owes
        # nothing to the first
        kd = rand((3, 3, 2, 5), 0)
        first, second = rand((2, 4, 6, 5), 1), rand((2, 4, 6, 5), 2)
        stream = InputGrad(first.shape, kd)
        stream(first)
        assert stream(second).tobytes() == InputGrad(second.shape, kd)(second).tobytes()


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
