import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextvp.prng import SplitMix64
from contextvp.tensor import Tensor, Tape, ShapeError
from contextvp.loss_optim import (
    AdamState,
    LossSpec,
    adam_step,
    combined_loss,
    gdl_loss,
    lp_loss,
    lr_schedule,
    xavier_uniform,
)
from gradcheck import finite_diff_check


def frame(arr):
    return Tensor(np.asarray(arr, dtype=float))


class TestLpLoss:
    def test_equal_frames_zero(self):
        y = frame(np.random.default_rng(0).uniform(size=(3, 3, 1)))
        assert lp_loss(Tape(), y, y, 1).data.item() == 0.0

    def test_constant_half_gap_l1(self):
        y = frame(np.full((2, 2, 1), 0.75))
        pred = frame(np.full((2, 2, 1), 0.25))
        assert lp_loss(Tape(), y, pred, 1).data.item() == pytest.approx(2.0)

    def test_random_matches_direct_sums(self):
        rng = np.random.default_rng(1)
        y, p = rng.uniform(size=(4, 5, 2)), rng.uniform(size=(4, 5, 2))
        tape = Tape()
        assert lp_loss(tape, frame(y), frame(p), 1).data.item() == pytest.approx(
            np.sum(np.abs(y - p)), abs=1e-12
        )
        assert lp_loss(tape, frame(y), frame(p), 2).data.item() == pytest.approx(
            np.sum((y - p) ** 2), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lp_loss(Tape(), frame(np.zeros((2, 2, 1))), frame(np.zeros((2, 3, 1))), 1)


class TestGdlLoss:
    def test_equal_frames_zero(self):
        y = frame(np.random.default_rng(2).uniform(size=(1, 4, 4, 1)))
        assert gdl_loss(Tape(), y, y).data.item() == 0.0

    def test_constant_shift_invariance(self):
        y = frame(np.random.default_rng(3).uniform(size=(2, 4, 4, 1)))
        shifted = frame(y.data + 0.37)
        assert gdl_loss(Tape(), y, shifted).data.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_two_by_two(self):
        # y has unit column steps, prediction is flat: two horizontal
        # difference terms of 1 each, no vertical terms
        y = frame(np.array([[0.0, 1.0], [0.0, 1.0]])[None, ..., None])
        pred = frame(np.zeros((1, 2, 2, 1)))
        assert gdl_loss(Tape(), y, pred).data.item() == pytest.approx(2.0)

    def test_printed_form_can_go_negative(self):
        # the printed form, without the outer absolute value, is negative
        # for this pair; the loss applies the outer absolute value
        y = frame(np.zeros((1, 2, 2, 1)))
        pred = frame(np.array([[0.0, 1.0], [0.0, 1.0]])[None, ..., None])
        printed = sum(
            np.sum(np.abs(np.diff(y.data, axis=a)) - np.abs(np.diff(pred.data, axis=a)))
            for a in (1, 2)
        )
        assert printed < 0
        assert gdl_loss(Tape(), y, pred).data.item() > 0

    def test_too_small_frame(self):
        with pytest.raises(ShapeError, match="H, W >= 2"):
            gdl_loss(Tape(), frame(np.zeros((2, 1, 4, 1))), frame(np.zeros((2, 1, 4, 1))))

    def test_unbatched_frames_rejected(self):
        y = frame(np.zeros((4, 4, 1)))
        with pytest.raises(ShapeError, match=r"\[N, H, W, C\], got rank 3"):
            gdl_loss(Tape(), y, y)


class TestCombinedLoss:
    def test_p2_reduces_to_pure_l2(self):
        rng = np.random.default_rng(4)
        y, p = frame(rng.uniform(size=(4, 4, 1))), frame(rng.uniform(size=(4, 4, 1)))
        spec = LossSpec(p=2)
        assert spec.weight_gdl == 0.0
        tape = Tape()
        assert combined_loss(tape, y, p, spec).data.item() == pytest.approx(
            lp_loss(tape, y, p, 2).data.item(), abs=1e-12
        )

    def test_p1_identical_frames_zero(self):
        y = frame(np.random.default_rng(5).uniform(size=(1, 4, 4, 1)))
        assert combined_loss(Tape(), y, y, LossSpec(p=1)).data.item() == 0.0

    def test_weighted_decomposition(self):
        rng = np.random.default_rng(6)
        y, p = frame(rng.uniform(size=(2, 5, 4, 2))), frame(rng.uniform(size=(2, 5, 4, 2)))
        spec = LossSpec(p=1, weight_p=0.7, weight_gdl=1.3)
        tape = Tape()
        expected = 0.7 * lp_loss(tape, y, p, 1).data.item() + 1.3 * gdl_loss(
            tape, y, p
        ).data.item()
        assert combined_loss(tape, y, p, spec).data.item() == pytest.approx(
            expected, abs=1e-12
        )

    def test_gradient_away_from_kinks(self):
        rng = np.random.default_rng(7)
        y_data = rng.uniform(0.0, 1.0, size=(1, 4, 4, 1))

        def f(tape, params):
            (pred,) = params
            return combined_loss(tape, frame(y_data), pred, LossSpec(p=1))

        # predictions offset from the target by at least 1e-3 elementwise
        offset = np.where(rng.uniform(size=y_data.shape) < 0.5, -1, 1) * rng.uniform(
            0.05, 0.3, size=y_data.shape
        )
        pred = Tensor(y_data + offset, requires_grad=True)
        max_rel, excluded = finite_diff_check(f, [pred])
        assert excluded == []
        assert max_rel < 1e-4

    @given(st.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_nonnegative(self, p):
        rng = np.random.default_rng(p)
        y = frame(rng.uniform(size=(1, 3, 3, 1)))
        pred = frame(rng.uniform(size=(1, 3, 3, 1)))
        assert combined_loss(Tape(), y, pred, LossSpec(p=p)).data.item() >= 0.0


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        p.grad = np.array(1.0)
        params = {"p": p}
        state = AdamState.for_parameters(params, lr=1e-3)
        adam_step(state, params)
        assert p.data.item() == pytest.approx(1.0 - 1e-3, rel=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        params = {"p": p}
        state = AdamState.for_parameters(params)
        adam_step(state, params)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(8)
            p = Tensor(rng.uniform(size=(3, 3)), requires_grad=True)
            params = {"p": p}
            state = AdamState.for_parameters(params, lr=0.01)
            for step in range(20):
                p.grad = np.sin(p.data + step)
                adam_step(state, params)
            return p.data.tobytes()

        assert run() == run()

    def test_non_finite_gradient_changes_nothing(self):
        # the NaN sits in the last parameter's gradient, after the others
        # would already have been updated
        rng = np.random.default_rng(9)
        params = {name: Tensor(rng.uniform(size=(2, 3)), requires_grad=True) for name in "abc"}
        state = AdamState.for_parameters(params)
        for p in params.values():
            p.grad = rng.uniform(-1, 1, size=(2, 3))
        adam_step(state, params)
        for p in params.values():
            p.grad = rng.uniform(-1, 1, size=(2, 3))
        params["c"].grad[1, 2] = np.nan
        before = {
            name: (p.data.copy(), state.m[name].copy(), state.v[name].copy())
            for name, p in params.items()
        }
        with pytest.raises(FloatingPointError, match="'c'"):
            adam_step(state, params)
        assert state.step == 1
        for name, p in params.items():
            data, m, v = before[name]
            np.testing.assert_array_equal(p.data, data)
            np.testing.assert_array_equal(state.m[name], m)
            np.testing.assert_array_equal(state.v[name], v)

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        p.grad = np.array(np.nan)
        params = {"bad_param": p}
        state = AdamState.for_parameters(params)
        with pytest.raises(FloatingPointError, match="bad_param"):
            adam_step(state, params)


class TestLrSchedule:
    def test_paper_values(self):
        assert lr_schedule(0) == pytest.approx(1e-3)
        assert lr_schedule(4) == pytest.approx(1e-3)
        assert lr_schedule(5) == pytest.approx(9.9e-4)
        assert lr_schedule(50) == pytest.approx(1e-3 * 0.99**10)

    def test_non_increasing(self):
        rates = [lr_schedule(e) for e in range(60)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_schedule(-1)


class TestLossSpecDefaults:
    def test_gdl_weight_follows_p(self):
        assert LossSpec(p=1).weight_gdl == 1.0
        assert LossSpec(p=2).weight_gdl == 0.0
        assert LossSpec(p=2, weight_gdl=0.5).weight_gdl == 0.5

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            LossSpec(p=3)

    @pytest.mark.parametrize("name", ["weight_p", "weight_gdl"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_weight_must_be_finite_and_nonnegative(self, name, value):
        # a NaN or infinite weight would make combined_loss return nan
        with pytest.raises(ValueError, match=name):
            LossSpec(p=1, **{name: value})


class TestXavier:
    def test_variance_near_definition(self):
        # 3x3x8x8 kernel: fan_in = fan_out = 72, target variance 1/72
        target = 2.0 / (72 + 72)
        variances = []
        for seed in range(5):
            k = xavier_uniform((3, 3, 8, 8), 72, 72, SplitMix64(seed))
            variances.append(k.var())
        assert abs(np.mean(variances) - target) / target < 0.2

    def test_deterministic_for_seed(self):
        a = xavier_uniform((4, 4), 4, 4, SplitMix64(123))
        b = xavier_uniform((4, 4), 4, 4, SplitMix64(123))
        assert a.tobytes() == b.tobytes()

    def test_bound_respected(self):
        a = xavier_uniform((100,), 10, 10, SplitMix64(9))
        assert np.max(np.abs(a)) <= np.sqrt(6.0 / 20)
