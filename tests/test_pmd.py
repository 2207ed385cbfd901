import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import contextvp.pmd as pmd
from contextvp.model import ModelSpec, build, forward_cuboid
from contextvp.tensor import Tensor, Tape, ShapeError
from contextvp.pmd import (
    DIRECTIONS,
    GATES,
    BlendBlock,
    PMDUnit,
    blend,
    pmd_layer,
    pmd_scan,
)
from oracles import (
    composed_layer,
    composed_scan,
    convlstm_forward,
    pixel_blend,
    pmd_step,
    scalar_lstm_step,
)


def make_unit(k, cin, ch, rng, scale=0.4, grad=False):
    def t(shape):
        return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=grad)

    return PMDUnit(kx=t((k, k, cin, 4 * ch)), ks=t((k, k, ch, 4 * ch)), b=t((4 * ch,)))


def zero_unit(k, cin, ch):
    rng = np.random.default_rng(0)
    return make_unit(k, cin, ch, rng, scale=0.0)


def unit_as_oracle_params(unit):
    """The unit's stacked kx, ks and b split into per-gate dicts keyed by
    gate name, as the oracles take them; this split fixes the gate order."""
    return tuple(
        dict(zip(GATES, np.split(t.data, len(GATES), axis=-1))) for _, t in unit.fields()
    )


class TestPmdStep:
    def test_all_zero_parameters_and_state(self):
        unit = zero_unit(3, 1, 2)
        tape = Tape()
        x = Tensor(np.ones((4, 4, 1)))
        zeros = Tensor(np.zeros((4, 4, 2)))
        c, s = pmd_step(tape, unit, x, zeros, zeros)
        np.testing.assert_array_equal(c.data, 0.0)
        np.testing.assert_array_equal(s.data, 0.0)

    def test_zero_parameters_unit_cell(self):
        # all gates sit at sigmoid(0) = 1/2, candidate at tanh(0) = 0,
        # so c = 1/2 * c_prev and s = 1/2 * tanh(1/2)
        unit = zero_unit(3, 1, 2)
        tape = Tape()
        x = Tensor(np.zeros((4, 4, 1)))
        c_prev = Tensor(np.ones((4, 4, 2)))
        s_prev = Tensor(np.zeros((4, 4, 2)))
        c, s = pmd_step(tape, unit, x, c_prev, s_prev)
        np.testing.assert_allclose(c.data, 0.5)
        np.testing.assert_allclose(s.data, 0.5 * np.tanh(0.5))

    def test_scalar_hand_evaluation(self):
        rng = np.random.default_rng(3)
        unit = make_unit(1, 1, 1, rng, scale=1.0)
        x, cp, sp = rng.uniform(-1, 1, size=3)
        tape = Tape()
        c, s = pmd_step(
            tape, unit,
            Tensor(np.full((1, 1, 1), x)),
            Tensor(np.full((1, 1, 1), cp)),
            Tensor(np.full((1, 1, 1), sp)),
        )
        wx, ws, b = (
            {g: v.item() for g, v in params.items()} for params in unit_as_oracle_params(unit)
        )
        c_ref, s_ref = scalar_lstm_step(x, cp, sp, wx, ws, b)
        assert abs(c.data.item() - c_ref) < 1e-12
        assert abs(s.data.item() - s_ref) < 1e-12

    def test_none_state_equals_zero_state(self):
        rng = np.random.default_rng(4)
        unit = make_unit(3, 2, 3, rng)
        x = Tensor(rng.uniform(0, 1, size=(5, 4, 2)))
        zeros = Tensor(np.zeros((5, 4, 3)))
        tape = Tape()
        c1, s1 = pmd_step(tape, unit, x)
        c2, s2 = pmd_step(tape, unit, x, zeros, zeros)
        np.testing.assert_allclose(c1.data, c2.data, atol=1e-15)
        np.testing.assert_allclose(s1.data, s2.data, atol=1e-15)

    def test_channel_mismatch(self):
        unit = zero_unit(3, 2, 2)
        with pytest.raises(ShapeError, match="channels"):
            pmd_scan(Tape(), unit, Tensor(np.zeros((1, 2, 4, 4, 3))), "t-")


class TestReorient:
    """Moving the scanned axis to the front, reversed for h- and w-, turns
    every directional scan into a t- scan of the reoriented cuboid."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_roundtrip(self, direction):
        rng = np.random.default_rng(5)
        unit = make_unit(3, 2, 2, rng)
        cuboid = rng.uniform(size=(2, 3, 4, 5, 2))
        axis = {"t-": 1, "h-": 2, "h+": 2, "w-": 3, "w+": 3}[direction]
        step = -1 if direction in ("h-", "w-") else 1
        reoriented = np.ascontiguousarray(np.moveaxis(cuboid, axis, 1)[:, ::step])
        via_time = pmd_scan(Tape(), unit, Tensor(reoriented), "t-").data
        got = pmd_scan(Tape(), unit, Tensor(cuboid), direction).data
        np.testing.assert_array_equal(got, np.moveaxis(via_time[:, ::step], 1, axis))

    def test_time_planes_are_frames(self):
        # the t- state at frame t sees frames 0..t and nothing later
        rng = np.random.default_rng(6)
        unit = make_unit(3, 1, 2, rng)
        cuboid = rng.uniform(size=(1, 3, 2, 2, 1))
        full = pmd_scan(Tape(), unit, Tensor(cuboid), "t-").data
        for t in range(3):
            prefix = pmd_scan(Tape(), unit, Tensor(cuboid[:, :t + 1]), "t-").data
            np.testing.assert_array_equal(prefix, full[:, :t + 1])


class TestPmdScan:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_time_scan_is_a_convlstm(self, seed):
        rng = np.random.default_rng(seed)
        unit = make_unit(3, 2, 3, rng)
        frames = rng.uniform(0, 1, size=(4, 5, 6, 2))
        got = pmd_scan(Tape(), unit, Tensor(frames[None]), "t-")
        ref = convlstm_forward(frames, *unit_as_oracle_params(unit))
        np.testing.assert_allclose(got.data[0], ref, atol=1e-12)

    def test_single_plane_equals_step(self):
        rng = np.random.default_rng(8)
        unit = make_unit(3, 1, 2, rng)
        frames = rng.uniform(0, 1, size=(1, 4, 4, 1))
        tape = Tape()
        scanned = pmd_scan(tape, unit, Tensor(frames[None]), "t-")
        _, s = pmd_step(tape, unit, Tensor(frames[0]))
        np.testing.assert_allclose(scanned.data[0, 0], s.data, atol=1e-15)

    @pytest.mark.parametrize("direction", ["w+", "h-"])
    def test_spatial_scan_positions_match_manual_steps(self, direction):
        # w+: position w holds the state after scanning the [T, H, C]
        # planes 0..w; h-: position h holds the state after the [T, W, C]
        # planes H-1 down to h, so the scan starts at the far row
        rng = np.random.default_rng(9)
        unit = make_unit(3, 1, 2, rng)
        frames = rng.uniform(0, 1, size=(2, 3, 4, 1))
        axis = {"w+": 2, "h-": 1}[direction]
        order = range(frames.shape[axis])
        tape = Tape()
        got = pmd_scan(tape, unit, Tensor(frames[None]), direction).data[0]
        c = s = None
        for i in (reversed(order) if direction == "h-" else order):
            c, s = pmd_step(tape, unit, Tensor(np.take(frames, i, axis=axis)), c, s)
            np.testing.assert_allclose(np.take(got, i, axis=axis), s.data, atol=1e-15)

    def test_constant_width_input_converges_to_fixed_point(self):
        rng = np.random.default_rng(10)
        unit = make_unit(3, 1, 2, rng, scale=0.2)
        column = rng.uniform(0, 1, size=(2, 3, 1, 1))
        frames = np.repeat(column, 8, axis=2)
        got = pmd_scan(Tape(), unit, Tensor(frames[None]), "w+").data[0]
        diffs = [
            float(np.max(np.abs(got[:, :, w + 1, :] - got[:, :, w, :])))
            for w in range(7)
        ]
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a + 1e-12
        assert diffs[-1] < diffs[0]


# direction -> the direction whose unit it reuses
ALIAS_PATTERNS = {
    "dws": {"h+": "h-", "w+": "w-"},
    "one-unit": {d: "t-" for d in DIRECTIONS[1:]},
    # one unit on three scan axes: no two of these may share a projection
    "across-axes": {"h-": "t-", "w+": "t-"},
    "none": {},
}


def aliased_units(rng, cin, ch, pattern="dws"):
    """Five direction units, aliased as ALIAS_PATTERNS[pattern] says; by
    default under DWS, where h+ and w+ are the h- and w- units."""
    aliases = ALIAS_PATTERNS[pattern]
    units = {d: make_unit(3, cin, ch, rng, grad=True) for d in DIRECTIONS if d not in aliases}
    units.update((d, units[src]) for d, src in aliases.items())
    return {d: units[d] for d in DIRECTIONS}


def run_with_grads(scan, units, x, weights, recording=True):
    """Forward through `scan(tape, units, x)`, backward from a weighted sum
    of its states. Returns (states, [x grad, then every unit field grad])."""
    for t in [x] + [t for u in units.values() for _, t in u.fields()]:
        t.grad = None
    tape = Tape(recording=recording)
    out = scan(tape, units, x)
    if recording:
        tape.backward(tape.sum(tape.mul(out, Tensor(weights))))
    grads = [x.grad] + [t.grad for u in units.values() for _, t in u.fields()]
    return out.data, [None if g is None else g.copy() for g in grads]


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CUBOIDS = [(1, 3, 4, 5, 2), (2, 3, 4, 5, 2)]  # [N, T, H, W, C] at N = 1 and 2

# one group each: a lone direction and a DWS pair; and DWS's three groups
SPLIT_LAYERS = {
    "lone": lambda rng: {"t-": make_unit(3, 2, 3, rng, grad=True)},
    "pair": lambda rng: dict.fromkeys(("h-", "h+"), make_unit(3, 2, 3, rng, grad=True)),
    "dws": lambda rng: aliased_units(rng, 2, 3),
}


class TestFusedLayer:
    """pmd_layer's single node against the tape-composed scan oracle:
    forward bit for bit, gradients within 1e-12 relative."""

    @pytest.mark.parametrize("shape", CUBOIDS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_scan_matches_composed_oracle(self, direction, shape):
        rng = np.random.default_rng(30)
        units = {direction: make_unit(3, 2, 3, rng, grad=True)}
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        weights = rng.uniform(-1, 1, size=shape[:-1] + (3,))
        fused, fused_grads = run_with_grads(pmd_layer, units, x, weights)
        ref, ref_grads = run_with_grads(composed_layer, units, x, weights)
        np.testing.assert_array_equal(fused, ref)
        np.testing.assert_array_equal(
            fused, pmd_scan(Tape(), units[direction], x, direction).data
        )
        for got, want in zip(fused_grads, ref_grads):
            assert rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize(
        "pattern, shape",
        [
            # DWS, the model's own pattern, is the case without a prefix
            pytest.param(p, shape, id=f"shape{i}" if p == "dws" else f"{p}-shape{i}")
            for p in ALIAS_PATTERNS
            for i, shape in enumerate(CUBOIDS)
        ],
    )
    def test_aliased_layer_matches_composed_oracle(self, pattern, shape):
        rng = np.random.default_rng(31)
        units = aliased_units(rng, 2, 3, pattern)
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        weights = rng.uniform(-1, 1, size=shape[:-1] + (15,))
        fused, fused_grads = run_with_grads(pmd_layer, units, x, weights)
        ref, ref_grads = run_with_grads(composed_layer, units, x, weights)
        np.testing.assert_array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert rel_err(got, want) <= 1e-12

    def test_pooled_forward_equals_calling_thread(self, monkeypatch):
        rng = np.random.default_rng(32)
        for layer in SPLIT_LAYERS:
            for n in (1, 3, 4):  # 3 splits unevenly
                monkeypatch.setattr(pmd, "_THREADS", 2)  # use the pool even on one core
                units = SPLIT_LAYERS[layer](rng)
                shape = (n,) + CUBOIDS[1][1:]
                x = Tensor(rng.uniform(size=shape), requires_grad=True)
                weights = rng.uniform(-1, 1, size=shape[:-1] + (3 * len(units),))
                pooled, pooled_grads = run_with_grads(pmd_layer, units, x, weights)
                if layer == "dws" or n > 1:
                    assert pmd._pool is not None
                calling, _ = run_with_grads(pmd_layer, units, x, weights, recording=False)
                np.testing.assert_array_equal(pooled, calling)
                monkeypatch.setattr(pmd, "_THREADS", 1)
                serial, serial_grads = run_with_grads(pmd_layer, units, x, weights)
                np.testing.assert_array_equal(pooled, serial)
                for got, want in zip(pooled_grads, serial_grads):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layer", SPLIT_LAYERS)
    def test_forward_tasks_handed_to_the_pool(self, monkeypatch, layer):
        # fewer groups than threads: one task per (group, batch slice); a
        # layer whose groups fill the pool keeps one task per group, as
        # splitting its batch as well was measured slower
        monkeypatch.setattr(pmd, "_THREADS", 2)
        rng = np.random.default_rng(35)
        units = SPLIT_LAYERS[layer](rng)
        submitted = []
        with ThreadPoolExecutor(2) as pool:
            submit = pool.submit
            monkeypatch.setattr(pool, "submit", lambda *a: submitted.append(a) or submit(*a))
            monkeypatch.setattr(pmd, "_pool", pool)
            x = Tensor(rng.uniform(size=(4, 3, 4, 5, 2)), requires_grad=True)
            pmd_layer(Tape(recording=False), units, x)  # inference stays in this thread
            assert submitted == []
            pmd_layer(Tape(), units, x)
        if layer == "dws":
            assert len(submitted) == 3
        else:
            assert len(submitted) >= 2

    def test_concurrent_callers_match_calling_thread(self, monkeypatch):
        # six callers, each with its own single-group or DWS layer, share
        # the lazily created pool of two threads, forward and backward
        monkeypatch.setattr(pmd, "_THREADS", 2)
        monkeypatch.setattr(pmd, "_pool", None)
        rng = np.random.default_rng(34)
        shape = CUBOIDS[1]
        calls = []
        for layer in ("lone", "dws") * 3:
            units = SPLIT_LAYERS[layer](rng)
            weights = rng.uniform(-1, 1, size=shape[:-1] + (3 * len(units),))
            calls.append((units, rng.uniform(size=shape), weights))

        def run(units, x, weights, recording=True):
            x = Tensor(x, requires_grad=True)
            return run_with_grads(pmd_layer, units, x, weights, recording)

        want = [run(*call) for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(calls)) as callers:
                futures = [callers.submit(run, *call) for call in calls]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for call, (g_out, g_grads), (w_out, w_grads) in zip(calls, got, want):
            np.testing.assert_array_equal(g_out, w_out)
            np.testing.assert_array_equal(g_out, run(*call, recording=False)[0])
            for a, b in zip(g_grads, w_grads):
                np.testing.assert_array_equal(a, b)

    def test_saturated_gates_without_overflow_warning(self):
        # gate logits of +1000 then -1000; exp(1000) overflows to inf
        unit = zero_unit(1, 1, 1)
        for name, t in unit.fields():
            if name.startswith("kx"):
                t.data[...] = 1000.0
        x = Tensor(np.array([1.0, -1.0]).reshape(1, 2, 1, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pmd_scan(Tape(), unit, x, "t-").data
            ref = composed_scan(Tape(), unit, x, "t-").data
        np.testing.assert_array_equal(got, ref)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("scan", [
        lambda unit, x, d: pmd_layer(Tape(), {d: unit}, x),
        lambda unit, x, d: pmd_scan(Tape(), unit, x, d),
    ], ids=["pmd_layer", "pmd_scan"])
    def test_unknown_direction_rejected(self, scan):
        with pytest.raises(ValueError, match="t\\+"):
            scan(zero_unit(3, 1, 2), Tensor(np.zeros((1, 2, 3, 3, 1))), "t+")

    def test_cuboid_rank_checked(self):
        # [N, T, H, W, C] is the only layout: an unbatched [T, H, W, C]
        # cuboid is rejected like any other rank
        for shape in ((3, 3, 1), (2, 3, 3, 1)):
            with pytest.raises(ShapeError, match=rf"\[N, T, H, W, C\], got rank {len(shape)}"):
                pmd_layer(Tape(), {"t-": zero_unit(3, 1, 2)}, Tensor(np.zeros(shape)))


def make_states(rng, shape=(2, 3, 3, 4)):
    return [Tensor(rng.uniform(-1, 1, size=shape)) for _ in DIRECTIONS]


def concat_states(s_list):
    """The five directional states as pmd_layer returns them."""
    return Tensor(np.concatenate([s.data for s in s_list], axis=-1))


class TestBlending:
    def test_uniform_identity_weights(self):
        rng = np.random.default_rng(11)
        s = Tensor(rng.uniform(size=(2, 3, 3, 4)))
        block = BlendBlock("uniform", Tensor(np.eye(4)), Tensor(np.zeros(4)))
        out = blend(Tape(), concat_states([s] * 5), block)
        np.testing.assert_allclose(out.data, 5 * s.data, atol=1e-12)

    def test_uniform_single_active_direction(self):
        rng = np.random.default_rng(12)
        v = Tensor(rng.uniform(size=(2, 3, 3, 4)))
        zeros = [Tensor(np.zeros((2, 3, 3, 4))) for _ in range(4)]
        block = BlendBlock("uniform", Tensor(np.eye(4)), Tensor(np.zeros(4)))
        out = blend(Tape(), concat_states([v] + zeros), block)
        np.testing.assert_allclose(out.data, v.data, atol=1e-15)

    def test_uniform_matches_pixel_oracle(self):
        rng = np.random.default_rng(13)
        s_list = make_states(rng)
        w = rng.uniform(-1, 1, size=(4, 3))
        b = rng.uniform(-1, 1, size=3)
        block = BlendBlock("uniform", Tensor(w), Tensor(b))
        out = blend(Tape(), concat_states(s_list), block)
        ref = pixel_blend([s.data for s in s_list], w, b, weighted=False)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_weighted_matches_pixel_oracle(self):
        rng = np.random.default_rng(14)
        s_list = make_states(rng)
        w = rng.uniform(-1, 1, size=(20, 3))
        b = rng.uniform(-1, 1, size=3)
        block = BlendBlock("weighted", Tensor(w), Tensor(b))
        out = blend(Tape(), concat_states(s_list), block)
        ref = pixel_blend([s.data for s in s_list], w, b, weighted=True)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_weighted_with_replicated_blocks_reproduces_uniform(self):
        rng = np.random.default_rng(15)
        s_list = make_states(rng)
        v = rng.uniform(-1, 1, size=(4, 3))
        b = rng.uniform(-1, 1, size=3)
        states = concat_states(s_list)
        uniform = blend(Tape(), states, BlendBlock("uniform", Tensor(v), Tensor(b)))
        weighted = blend(
            Tape(), states,
            BlendBlock("weighted", Tensor(np.vstack([v] * 5)), Tensor(b)),
        )
        np.testing.assert_allclose(weighted.data, uniform.data, atol=1e-12)

    def test_weighted_block_sparsity_ignores_spatial(self):
        rng = np.random.default_rng(16)
        s_list = make_states(rng)
        w = np.zeros((20, 3))
        w[:4] = rng.uniform(-1, 1, size=(4, 3))  # only the t- block
        block = BlendBlock("weighted", Tensor(w), Tensor(np.zeros(3)))
        out_full = blend(Tape(), concat_states(s_list), block)
        zeroed = [s_list[0]] + [Tensor(np.zeros_like(s.data)) for s in s_list[1:]]
        out_zeroed = blend(Tape(), concat_states(zeroed), block)
        np.testing.assert_allclose(out_full.data, out_zeroed.data, atol=1e-15)

    def test_mode_mismatch_rejected(self):
        # a weight sized for the other mode: a weighted-sized weight in a
        # uniform block tiles to 5x the state channels, and a uniform-sized
        # one in a weighted block covers a fifth of them
        rng = np.random.default_rng(17)
        states = concat_states(make_states(rng))
        u_block = BlendBlock("uniform", Tensor(np.zeros((20, 4))), Tensor(np.zeros(4)))
        w_block = BlendBlock("weighted", Tensor(np.zeros((5, 4))), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="uniform blend weight"):
            blend(Tape(), states, u_block)
        with pytest.raises(ShapeError, match="weighted blend weight"):
            blend(Tape(), states, w_block)

    def test_output_shape_both_modes(self):
        rng = np.random.default_rng(18)
        states = concat_states(make_states(rng))
        u = blend(
            Tape(), states,
            BlendBlock("uniform", Tensor(rng.uniform(size=(4, 6))), Tensor(np.zeros(6))),
        )
        w = blend(
            Tape(), states,
            BlendBlock("weighted", Tensor(rng.uniform(size=(20, 6))), Tensor(np.zeros(6))),
        )
        assert u.data.shape == (2, 3, 3, 6)
        assert w.data.shape == (2, 3, 3, 6)


def layer_forward(tape, units, cuboid, block):
    return blend(tape, pmd_layer(tape, units, cuboid), block)


def untied_copy_of(tied):
    """A dws=False build of the tied model's spec whose h-/h+ and w-/w+
    groups both hold copies of the tied h and w tensors."""
    spec = ModelSpec(**{**tied.spec.to_dict(), "dws": False})
    untied = build(spec, 0)
    tied_params = tied.parameters
    for name, t in untied.parameters.items():
        layer, group, field = (name.split(".") + [""])[:3]
        if group in ("h-", "h+", "w-", "w+"):
            name = f"{layer}.{group[0]}.{field}"
        t.data[...] = tied_params[name].data
    return untied


class TestDirectionalWeightSharing:
    """Sharing is one PMDUnit object used by two directions: the model's
    direction groups under DWS, or an aliased units dict."""

    def make_layer(self, rng, grad=False):
        return {d: make_unit(3, 1, 2, rng, grad=grad) for d in DIRECTIONS}

    def test_three_unique_parameter_sets(self):
        layer = build(ModelSpec(layers=[(2, 2)], dws=True), 19).layers[0]
        units = layer.units
        assert units["h+"] is units["h-"] and units["w+"] is units["w-"]
        unique = {id(t) for u in units.values() for _, t in u.fields()}
        assert len(unique) == 3 * len(units["t-"].fields())

    def test_perturbing_shared_tensor_changes_both_scans(self):
        rng = np.random.default_rng(20)
        u = make_unit(3, 1, 2, rng)
        units = {"h-": u, "h+": u}
        frames = Tensor(rng.uniform(size=(1, 2, 4, 4, 1)))
        before = {
            d: pmd_scan(Tape(), units[d], frames, d).data for d in ("h-", "h+")
        }
        u.kx.data[0, 0, 0, 0] += 0.5  # the input gate's first kernel tap
        after = {d: pmd_scan(Tape(), units[d], frames, d).data for d in ("h-", "h+")}
        for d in ("h-", "h+"):
            assert np.max(np.abs(after[d] - before[d])) > 1e-6

    def test_tied_gradient_is_sum_of_untied(self):
        rng = np.random.default_rng(21)
        tied = build(ModelSpec(layers=[(2, 2)], dws=True), 21)
        untied = untied_copy_of(tied)
        frames = Tensor(rng.uniform(size=(2, 2, 4, 4, 1)))

        def backward(model):
            tape = Tape()
            out = forward_cuboid(tape, model, frames)
            tape.backward(tape.sum(tape.mul(out, out)))
            return out.data

        np.testing.assert_allclose(backward(tied), backward(untied), atol=1e-12)
        grads = {name: t.grad for name, t in untied.parameters.items()}
        for name, t in tied.parameters.items():
            layer, group, field = (name.split(".") + [""])[:3]
            if group in ("h", "w"):
                want = grads[f"{layer}.{group}-.{field}"] + grads[f"{layer}.{group}+.{field}"]
                np.testing.assert_allclose(t.grad, want, atol=1e-10)

    def test_tie_is_noop_when_already_identical(self):
        # aliasing opposite directions to one unit changes no value when
        # their separate units already hold equal parameters
        rng = np.random.default_rng(22)
        units = self.make_layer(rng)
        for src, dst in (("h-", "h+"), ("w-", "w+")):
            for (_, a), (_, b) in zip(units[src].fields(), units[dst].fields()):
                b.data[...] = a.data
        frames = Tensor(rng.uniform(size=(1, 2, 4, 4, 1)))
        block = BlendBlock("uniform", Tensor(np.eye(2)), Tensor(np.zeros(2)))
        tied = {**units, "h+": units["h-"], "w+": units["w-"]}
        before = layer_forward(Tape(), units, frames, block).data
        after = layer_forward(Tape(), tied, frames, block).data
        np.testing.assert_array_equal(before, after)

    def test_incompatible_shapes_rejected(self):
        # a shared unit is one object, so its own shape check is what keeps
        # every direction that uses it consistent
        rng = np.random.default_rng(23)

        def t(shape):
            return Tensor(rng.uniform(size=shape))

        with pytest.raises(ShapeError, match="ks"):
            PMDUnit(kx=t((3, 3, 1, 8)), ks=t((3, 3, 3, 12)), b=t((8,)))
        with pytest.raises(ShapeError, match="b"):
            PMDUnit(kx=t((3, 3, 1, 8)), ks=t((3, 3, 2, 8)), b=t((2,)))
        with pytest.raises(ShapeError, match="gates"):
            PMDUnit(kx=t((3, 3, 1, 6)), ks=t((3, 3, 1, 6)), b=t((6,)))
