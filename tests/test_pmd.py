import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import contextvp.pmd as pmd
import contextvp.tensor as tensor
from contextvp.model import ModelSpec, build
from contextvp.tensor import Tensor, Tape, ShapeError
from contextvp.pmd import (
    DIRECTIONS,
    GATES,
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
    pixel_projection,
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

# one group each, whose batch a recorded node splits forward: a lone
# direction and a DWS pair; then two groups of one direction, and DWS's
# three groups
POOL_LAYERS = {
    "lone": lambda rng: {"t-": make_unit(3, 2, 3, rng, grad=True)},
    "pair": lambda rng: dict.fromkeys(("h-", "h+"), make_unit(3, 2, 3, rng, grad=True)),
    "two": lambda rng: {d: make_unit(3, 2, 3, rng, grad=True) for d in ("t-", "h-")},
    "dws": lambda rng: aliased_units(rng, 2, 3),
}


def spy_pool(monkeypatch, threads):
    """Install a pool of `threads` threads named spy-* as pmd's shared
    pool. Returns it, the list to which its submit appends the name of
    each submitting thread, and the list of the futures it returned. A
    submit from one of its own threads raises instead: a pool task that
    waits on another can deadlock the pool."""
    monkeypatch.setattr(pmd, "_THREADS", threads)
    pool = ThreadPoolExecutor(threads, thread_name_prefix="spy")
    submitters, futures = [], []
    submit = pool.submit

    def spy(*args):
        name = threading.current_thread().name
        if name.startswith("spy"):
            raise AssertionError(f"pool thread {name} submitted a task")
        submitters.append(name)
        futures.append(submit(*args))
        return futures[-1]

    monkeypatch.setattr(pool, "submit", spy)
    monkeypatch.setattr(pmd, "_pool", pool)
    return pool, submitters, futures


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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("layer", ["h-", "w-", "dws-pair"])
    def test_kernel_sizes_match_composed_oracle(self, layer, k, n):
        # reversed lone directions and a DWS pair, whose kernel gradients
        # are summed per plane, at kernels other than the model's 3
        rng = np.random.default_rng(37)
        if layer == "dws-pair":
            units = dict.fromkeys(("w-", "w+"), make_unit(k, 2, 3, rng, grad=True))
        else:
            units = {layer: make_unit(k, 2, 3, rng, grad=True)}
        shape = (n, 3, 4, 5, 2)
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        weights = rng.uniform(-1, 1, size=shape[:-1] + (3 * len(units),))
        fused, fused_grads = run_with_grads(pmd_layer, units, x, weights)
        ref, ref_grads = run_with_grads(composed_layer, units, x, weights)
        np.testing.assert_array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize("layer", ["lone", "dws"])
    def test_backward_patch_rows_span_one_plane(self, monkeypatch, layer):
        # the kernel gradients are summed plane by plane, so a recorded
        # layer's backward builds every patch-row buffer for one plane of
        # the batch, never for the whole layer
        monkeypatch.setattr(pmd, "_THREADS", 1)
        rng = np.random.default_rng(38)
        units = POOL_LAYERS[layer](rng)
        n, t, h, w, _ = shape = (2, 3, 4, 5, 2)
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        tape = Tape()
        out = pmd_layer(tape, units, x)
        built = []
        real = tensor.PatchRows

        def spy(shape, kh, kw):
            built.append(tuple(shape[:-1]))
            return real(shape, kh, kw)

        monkeypatch.setattr(tensor, "PatchRows", spy)
        monkeypatch.setattr(pmd, "PatchRows", spy)
        tape.backward(tape.sum(out))
        assert built and set(built) <= {(n, h, w), (n, t, w), (n, t, h)}

    def test_input_grad_lowers_each_group_whole(self, monkeypatch):
        # every group of a DWS layer, the lone t- and each pair, lowers its
        # whole pre-activation gradient (a pair's sum) in one call; BPTT's
        # state gradients are one plane without the leading plane axis
        monkeypatch.setattr(pmd, "_THREADS", 1)
        rng = np.random.default_rng(40)
        units = POOL_LAYERS["dws"](rng)
        n, t, h, w, _ = shape = (2, 3, 4, 5, 2)
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        tape = Tape()
        out = pmd_layer(tape, units, x)
        built = []
        real = pmd.InputGrad

        def spy(shape, kd):
            built.append(tuple(shape[:-1]))
            return real(shape, kd)

        monkeypatch.setattr(pmd, "InputGrad", spy)
        tape.backward(tape.sum(out))
        state_grads = {(n, h, w), (n, t, w), (n, t, h)}
        assert set(built) == state_grads | {(t, n, h, w), (h, n, t, w), (w, n, t, h)}

    @pytest.mark.parametrize("layer", ["lone", "dws"])
    def test_recorded_node_holds_only_states_and_gate_activations(self, monkeypatch, layer):
        # the cells are rebuilt from the gate activations in the backward,
        # so a recorded node keeps 4Ch values per position and direction
        # beside its output. One direction's cells are 128 KiB here; the
        # slack covers the node's Python objects, about 10 KiB under DWS
        monkeypatch.setattr(pmd, "_THREADS", 1)
        rng = np.random.default_rng(41)
        ch = 8
        units = (
            {"t-": make_unit(3, 2, ch, rng, grad=True)} if layer == "lone"
            else aliased_units(rng, 2, ch)
        )
        x = Tensor(rng.uniform(size=(2, 4, 16, 16, 2)), requires_grad=True)
        positions = np.prod(x.shape[:-1])
        tape = Tape()
        tracemalloc.start()
        try:
            out = pmd_layer(tape, units, x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        acts = len(units) * positions * 4 * ch * 8
        assert 0 <= held - (out.data.nbytes + acts) < 32 * 1024

    @pytest.mark.parametrize("layer", ["dws", "frozen-pair"])
    def test_backward_holds_one_pre_activation_buffer_per_group(self, monkeypatch, layer):
        # a pair's second direction adds its planes into the first's
        # pre-activation gradients, so a group holds one [L, *plane, 4Ch]
        # buffer, also when its unit needs no gradient. At one thread the
        # groups run one after another, so the node's backward allocates
        # one buffer, one direction's rebuilt cells (a quarter buffer) and
        # per-plane buffers, patch rows and the input gradient, which the
        # slack of half a buffer covers; two buffers per pair exceed it
        monkeypatch.setattr(pmd, "_THREADS", 1)
        rng = np.random.default_rng(42)
        ch = 8
        units = (
            aliased_units(rng, 2, ch) if layer == "dws"
            else dict.fromkeys(("h-", "h+"), make_unit(3, 2, ch, rng))
        )
        x = Tensor(rng.uniform(size=(1, 8, 32, 32, 2)), requires_grad=True)
        tape = Tape()
        out = pmd_layer(tape, units, x)
        node = tape.nodes[-1]
        real, rise = node.backward_fn, []

        def measured(g):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = real(g)
            rise.append(tracemalloc.get_traced_memory()[1] - held)
            return grads

        node.backward_fn = measured
        loss = tape.sum(out)
        tracemalloc.start()
        try:
            tape.backward(loss)
        finally:
            tracemalloc.stop()
        buffer = np.prod(x.shape[:-1]) * 4 * ch * 8
        assert rise and rise[0] < buffer * (1 + 0.25 + 0.5)

    def test_pair_without_parameter_gradients(self, monkeypatch):
        # a pair whose shared unit needs no gradient still gives the input
        # gradient, bit for bit that of the same unit needing gradients,
        # and its backward builds no patch rows for a ks gradient
        rng = np.random.default_rng(43)
        unit = make_unit(3, 2, 3, rng, grad=True)
        frozen = PMDUnit(*(Tensor(t.data) for _, t in unit.fields()))
        shape = (2, 3, 4, 5, 2)
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        weights = rng.uniform(-1, 1, size=shape[:-1] + (6,))
        _, want = run_with_grads(pmd_layer, dict.fromkeys(("w-", "w+"), unit), x, weights)
        x.grad = None
        tape = Tape()
        out = pmd_layer(tape, dict.fromkeys(("w-", "w+"), frozen), x)
        built = []
        real = tensor.PatchRows

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(tensor, "PatchRows", spy)
        monkeypatch.setattr(pmd, "PatchRows", spy)
        tape.backward(tape.sum(tape.mul(out, Tensor(weights))))
        assert built == []
        np.testing.assert_array_equal(x.grad, want[0])

    def test_pooled_forward_equals_calling_thread(self, monkeypatch):
        rng = np.random.default_rng(32)
        for layer in POOL_LAYERS:
            for n in (1, 3, 4):  # 3 splits unevenly
                monkeypatch.setattr(pmd, "_THREADS", 2)  # use the pool even on one core
                units = POOL_LAYERS[layer](rng)
                shape = (n,) + CUBOIDS[1][1:]
                x = Tensor(rng.uniform(size=shape), requires_grad=True)
                weights = rng.uniform(-1, 1, size=shape[:-1] + (3 * len(units),))
                pooled, pooled_grads = run_with_grads(pmd_layer, units, x, weights)
                calling, _ = run_with_grads(pmd_layer, units, x, weights, recording=False)
                np.testing.assert_array_equal(pooled, calling)
                monkeypatch.setattr(pmd, "_THREADS", 1)
                serial, serial_grads = run_with_grads(pmd_layer, units, x, weights)
                np.testing.assert_array_equal(pooled, serial)
                for got, want in zip(pooled_grads, serial_grads):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layer", POOL_LAYERS)
    def test_forward_tasks_handed_to_the_pool(self, monkeypatch, layer):
        # a one-group node: one task per batch slice; any other node keeps
        # one task per group, however many threads there are, as splitting
        # a DWS layer's batch as well was measured slower. The calling
        # thread runs the last task itself when the pool has a thread for
        # each of the others: one of two slices, one of the two groups on
        # four threads, none of DWS's three groups on two
        rng = np.random.default_rng(35)
        units = POOL_LAYERS[layer](rng)
        pool, submitted, _ = spy_pool(monkeypatch, 4 if layer == "two" else 2)
        with pool:
            x = Tensor(rng.uniform(size=(4, 3, 4, 5, 2)), requires_grad=True)
            pmd_layer(Tape(recording=False), units, x)  # inference stays in this thread
            assert submitted == []
            pmd_layer(Tape(), units, x)
        assert len(submitted) == {"lone": 1, "pair": 1, "two": 1, "dws": 3}[layer]

    @pytest.mark.parametrize("layer", POOL_LAYERS)
    def test_backward_tasks_handed_to_the_pool(self, monkeypatch, layer):
        # the critical phase: whole-batch BPTT per group, one task per
        # group as forward; a one-group node then takes its input gradient
        # per batch slice, one of the two slices on the pool. Then one
        # deferred task per group takes its parameter gradients. Only the
        # calling thread hands the pool work (spy_pool raises otherwise),
        # and every future it handed over has finished when backward
        # returns
        rng = np.random.default_rng(36)
        units = POOL_LAYERS[layer](rng)
        pool, submitted, futures = spy_pool(monkeypatch, 4 if layer == "two" else 2)
        with pool:
            x = Tensor(rng.uniform(size=(4, 3, 4, 5, 2)), requires_grad=True)
            tape = Tape()
            out = pmd_layer(tape, units, x)
            forward = len(submitted)
            tape.backward(tape.sum(out))
            assert all(f.done() for f in futures)
        deferred = {"lone": 1, "pair": 1, "two": 2, "dws": 3}[layer]
        critical = {"lone": 1, "pair": 1, "two": 1, "dws": 3}[layer]
        assert len(submitted) - forward == critical + deferred

    def test_concurrent_callers_match_calling_thread(self, monkeypatch):
        # six callers, each with its own one-group, two-group or DWS layer,
        # share a pool of two, then four threads, forward and backward
        rng = np.random.default_rng(34)
        shape = CUBOIDS[1]
        calls = []
        for layer in ("lone", "two", "dws") * 2:
            units = POOL_LAYERS[layer](rng)
            weights = rng.uniform(-1, 1, size=shape[:-1] + (3 * len(units),))
            calls.append((units, rng.uniform(size=shape), weights))

        def run(units, x, weights, recording=True):
            x = Tensor(x, requires_grad=True)
            return run_with_grads(pmd_layer, units, x, weights, recording)

        for threads in (2, 4):
            monkeypatch.setattr(pmd, "_THREADS", threads)
            with ThreadPoolExecutor(threads, thread_name_prefix="pmd") as pool:
                monkeypatch.setattr(pmd, "_pool", pool)
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


def scanned(rng, shape=(1, 2, 3, 4, 2), ch=4):
    """Five untied direction units of Ch = 4 over a cuboid, as `blend`
    takes them (20 state channels), and the states `pmd_layer` gives."""
    units = {d: make_unit(3, shape[-1], ch, rng) for d in DIRECTIONS}
    x = Tensor(rng.uniform(size=shape))
    return units, x, pmd_layer(Tape(), units, x).data


def frozen_dws(rng):
    """DWS units, aliased as `aliased_units` makes them, needing no gradient."""
    units = aliased_units(rng, 2, 3)
    frozen = {id(u): PMDUnit(*(Tensor(t.data) for _, t in u.fields())) for u in units.values()}
    return {d: frozen[id(u)] for d, u in units.items()}


# POOL_LAYERS, and one whose blend alone needs gradients: the node still
# rebuilds the states for the weight gradient
BLEND_LAYERS = {**POOL_LAYERS, "frozen-scan": frozen_dws}


class TestBlending:
    """`blend` records a layer's scans and its 1x1 projection as one node."""

    def test_weighted_matches_pixel_oracle(self):
        rng = np.random.default_rng(14)
        units, x, states = scanned(rng)
        w = rng.uniform(-1, 1, size=(20, 3))
        b = rng.uniform(-1, 1, size=3)
        out = blend(Tape(), units, x, Tensor(w[None, None]), Tensor(b))
        ref = pixel_blend(np.split(states[0], len(DIRECTIONS), axis=-1), w, b)
        np.testing.assert_allclose(out.data[0], ref, atol=1e-12)

    def test_weighted_with_replicated_blocks_reproduces_uniform(self):
        # one block repeated for all five directions projects the sum of
        # the directional states, which is what uniform blending meant
        rng = np.random.default_rng(15)
        units, x, states = scanned(rng)
        v = rng.uniform(-1, 1, size=(4, 3))
        b = rng.uniform(-1, 1, size=3)
        uniform = sum(np.split(states, len(DIRECTIONS), axis=-1)) @ v + b
        weighted = blend(Tape(), units, x, Tensor(np.vstack([v] * 5)[None, None]), Tensor(b))
        np.testing.assert_allclose(weighted.data, uniform, atol=1e-12)

    def test_weighted_block_sparsity_ignores_spatial(self):
        # a weight whose spatial rows are zero blends as the t- scan alone
        rng = np.random.default_rng(16)
        units, x, _ = scanned(rng)
        w = np.zeros((20, 3))
        w[:4] = rng.uniform(-1, 1, size=(4, 3))  # only the t- block
        bias = Tensor(np.zeros(3))
        out_full = blend(Tape(), units, x, Tensor(w[None, None]), bias)
        out_time = blend(Tape(), {"t-": units["t-"]}, x, Tensor(w[None, None, :4]), bias)
        np.testing.assert_allclose(out_full.data, out_time.data, atol=1e-15)

    def test_mode_mismatch_rejected(self):
        # the 20 state channels take a weight of 20 rows; any other row
        # count raises: 4, a fifth as many, and 5 * 20 = 100 too
        units, x, _ = scanned(np.random.default_rng(17))
        for rows in (1, 4, 5, 8, 19, 21, 100):
            with pytest.raises(ShapeError, match=f"{rows} rows, states have 20 channels"):
                blend(Tape(), units, x, Tensor(np.zeros((1, 1, rows, 4))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 3, 4, 3)], ids=["matrix", "3x3"])
    def test_weight_must_be_a_1x1_kernel(self, shape):
        units, x, _ = scanned(np.random.default_rng(19))
        with pytest.raises(ShapeError, match="1x1 kernel"):
            blend(Tape(), units, x, Tensor(np.zeros(shape)), Tensor(np.zeros(3)))

    def test_bias_must_match_weight_columns(self):
        units, x, _ = scanned(np.random.default_rng(19))
        with pytest.raises(ShapeError, match="bias shape"):
            blend(Tape(), units, x, Tensor(np.zeros((1, 1, 20, 3))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("layer", BLEND_LAYERS)
    def test_equals_conv2d_of_the_scan_node_bit_for_bit(self, monkeypatch, layer, threads):
        # the node rebuilds the states in its BPTT for the weight gradient
        # and the ks gradients: the same bits as the two-node chain, also
        # on a second backward of the same tape
        monkeypatch.setattr(pmd, "_THREADS", threads)
        rng = np.random.default_rng(44)
        units = BLEND_LAYERS[layer](rng)
        width = sum(u.hidden for u in units.values())
        shape = (3, 3, 4, 5, 2)
        x = Tensor(rng.uniform(size=shape), requires_grad=layer != "frozen-scan")
        weight = Tensor(rng.uniform(-1, 1, size=(1, 1, width, 3)), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)
        mix = Tensor(rng.uniform(-1, 1, size=shape[:-1] + (3,)))
        tensors = [x, weight, bias] + [t for u in units.values() for _, t in u.fields()]

        def run(layer_fn, repeats=1):
            tape = Tape()
            out = layer_fn(tape)
            loss = tape.sum(tape.mul(out, mix))
            for _ in range(repeats):
                tape.backward(loss)
            return [out.data] + [None if t.grad is None else t.grad.copy() for t in tensors]

        fused = run(lambda tape: blend(tape, units, x, weight, bias), repeats=2)
        chained = run(lambda tape: tape.conv2d(pmd_layer(tape, units, x), weight, bias))
        assert fused[1 + 1] is not None  # the weight gradient
        for got, want in zip(fused, chained):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_gradients_match_composed_oracle(self):
        rng = np.random.default_rng(45)
        units = aliased_units(rng, 2, 3)
        shape = (2, 3, 4, 5, 2)
        x = Tensor(rng.uniform(size=shape), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, size=(1, 1, 15, 4)), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
        weights = rng.uniform(-1, 1, size=shape[:-1] + (4,))
        fused, fused_grads = run_with_grads(
            lambda tape, u, c: blend(tape, u, c, weight, bias), units, x, weights)
        fused_grads += [weight.grad.copy(), bias.grad.copy()]
        ref, ref_grads = run_with_grads(
            lambda tape, u, c: pixel_projection(tape, composed_layer(tape, u, c), weight, bias),
            units, x, weights)
        ref_grads += [weight.grad, bias.grad]
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        for got, want in zip(fused_grads, ref_grads):
            assert rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize("layer", ["lone", "dws"])
    def test_recorded_node_holds_gate_activations_and_its_output(self, monkeypatch, layer):
        # the node keeps no states: 4Ch values per position and direction
        # beside its [N, T, H, W, N2] output, whatever the states' width.
        # One direction's states are 128 KiB here; the slack covers the
        # node's Python objects, about 10 KiB under DWS
        monkeypatch.setattr(pmd, "_THREADS", 1)
        rng = np.random.default_rng(46)
        ch = 8
        units = (
            {"t-": make_unit(3, 2, ch, rng, grad=True)} if layer == "lone"
            else aliased_units(rng, 2, ch)
        )
        x = Tensor(rng.uniform(size=(2, 4, 16, 16, 2)), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, size=(1, 1, len(units) * ch, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        positions = np.prod(x.shape[:-1])
        tape = Tape()
        tracemalloc.start()
        try:
            out = blend(tape, units, x, weight, bias)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        acts = len(units) * positions * 4 * ch * 8
        assert out.data.nbytes == positions * 2 * 8
        assert 0 <= held - (out.data.nbytes + acts) < 32 * 1024


def untied_copy_of(units):
    """One unit per direction, each holding copies of the tensors of the
    unit that direction uses in `units`."""
    return {
        d: PMDUnit(*(Tensor(t.data.copy(), requires_grad=True) for _, t in u.fields()))
        for d, u in units.items()
    }


class TestDirectionalWeightSharing:
    """Sharing is one PMDUnit object used by two directions: the model's
    direction groups under DWS, or an aliased units dict."""

    def make_layer(self, rng, grad=False):
        return {d: make_unit(3, 1, 2, rng, grad=grad) for d in DIRECTIONS}

    def test_three_unique_parameter_sets(self):
        layer = build(ModelSpec(layers=[(2, 2)]), 19).layers[0]
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
        tied = aliased_units(rng, 1, 2)
        untied = untied_copy_of(tied)
        frames = Tensor(rng.uniform(size=(2, 2, 4, 4, 1)), requires_grad=True)
        weights = rng.uniform(-1, 1, size=(2, 2, 4, 4, 10))
        tied_out, tied_grads = run_with_grads(pmd_layer, tied, frames, weights)
        untied_out, untied_grads = run_with_grads(pmd_layer, untied, frames, weights)
        np.testing.assert_allclose(tied_out, untied_out, atol=1e-12)
        np.testing.assert_allclose(tied_grads[0], untied_grads[0], atol=1e-12)
        for src, dst in (("h-", "h+"), ("w-", "w+")):
            shared, a, b = (u.fields() for u in (tied[src], untied[src], untied[dst]))
            for (_, t), (_, ta), (_, tb) in zip(shared, a, b):
                np.testing.assert_allclose(t.grad, ta.grad + tb.grad, atol=1e-10)

    def test_tie_is_noop_when_already_identical(self):
        # aliasing opposite directions to one unit changes no value when
        # their separate units already hold equal parameters
        rng = np.random.default_rng(22)
        units = self.make_layer(rng)
        for src, dst in (("h-", "h+"), ("w-", "w+")):
            for (_, a), (_, b) in zip(units[src].fields(), units[dst].fields()):
                b.data[...] = a.data
        frames = Tensor(rng.uniform(size=(1, 2, 4, 4, 1)))
        pair = (Tensor(np.vstack([np.eye(2)] * 5)[None, None]), Tensor(np.zeros(2)))
        tied = {**units, "h+": units["h-"], "w+": units["w-"]}
        before = blend(Tape(), units, frames, *pair).data
        after = blend(Tape(), tied, frames, *pair).data
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
        # a non-square or rank-3 kx failed only later, inside a scan or unpacking
        with pytest.raises(ShapeError, match=r"kx.*\[k, k, Cin, 4Ch\]"):
            PMDUnit(kx=t((3, 5, 1, 4)), ks=t((3, 3, 1, 4)), b=t((4,)))
        with pytest.raises(ShapeError, match=r"kx.*\[k, k, Cin, 4Ch\]"):
            PMDUnit(kx=t((3, 3, 4)), ks=t((3, 3, 1, 4)), b=t((4,)))
