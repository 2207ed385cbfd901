"""Recurrent plane-scan units, the fused directional scan node, and
context blending.

A scan unit is an LSTM whose gate transforms are same-padded 2-D
convolutions within a plane. Scanning a [T, H, W, C] cuboid along one of
five directions (t-, h-, h+, w-, w+) emits a hidden-state cuboid of the
same spatial-temporal extent; the plane perpendicular to the scan axis is
what the convolutions see, so spatial scans mix time and the remaining
spatial axis.

A unit stores its four gates stacked on the output-channel axis in GATES
order (in, forget, out, cell), the layout of Appleyard et al. 2016
(arXiv:1604.01946): an input kernel kx [k, k, Cin, 4Ch], a state kernel
ks [k, k, Ch, 4Ch] and a bias b [4Ch], gate j owning output channels
[j*Ch, (j+1)*Ch). A plane step is then one input and one state matmul,
and the scan node reads and writes these arrays as stored. Directions
share parameters by sharing one PMDUnit object, as the model's
direction groups do under directional weight sharing (DWS).

`pmd_layer` records a layer's scans as one tape node. Its forward runs
each direction's recurrence plane by plane in plain numpy, with the float
operations of the tape-composed step (conv2d, gate slices, sigmoid, tanh,
mul, add), so its values are bit-identical to that chain. It returns the
directions' states concatenated on the channel axis in DIRECTIONS order;
the time-only ConvLSTM baseline uses the same node with only t-. Its
hand-written backward runs BPTT per direction, then computes that
direction's kernel, bias and input gradients in one pass over all planes
(one matmul each, after Appleyard et al. 2016, arXiv:1604.01946), and
sums the directions' input gradients in DIRECTIONS order. Units aliased
between directions (DWS) get one contribution per direction, in that
order.

The directions are independent given the layer input, so they can run
concurrently, as in PyraMiD-LSTM (Stollenga et al. 2015,
arXiv:1506.07452). A recorded node (the tape records and some input needs
a gradient) runs its directions' forward and backward on a module-level
pool of min(len(DIRECTIONS), usable cores) threads, created on first use;
numpy releases the interpreter lock inside its array loops and BLAS
calls. An unrecorded node, as in inference, runs them in the calling
thread: at batch 1 the pool gave no speed-up and raised peak memory.
Each direction's arithmetic does not depend on the thread that runs it,
and the results are combined in a fixed order, so values and gradients
are bit-identical with and without the pool.

Blending projects the concatenated states pointwise with a 1x1
convolution: weighted mode with its [5*N1, N2] weight, uniform mode with
its [N1, N2] weight tiled five times along rows, which equals summing the
five directions and projecting.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from contextvp.tensor import PatchRows, ShapeError, Tape, Tensor, conv_input_grad, im2col

DIRECTIONS = ("t-", "h-", "h+", "w-", "w+")
GATES = ("in", "forget", "out", "cell")

# direction -> (cuboid axis scanned, planes visited in decreasing order)
_SCAN = {
    "t-": (0, False),
    "h+": (1, False),
    "h-": (1, True),
    "w+": (2, False),
    "w-": (2, True),
}

BLEND_MODES = ("uniform", "weighted")

# threads a recorded pmd_layer node spreads its directions over
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_THREADS = min(len(DIRECTIONS), _CORES or 1)
_pool = None
_pool_lock = threading.Lock()


@dataclass
class PMDUnit:
    """Parameter bundle for one recurrence direction, gates stacked on the
    last axis in GATES order: kx [k, k, Cin, 4Ch], ks [k, k, Ch, 4Ch],
    b [4Ch]."""

    kx: Tensor
    ks: Tensor
    b: Tensor

    def __post_init__(self):
        k, _, _, stacked = self.kx.shape
        if k % 2 == 0:
            raise ShapeError(f"kernel size must be odd, got {k}")
        if stacked % len(GATES) != 0:
            raise ShapeError(f"kx: {stacked} output channels are not {len(GATES)} equal gates")
        ch = stacked // len(GATES)
        for name, t, want in (("ks", self.ks, (k, k, ch, stacked)), ("b", self.b, (stacked,))):
            if t.shape != want:
                raise ShapeError(f"{name}: shape {t.shape}, expected {want}")

    def fields(self):
        return [("kx", self.kx), ("ks", self.ks), ("b", self.b)]

    @property
    def kernel_size(self):
        return self.kx.shape[0]

    @property
    def in_channels(self):
        return self.kx.shape[2]

    @property
    def hidden(self):
        return self.kx.shape[3] // len(GATES)


@dataclass
class BlendBlock:
    """Pointwise combiner of the five directional state cuboids.

    weight is [N1, N2] in uniform mode and [5*N1, N2] in weighted mode;
    bias is [N2]. `activation` defaults to identity; `layer_norm`
    normalizes the pre-activation over channels and is off by default.
    """

    mode: str
    weight: Tensor
    bias: Tensor
    activation: str = "identity"
    layer_norm: bool = False

    def __post_init__(self):
        if self.mode not in BLEND_MODES:
            raise ValueError(f"blend mode {self.mode!r} not in {BLEND_MODES}")
        if self.weight.data.ndim != 2:
            raise ShapeError("blend weight must be a matrix")
        if self.mode == "weighted" and self.weight.shape[0] % len(DIRECTIONS) != 0:
            raise ShapeError(
                f"weighted blend weight first extent {self.weight.shape[0]} "
                f"is not a multiple of {len(DIRECTIONS)}"
            )
        if self.bias.shape != (self.weight.shape[1],):
            raise ShapeError(
                f"blend bias shape {self.bias.shape} != ({self.weight.shape[1]},)"
            )


def _scan_layout(cuboid: Tensor, direction: str):
    if direction not in _SCAN:
        raise ValueError(f"direction {direction!r} not in {DIRECTIONS}")
    rank = cuboid.data.ndim
    if rank not in (4, 5):
        raise ShapeError(f"cuboid must be [T,H,W,C] or [N,T,H,W,C], got rank {rank}")
    axis, reverse = _SCAN[direction]
    axis += rank - 4  # leading batch axis, if any
    order = range(cuboid.data.shape[axis])
    if reverse:
        order = reversed(order)
    return axis, reverse, list(order)


class _Sweep:
    """One direction's recurrence over a layer input, in plain numpy.

    Arrays shaped like the cuboid are viewed plane-first, [L, *plane, C],
    with the scanned axis moved to the front; plane i is the cuboid's
    i-th slice along that axis, whatever the scan order.
    """

    def __init__(self, direction: str, unit: PMDUnit, cuboid: Tensor, offset: int):
        self.axis, self.reverse, self.order = _scan_layout(cuboid, direction)
        self.need_params = any(t.requires_grad for _, t in unit.fields())
        self.k = unit.kernel_size
        self.ch = unit.hidden
        self.span = slice(offset, offset + self.ch)
        self.kx, self.ks, self.b = unit.kx.data, unit.ks.data, unit.b.data
        self.acts = self.cells = None

    def planes(self, a: np.ndarray) -> np.ndarray:
        return np.moveaxis(a, self.axis, 0)

    def forward(self, x: np.ndarray, out: np.ndarray, keep: bool) -> None:
        """Write this direction's states into its channels of `out`. With
        `keep`, also store the gate activations and cells for backward.
        The convolutions are Tape.conv2d's float operations."""
        ch, k = self.ch, self.k
        xs, states = self.planes(x), self.planes(out[..., self.span])
        x_rows = PatchRows(xs.shape[1:], k, k)
        s_rows = PatchRows(states.shape[1:], k, k)
        kx, ks = self.kx.reshape(-1, 4 * ch), self.ks.reshape(-1, 4 * ch)
        pre_shape = states.shape[1:-1] + (4 * ch,)
        if keep:
            self.acts = np.empty(states.shape[:-1] + (4 * ch,))
            self.cells = np.empty(states.shape)
        c = s = None
        for i in self.order:
            pre = (x_rows(xs[i]) @ kx).reshape(pre_shape) + self.b
            if s is not None:
                pre = pre + (s_rows(s) @ ks).reshape(pre_shape)
            with np.errstate(over="ignore"):  # exp(710+) = inf gives exactly 0
                gates = 1.0 / (1.0 + np.exp(-pre[..., :3 * ch]))
            cand = np.tanh(np.ascontiguousarray(pre[..., 3 * ch:]))
            gate_in, gate_forget, gate_out = gates[..., :ch], gates[..., ch:2 * ch], gates[..., 2 * ch:]
            c = gate_in * cand if c is None else gate_forget * c + gate_in * cand
            s = gate_out * np.tanh(c)
            states[i] = s
            if keep:
                self.acts[i, ..., :3 * ch] = gates
                self.acts[i, ..., 3 * ch:] = cand
                self.cells[i] = c

    def backward(self, x, out, g, need_x: bool):
        """BPTT over the planes in reverse scan order, then the kernel, bias
        and input gradients in one pass over all planes. Returns
        (gkx, gks, gb, gx): gate-stacked kernel and bias gradients (None
        when the unit needs none) and the plane-first input gradient (None
        unless `need_x`)."""
        ch, k = self.ch, self.k
        states, gs = self.planes(out[..., self.span]), self.planes(g[..., self.span])
        acts, cells = self.acts, self.cells
        dpre = np.empty(acts.shape)
        ds = dc = None
        for q in reversed(range(len(self.order))):
            i = self.order[q]
            gate_in, gate_forget, gate_out, cand = (
                acts[i, ..., j * ch:(j + 1) * ch] for j in range(4)
            )
            tc = np.tanh(cells[i])
            d_s = gs[i] if ds is None else gs[i] + ds
            d_c = d_s * gate_out * (1.0 - tc * tc)
            if dc is not None:
                d_c = d_c + dc
            d = dpre[i]
            d[..., :ch] = d_c * cand * gate_in * (1.0 - gate_in)
            d[..., 2 * ch:3 * ch] = d_s * tc * gate_out * (1.0 - gate_out)
            d[..., 3 * ch:] = d_c * gate_in * (1.0 - cand * cand)
            if q == 0:  # the first plane starts from zero cell and state
                d[..., ch:2 * ch] = 0.0
            else:
                c_prev = cells[self.order[q - 1]]
                d[..., ch:2 * ch] = d_c * c_prev * gate_forget * (1.0 - gate_forget)
                dc = d_c * gate_forget
                ds = conv_input_grad(d, self.ks)

        gkx = gks = gb = gx = None
        if self.need_params:
            rows = dpre.reshape(-1, 4 * ch)
            gkx = (im2col(self.planes(x), k, k).T @ rows).reshape(self.kx.shape)
            # plane i saw the state of the plane before it in scan order
            seen, fed = (slice(None, -1), slice(1, None))
            if self.reverse:
                seen, fed = fed, seen
            gks = (im2col(states[seen], k, k).T @ dpre[fed].reshape(-1, 4 * ch)).reshape(
                self.ks.shape
            )
            gb = rows.sum(axis=0)
        if need_x:
            gx = conv_input_grad(dpre, self.kx)
        return gkx, gks, gb, gx


def _map(fn, items, parallel: bool) -> list:
    """[fn(item) for item in items], on the shared thread pool when
    `parallel` and more than one of its threads would get work."""
    global _pool
    if not parallel or min(len(items), _THREADS) < 2:
        return [fn(item) for item in items]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="pmd")
    futures = [_pool.submit(fn, item) for item in items]
    return [f.result() for f in futures]


def pmd_layer(tape: Tape, units: dict, cuboid: Tensor) -> Tensor:
    """Scan the cuboid along every direction in `units` (direction ->
    PMDUnit; aliased units share parameters) as one tape node.

    States start at zero (no prior). Returns the hidden states at every
    position, concatenated on the channel axis in DIRECTIONS order:
    [T, H, W, sum of Ch] or [N, T, H, W, sum of Ch].
    """
    directions = [d for d in DIRECTIONS if d in units]
    if not directions or len(directions) != len(units):
        raise ValueError(f"directions {sorted(units)} not a non-empty subset of {DIRECTIONS}")
    cin = cuboid.data.shape[-1]
    for d in directions:
        if units[d].in_channels != cin:
            raise ShapeError(
                f"cuboid has {cin} channels, {d} unit expects {units[d].in_channels}"
            )
    offsets = np.cumsum([0] + [units[d].hidden for d in directions])
    sweeps = [_Sweep(d, units[d], cuboid, off) for d, off in zip(directions, offsets)]
    inputs = (cuboid,) + tuple(t for d in directions for _, t in units[d].fields())
    keep = tape.recording and any(t.requires_grad for t in inputs)
    x = cuboid.data
    out = np.empty(x.shape[:-1] + (int(offsets[-1]),))
    _map(lambda sw: sw.forward(x, out, keep), sweeps, parallel=keep)

    def backward(g):
        need_x = cuboid.requires_grad
        grads = _map(lambda sw: sw.backward(x, out, g, need_x), sweeps, parallel=True)
        gx = None
        if need_x:
            gx = np.zeros(x.shape)
            for sw, (*_, gx_dir) in zip(sweeps, grads):
                gx += np.moveaxis(gx_dir, 0, sw.axis)
        return [gx] + [grad for *params, _ in grads for grad in params]

    return tape.record("pmd_layer", inputs, out, backward)


def pmd_scan(tape: Tape, unit: PMDUnit, cuboid: Tensor, direction: str) -> Tensor:
    """Run the unit over every plane of the cuboid along `direction`: a
    one-direction `pmd_layer`. Returns [T, H, W, Ch] (or [N, T, H, W, Ch])."""
    if direction not in _SCAN:
        raise ValueError(f"direction {direction!r} not in {DIRECTIONS}")
    return pmd_layer(tape, {direction: unit}, cuboid)


def _pointwise_project(tape: Tape, cuboid: Tensor, weight: Tensor, bias: Tensor):
    """1x1 convolution over the channel axis of a [T,H,W,C]-like cuboid."""
    n1, n2 = weight.shape
    kernel = tape.reshape(weight, (1, 1, n1, n2))
    if cuboid.data.ndim == 5:
        n, t = cuboid.data.shape[:2]
        flat = tape.reshape(cuboid, (n * t,) + cuboid.data.shape[2:])
        out = tape.conv2d(flat, kernel, bias)
        return tape.reshape(out, (n, t) + out.data.shape[1:])
    return tape.conv2d(cuboid, kernel, bias)


def blend(tape: Tape, states: Tensor, block: BlendBlock) -> Tensor:
    """Project the directional states, concatenated in DIRECTIONS order
    ([..., 5*N1], as `pmd_layer` returns them), pointwise to [..., N2].

    Weighted mode projects with its [5*N1, N2] weight. Uniform mode tiles
    its [N1, N2] weight five times along rows, which is the same as summing
    the five directions and projecting with it.
    """
    weight = block.weight
    if block.mode == "uniform":
        weight = tape.concat([weight] * len(DIRECTIONS), axis=0)
    if weight.shape[0] != states.data.shape[-1]:
        raise ShapeError(
            f"{block.mode} blend weight gives {weight.shape[0]} rows, states have "
            f"{states.data.shape[-1]} channels"
        )
    out = _pointwise_project(tape, states, weight, block.bias)
    if block.layer_norm:
        out = tape.layer_norm(out)
    return tape.activation(out, block.activation)

