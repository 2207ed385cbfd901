"""Recurrent plane-scan units, the fused directional scan node, and
context blending.

A scan unit is an LSTM whose gate transforms are same-padded 2-D
convolutions within a plane. Cuboids are batched [N, T, H, W, C], the only
layout the scans take. Scanning one along one of five directions (t-, h-,
h+, w-, w+) emits a hidden-state cuboid of the same extent; the plane
perpendicular to the scan axis is what the convolutions see, so spatial
scans mix time and the remaining spatial axis, and the batch rides along.

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
mul, add), so its values are bit-identical to that chain. Each plane step
writes into buffers made once per sweep, the state straight into its
plane of the output. exp and tanh only ever read and write contiguous
buffers: numpy may run a strided operand through another SIMD loop,
whose last bits differ. The node returns the directions' states
concatenated on the channel axis in DIRECTIONS order; the time-only
ConvLSTM baseline uses the same node with only t-.

The node groups its directions by (unit object, scan axis): under DWS,
{t-}, {h-, h+} and {w-, w+}; otherwise one direction per group. A
group's directions read the same planes through the same kx and b, so
forward and backward alike have one input side per group and one
recurrence per direction. The forward projects the group's input plane
by plane (im2col, matmul, bias) into one [L, *plane, 4Ch] buffer, then
runs each direction's recurrence on it. Hoisting the projection out of
the recurrence follows Appleyard et al. 2016 (arXiv:1604.01946); it stays
per plane because a whole-cuboid projection is slower at these shapes.
The backward runs BPTT and the state kernel gradient per direction, adds
the group's pre-activation gradients and takes one kx gradient, one bias
sum and one input gradient from them. A kx or b tensor shared within a
group therefore gets its gradient once, at its first slot among the
node's inputs. The input gradients are summed in group order; tensors
shared across groups get one contribution per group.

The groups are independent given the layer input, so they can run
concurrently, as in PyraMiD-LSTM (Stollenga et al. 2015,
arXiv:1506.07452). A recorded node (the tape records and some input needs
a gradient) runs its groups' forward and backward on a module-level pool
of min(len(DIRECTIONS), usable cores) threads, created on first use;
numpy releases the interpreter lock inside its array loops and BLAS
calls. An unrecorded node, as in inference, runs them in the calling
thread: at batch 1 the pool gave no speed-up and raised peak memory.
Each group's arithmetic does not depend on the thread that runs it, and
the results are combined in a fixed order, so values and gradients are
bit-identical with and without the pool.

A recorded node with fewer groups than threads, such as the time-only
baseline's single group, also splits its batch, along which the planes
are independent too: into min(N, threads // groups) contiguous slices
of axis 0 of the cuboid, axis 1 of every plane-first buffer, with one
pool task per (group, slice). Each task projects and scans its slice
forward; backward it runs BPTT on it into the slice of each direction's
pre-activation gradients, then, for a group of one direction, whose
gradients are then final, the slice's input gradient. The parameter
gradients stay whole-batch reductions over the complete pre-activation
gradients, taken after that map, so they are bit-identical to an
unsplit node's: the state kernel gradients on the pool, a lone
direction's alongside its kx gradient and bias sum in the calling
thread. The rule depends only on the group count and the batch size. A
node whose groups fill the pool is not split, as splitting a DWS
layer's batch as well was measured 1.22x slower.

Blending projects the concatenated states with `pointwise`, the 1x1
convolution the model's head also uses: weighted mode with its
[5*N1, N2] weight, uniform mode with its [N1, N2] weight tiled five times
along rows, which equals summing the five directions and projecting.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from contextvp.tensor import PatchRows, ShapeError, Tape, Tensor, conv_input_grad, im2col

DIRECTIONS = ("t-", "h-", "h+", "w-", "w+")
GATES = ("in", "forget", "out", "cell")

# direction -> ([N, T, H, W, C] axis scanned, planes visited in decreasing order)
_SCAN = {
    "t-": (1, False),
    "h+": (2, False),
    "h-": (2, True),
    "w+": (3, False),
    "w-": (3, True),
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
    bias is [N2]. The combination is linear: no activation or
    normalization follows the projection.
    """

    mode: str
    weight: Tensor
    bias: Tensor

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


class _Sweep:
    """One direction's recurrence over a layer input, in plain numpy.

    Arrays shaped like the cuboid are viewed plane-first, [L, *plane, C]
    with plane = (N, A, B), the scanned axis moved to the front; plane i
    is the cuboid's i-th slice along that axis, whatever the scan order.
    With `keep`, the gate activations `acts` [L, *plane, 4Ch] and cells
    [L, *plane, Ch] are stored for backward. The recurrence runs on a
    batch slice `b` of them, axis 0 of the cuboid and axis 1 plane-first.
    """

    def __init__(self, direction: str, unit: PMDUnit, cuboid: Tensor, offset: int, keep: bool):
        self.axis, self.reverse = _SCAN[direction]
        self.order = list(range(cuboid.data.shape[self.axis]))
        if self.reverse:
            self.order.reverse()
        self.need_params = any(t.requires_grad for _, t in unit.fields())
        self.k = unit.kernel_size
        self.ch = unit.hidden
        self.span = slice(offset, offset + self.ch)
        self.kx, self.ks, self.b = unit.kx.data, unit.ks.data, unit.b.data
        lead = self.planes(cuboid.data).shape[:-1]
        self.acts = np.empty(lead + (4 * self.ch,)) if keep else None
        self.cells = np.empty(lead + (self.ch,)) if keep else None

    def planes(self, a: np.ndarray) -> np.ndarray:
        return np.moveaxis(a, self.axis, 0)

    def forward(self, proj: np.ndarray, out: np.ndarray, b: slice) -> None:
        """Write batch slice b's states into this direction's channels of
        `out` from its group's input projection `proj` [L, *plane, 4Ch] of
        that slice, adding the state matmul from the second plane in scan
        order. The float operations are those of Tape.conv2d, sigmoid and
        tanh; every plane step writes into buffers made once."""
        ch, k = self.ch, self.k
        states = self.planes(out[b, ..., self.span])
        plane = states.shape[1:-1]
        s_rows = PatchRows(states.shape[1:], k, k)
        ks = self.ks.reshape(-1, 4 * ch)
        pre = np.empty(plane + (4 * ch,))
        s_pre = np.empty(pre.shape)
        # exp and tanh run on these contiguous buffers: a strided operand
        # can take another SIMD loop, whose last bits differ
        gates = np.empty(plane + (3 * ch,))
        cand, ic, tc = (np.empty(plane + (ch,)) for _ in range(3))
        gate_in, gate_forget, gate_out = gates[..., :ch], gates[..., ch:2 * ch], gates[..., 2 * ch:]
        acts = None if self.acts is None else self.acts[:, b]
        cells = None if self.cells is None else self.cells[:, b]
        # the cell: this direction's cells when kept, else one buffer updated in place
        c = None if cells is not None else np.empty(plane + (ch,))
        prev = None
        for i in self.order:
            p = proj[i]
            if prev is not None:
                np.matmul(s_rows(states[prev]), ks, out=s_pre.reshape(-1, 4 * ch))
                p = np.add(p, s_pre, out=pre)
            with np.errstate(over="ignore"):  # exp(710+) = inf gives exactly 0
                np.negative(p[..., :3 * ch], out=gates)
                np.exp(gates, out=gates)
            np.add(1.0, gates, out=gates)
            np.divide(1.0, gates, out=gates)
            np.copyto(cand, p[..., 3 * ch:])
            np.tanh(cand, out=cand)
            if cells is not None:
                c = cells[i]
            if prev is None:
                np.multiply(gate_in, cand, out=c)
            else:
                np.multiply(gate_in, cand, out=ic)
                np.multiply(gate_forget, c_prev, out=c)
                np.add(c, ic, out=c)
            np.tanh(c, out=tc)
            np.multiply(gate_out, tc, out=states[i])
            if acts is not None:  # after p is read: p may be acts[i]
                acts[i, ..., :3 * ch] = gates
                acts[i, ..., 3 * ch:] = cand
            prev, c_prev = i, c

    def bptt(self, out: np.ndarray, g: np.ndarray, dpre: np.ndarray, b: slice) -> None:
        """BPTT over batch slice b's planes in reverse scan order, writing
        its pre-activation gradients into the plane-first dpre[:, b]."""
        ch = self.ch
        gs = self.planes(g[b, ..., self.span])
        acts, cells, dpre = self.acts[:, b], self.cells[:, b], dpre[:, b]
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

    def state_kernel_grad(self, out: np.ndarray, dpre: np.ndarray):
        """The ks gradient from this direction's whole-batch dpre, None
        when the unit needs none."""
        if not self.need_params:
            return None
        k, ch = self.k, self.ch
        states = self.planes(out[..., self.span])
        # plane i saw the state of the plane before it in scan order
        seen, fed = (slice(None, -1), slice(1, None))
        if self.reverse:
            seen, fed = fed, seen
        return (im2col(states[seen], k, k).T @ dpre[fed].reshape(-1, 4 * ch)).reshape(
            self.ks.shape
        )


def _group_forward(group: list, x: np.ndarray, out: np.ndarray, b: slice) -> None:
    """A direction group's input side for batch slice b, then one
    recurrence per direction. The projection goes into the last
    direction's `acts` when they are kept, as that direction overwrites
    each plane after reading it, and into one fresh buffer otherwise."""
    first, last = group[0], group[-1]
    xs = first.planes(x[b])
    stacked = 4 * first.ch
    proj = last.acts[:, b] if last.acts is not None else np.empty(xs.shape[:-1] + (stacked,))
    rows = PatchRows(xs.shape[1:], first.k, first.k)
    kx = first.kx.reshape(-1, stacked)
    for plane, p in zip(xs, proj):
        np.matmul(rows(plane), kx, out=p.reshape(-1, stacked))
        np.add(p, first.b, out=p)
    for sw in group:
        sw.forward(proj, out, b)


def _input_side(group: list, x: np.ndarray, dpres: list, grads: list) -> None:
    """Add the group's whole-batch pre-activation gradients in place into
    the first direction's dpre, which its ks gradient must have read, then
    put the group's kx gradient and bias sum into grads[0]."""
    first = group[0]
    for dpre in dpres[1:]:
        dpres[0] += dpre
    if first.need_params:
        rows = dpres[0].reshape(-1, dpres[0].shape[-1])
        grads[0][0] = (im2col(first.planes(x), first.k, first.k).T @ rows).reshape(first.kx.shape)
        grads[0][2] = rows.sum(axis=0)


def _group_backward(group: list, x: np.ndarray, out: np.ndarray, g: np.ndarray, need_x: bool):
    """A group's whole-batch backward in one task: BPTT and the ks
    gradient per direction, then the input side. Returns ([gkx, gks, gb]
    per direction, None for kx and b after the first; [the plane-first
    input gradient], None unless `need_x`)."""
    dpres, grads = [], []
    for sw in group:
        dpres.append(np.empty(sw.acts.shape))
        sw.bptt(out, g, dpres[-1], slice(None))
        grads.append([None, sw.state_kernel_grad(out, dpres[-1]), None])
    _input_side(group, x, dpres, grads)
    return grads, [conv_input_grad(dpres[0], group[0].kx)] if need_x else None


def _split_backward(groups: list, batches: list, x, out, g, need_x: bool) -> list:
    """The backward of a node whose batch is split. One pool task per
    (group, batch slice) runs BPTT into each direction's dpre and, for a
    lone direction, whose dpre is then final, the slice's input gradient.
    The parameter gradients stay whole-batch reductions after that map,
    so they are bit-identical to `_group_backward`'s: the ks gradients on
    the pool, alongside the input side in the calling thread for a lone
    direction and before it for a pair, whose input gradient follows.
    Returns `_group_backward`'s results with one input gradient per
    batch slice."""
    dpres = [[np.empty(sw.acts.shape) for sw in group] for group in groups]

    def bptt(task):
        group, dp, b = task
        for sw, dpre in zip(group, dp):
            sw.bptt(out, g, dpre, b)
        if need_x and len(group) == 1:
            return conv_input_grad(dp[0][:, b], group[0].kx)
        return None

    tasks = [(group, dp, b) for group, dp in zip(groups, dpres) for b in batches]
    gx_parts = iter(_map(bptt, tasks, parallel=True))
    results = []
    for group, dp in zip(groups, dpres):
        gx = [next(gx_parts) for _ in batches]
        pool = _get_pool()
        gks = [pool.submit(sw.state_kernel_grad, out, d) for sw, d in zip(group, dp)]
        if len(group) > 1:  # _input_side adds into the first direction's dpre
            wait(gks)
        grads = [[None, None, None] for _ in group]
        _input_side(group, x, dp, grads)
        for per_dir, f in zip(grads, gks):
            per_dir[1] = f.result()
        if need_x and len(group) > 1:
            gx = [conv_input_grad(dp[0][:, b], group[0].kx) for b in batches]
        results.append((grads, gx if need_x else None))
    return results


def _get_pool() -> ThreadPoolExecutor:
    """The shared pool of _THREADS threads, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="pmd")
    return _pool


def _map(fn, items, parallel: bool) -> list:
    """[fn(item) for item in items], on the shared thread pool when
    `parallel` and more than one of its threads would get work."""
    if not parallel or min(len(items), _THREADS) < 2:
        return [fn(item) for item in items]
    pool = _get_pool()
    futures = [pool.submit(fn, item) for item in items]
    return [f.result() for f in futures]


def pmd_layer(tape: Tape, units: dict, cuboid: Tensor) -> Tensor:
    """Scan the [N, T, H, W, C] cuboid along every direction in `units`
    (direction -> PMDUnit; aliased units share parameters) as one tape
    node. Any other rank raises ShapeError.

    States start at zero (no prior). Returns the hidden states at every
    position, concatenated on the channel axis in DIRECTIONS order:
    [N, T, H, W, sum of Ch].
    """
    directions = [d for d in DIRECTIONS if d in units]
    if not directions or len(directions) != len(units):
        raise ValueError(f"directions {sorted(units)} not a non-empty subset of {DIRECTIONS}")
    if cuboid.data.ndim != 5:
        raise ShapeError(f"cuboid must be [N, T, H, W, C], got rank {cuboid.data.ndim}")
    cin = cuboid.data.shape[-1]
    for d in directions:
        if units[d].in_channels != cin:
            raise ShapeError(
                f"cuboid has {cin} channels, {d} unit expects {units[d].in_channels}"
            )
    inputs = (cuboid,) + tuple(t for d in directions for _, t in units[d].fields())
    keep = tape.recording and any(t.requires_grad for t in inputs)
    offsets = np.cumsum([0] + [units[d].hidden for d in directions])
    groups = {}  # (unit, scan axis) -> sweeps, in DIRECTIONS order
    for d, off in zip(directions, offsets):
        groups.setdefault((id(units[d]), _SCAN[d][0]), []).append(
            _Sweep(d, units[d], cuboid, off, keep)
        )
    groups = list(groups.values())
    x = cuboid.data
    out = np.empty(x.shape[:-1] + (int(offsets[-1]),))
    # a recorded node with fewer groups than threads also splits its batch
    n = x.shape[0]
    chunks = max(1, min(n, _THREADS // len(groups))) if keep else 1
    batches = [slice(n * j // chunks, n * (j + 1) // chunks) for j in range(chunks)]
    _map(
        lambda task: _group_forward(task[0], x, out, task[1]),
        [(group, b) for group in groups for b in batches],
        parallel=keep,
    )

    def backward(g):
        need_x = cuboid.requires_grad
        if chunks == 1:
            results = _map(
                lambda group: _group_backward(group, x, out, g, need_x), groups, parallel=True
            )
        else:
            results = _split_backward(groups, batches, x, out, g, need_x)
        gx = None
        if need_x:
            gx = np.zeros(x.shape)
            for group, (_, gx_group) in zip(groups, results):
                for b, part in zip(batches, gx_group):
                    gx[b] += np.moveaxis(part, 0, group[0].axis)
        # a pair's directions are neighbours in DIRECTIONS (h-, h+ and
        # w-, w+), so the groups list the directions in that order
        return [gx] + [grad for grads, _ in results for per_dir in grads for grad in per_dir]

    return tape.record("pmd_layer", inputs, out, backward)


def pmd_scan(tape: Tape, unit: PMDUnit, cuboid: Tensor, direction: str) -> Tensor:
    """Run the unit over every plane of the [N, T, H, W, C] cuboid along
    `direction`: a one-direction `pmd_layer`. Returns [N, T, H, W, Ch]."""
    return pmd_layer(tape, {direction: unit}, cuboid)


def pointwise(tape: Tape, x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """1x1 convolution of x [..., A, B, N1] over its channel axis, with
    weight [N1, N2] and bias [N2]."""
    return tape.conv2d(x, tape.reshape(weight, (1, 1) + weight.shape), bias)


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
    return pointwise(tape, states, weight, block.bias)

