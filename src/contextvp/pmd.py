"""Plane-scan LSTM units, the fused directional scan node, and blending.

A scan unit is an LSTM whose gate transforms are same-padded 2-D
convolutions within a plane. A scan of an [N, T, H, W, C] cuboid along
one of five directions (t-, h-, h+, w-, w+) emits a hidden-state cuboid
of the same extent; its convolutions see the plane perpendicular to the
scan axis. A unit stacks its four gates on the output-channel axis in
GATES order (in, forget, out, cell), as Appleyard et al. 2016
(arXiv:1604.01946) do: kx [k, k, Cin, 4Ch], ks [k, k, Ch, 4Ch] and
b [4Ch], gate j owning channels [j*Ch, (j+1)*Ch), so a plane step is one
input and one state matmul.

Direction groups. `pmd_layer` records a layer's scans as one tape node,
its directions grouped by (unit object, scan axis): under directional
weight sharing (DWS), where opposite directions share one PMDUnit object,
{t-}, {h-, h+} and {w-, w+}, else one direction per group. A group
projects its input planes once (PatchRows, matmul, bias) and runs one
recurrence per direction on that projection.

Bit-identity. The forward runs the float operations of the tape-composed
step (conv2d, gate slices, sigmoid, tanh, mul, add) on contiguous buffers
(see `_Sweep.forward`), so its values equal that chain's bit for bit. The
ks and kx gradients are summed plane by plane (`_kernel_grad`), so no
backward buffer spans more than one plane; they differ from one
whole-layer matmul by under 1e-14 of each tensor's largest entry.

Backward phases, per group. The critical phase, which the next node down
the tape waits for, runs BPTT over the whole batch per direction, adds
the pre-activation gradients and takes one input gradient from the sum.
The deferred phase then takes the ks gradient per direction, and the kx
gradient and bias sum from the pre-activation gradients added again in
place, as one task whose gradients the node returns as futures (see
`Tape.record`). A kx or b shared within a group gets its gradient once.

Thread rule. A recorded node (the tape records and some input needs a
gradient) runs its groups' forward and critical phases on a module-level
pool of min(len(DIRECTIONS), usable cores) threads and the calling
thread; an unrecorded node runs them in the calling thread. Only a thread
outside the pool hands the pool work, so no pool task waits on another.
Results are combined in a fixed order, so values and gradients are the
same bits at any thread count.

Split rule. A recorded node with exactly one group, such as a baseline
layer, splits its batch into min(N, threads) contiguous slices, each
slice's projection, scan and input gradient a task of its own; BPTT and
the parameter gradients stay whole-batch. Other nodes run a task per group.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from contextvp.tensor import InputGrad, PatchRows, ShapeError, Tape, Tensor

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

# threads a recorded pmd_layer node spreads its directions over
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_THREADS = min(len(DIRECTIONS), _CORES or 1)
_pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="pmd")


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

    def bptt(self, g: np.ndarray, dpre: np.ndarray) -> None:
        """BPTT over the whole batch's planes in reverse scan order, writing
        the pre-activation gradients into the plane-first dpre. The float
        operations are those of the tape-composed step's backward, in the
        same order; every plane step writes into buffers made once. Each
        gate's products run in contiguous buffers and write its strided
        slice of dpre once."""
        ch = self.ch
        gs = self.planes(g[..., self.span])
        acts, cells = self.acts, self.cells
        plane = cells.shape[1:-1]
        tc, t, u, d_s, d_c, dc = (np.empty(plane + (ch,)) for _ in range(6))
        state_grad = InputGrad(dpre.shape[1:], self.ks)
        ds = None  # the state gradient from the plane after this one in scan order
        for q in reversed(range(len(self.order))):
            i = self.order[q]
            gate_in, gate_forget, gate_out, cand = (
                acts[i, ..., j * ch:(j + 1) * ch] for j in range(4)
            )
            d_in, d_forget, d_out, d_cand = (dpre[i, ..., j * ch:(j + 1) * ch] for j in range(4))
            np.tanh(cells[i], out=tc)
            grad_s = gs[i] if ds is None else np.add(gs[i], ds, out=d_s)
            # d_c = grad_s * gate_out * (1 - tc^2) (+ dc)
            np.multiply(grad_s, gate_out, out=d_c)
            np.multiply(tc, tc, out=t)
            np.subtract(1.0, t, out=t)
            np.multiply(d_c, t, out=d_c)
            if ds is not None:
                np.add(d_c, dc, out=d_c)
            _gate_grad(d_c, cand, gate_in, u, t, out=d_in)
            _gate_grad(grad_s, tc, gate_out, u, t, out=d_out)
            # d_cand = d_c * gate_in * (1 - cand^2)
            np.multiply(d_c, gate_in, out=u)
            np.multiply(cand, cand, out=t)
            np.subtract(1.0, t, out=t)
            np.multiply(u, t, out=d_cand)
            if q == 0:  # the first plane starts from zero cell and state
                d_forget[...] = 0.0
            else:
                _gate_grad(d_c, cells[self.order[q - 1]], gate_forget, u, t, out=d_forget)
                np.multiply(d_c, gate_forget, out=dc)
                ds = state_grad(dpre[i])

    def state_kernel_grad(self, out: np.ndarray, dpre: np.ndarray) -> np.ndarray:
        """The ks gradient from this direction's pre-activation gradients,
        by `_kernel_grad`: plane i's gradient pairs with the state of the
        plane before it in scan order."""
        states = self.planes(out[..., self.span])
        seen, fed = (slice(None, -1), slice(1, None))
        if self.reverse:
            seen, fed = fed, seen
        return _kernel_grad(states[seen], dpre[fed], self.ks.shape)


def _kernel_grad(inputs: np.ndarray, grads: np.ndarray, shape) -> np.ndarray:
    """The gradient of a same-padded kernel of `shape` [k, k, C, Cout]
    convolved with each plane of the plane-first `inputs` [L, *plane, C],
    given the plane-first output gradients `grads` [L, *plane, Cout]: the
    sum over planes, in plane order, of rows(plane).T @ grads[plane],
    with one PatchRows reused for every plane: within 1e-14 of one
    whole-layer matmul (see the module docstring)."""
    k, _, _, cout = shape
    rows = PatchRows(inputs.shape[1:], k, k)
    total = np.zeros((rows.rows.shape[1], cout))
    term = np.empty(total.shape)
    for a, d in zip(inputs, grads):
        np.matmul(rows(a).T, d.reshape(-1, cout), out=term)
        total += term
    return total.reshape(shape)


def _gate_grad(a, b, gate, u, t, out) -> None:
    """out = a * b * gate * (1 - gate), in that order, through the
    contiguous buffers u and t: one write into the strided `out`."""
    np.multiply(a, b, out=u)
    np.multiply(u, gate, out=u)
    np.subtract(1.0, gate, out=t)
    np.multiply(u, t, out=out)


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


def _group_backward(group: list, batches: list, g: np.ndarray, need_x: bool):
    """A direction group's critical phase: whole-batch BPTT per direction
    into its pre-activation gradients, then, when `need_x`, the group's
    plane-first input gradient from their sum, one `_map` item per batch
    slice. Returns (the pre-activation gradient per direction, the input
    gradient per batch slice or None)."""
    dpres = [np.empty(sw.acts.shape) for sw in group]
    for sw, dpre in zip(group, dpres):
        sw.bptt(g, dpre)
    kx = group[0].kx

    def input_grad(b):
        dsum = functools.reduce(np.add, [d[:, b] for d in dpres])
        return InputGrad(dsum.shape, kx)(dsum)

    return dpres, list(_map(input_grad, batches, parallel=True)) if need_x else None


def _param_grads(group: list, x, out, dpres: list) -> list:
    """A direction group's deferred phase: [kx gradient, bias sum, then
    the ks gradient per direction]. The kx gradient and bias sum read the
    sum of the pre-activation gradients, made in place in the first once
    the ks gradients have read them all. The task owns `dpres` and empties
    it while summing, so a pair's second buffer is freed before the kx
    gradient is taken."""
    first = group[0]
    gks = [sw.state_kernel_grad(out, dpre) for sw, dpre in zip(group, dpres)]
    dsum = dpres.pop(0)
    while dpres:
        dsum += dpres.pop(0)
    gkx = _kernel_grad(first.planes(x), dsum, first.kx.shape)
    return [gkx, dsum.reshape(-1, dsum.shape[-1]).sum(axis=0)] + gks


def _defer_param_grads(group: list, x, out, dpres: list) -> list:
    """Start a group's deferred phase as one task, on the pool when it has
    two or more threads. Returns its gradients as futures in the node's
    input order, [kx, ks, b] per direction, None for the kx and b after
    the first, which the group shares, and all None when the group's unit
    needs no gradient."""
    if not group[0].need_params:
        return [None] * (3 * len(group))
    task = _start(_param_grads, group, x, out, dpres, parallel=_THREADS > 1)
    gkx, gb, *gks = (_item(task, j) for j in range(2 + len(group)))
    return [gkx, gks[0], gb] + [grad for f in gks[1:] for grad in (None, f, None)]


def _item(task: Future, j: int) -> Future:
    """A future of item j of the list `task` resolves to."""
    item = Future()

    def copy(done):
        if done.exception() is not None:
            item.set_exception(done.exception())
        else:
            item.set_result(done.result()[j])

    task.add_done_callback(copy)
    return item


def _start(fn, *args, parallel: bool) -> Future:
    """fn(*args) as a future: submitted to the shared pool when
    `parallel`, else run now in this thread."""
    if parallel:
        return _pool.submit(fn, *args)
    done = Future()
    done.set_result(fn(*args))
    return done


def _map(fn, items, parallel: bool):
    """fn(item) for each item, yielded in order. When `parallel` and more
    than one thread would get work, all items start before the first
    result is read, on the shared pool but for the last, which the calling
    thread runs if the pool has a thread for each of the others; otherwise
    each item runs in the calling thread as it is read. Only a thread
    outside the pool may ask for `parallel` (see the thread rule)."""
    if not (parallel and min(len(items), _THREADS) > 1):
        for item in items:
            yield fn(item)
        return
    futures = [_pool.submit(fn, item) for item in items[:-1]]
    futures.append(_start(fn, items[-1], parallel=len(items) > _THREADS))
    for f in futures:
        yield f.result()


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
    # a recorded one-group node splits its batch; every other node runs one
    # task per group
    n = x.shape[0]
    chunks = min(n, _THREADS) if keep and len(groups) == 1 else 1
    batches = [slice(n * j // chunks, n * (j + 1) // chunks) for j in range(chunks)]
    list(_map(
        lambda task: _group_forward(task[0], x, out, task[1]),
        [(group, b) for group in groups for b in batches],
        parallel=keep,
    ))

    def backward(g):
        need_x = cuboid.requires_grad
        gx = np.zeros(x.shape) if need_x else None
        grads = []
        critical = _map(
            lambda group: _group_backward(group, batches, g, need_x), groups, parallel=True
        )
        # each group's deferred phase starts once its critical phase is
        # read, so the t- group's buffers need not wait for a pair's BPTT.
        # A pair's directions are neighbours in DIRECTIONS (h-, h+ and
        # w-, w+), so the groups list the directions in that order
        for group, (dpres, parts) in zip(groups, critical):
            grads += _defer_param_grads(group, x, out, dpres)
            if need_x:
                for b, part in zip(batches, parts):
                    gx[b] += np.moveaxis(part, 0, group[0].axis)
        return [gx] + grads

    return tape.record("pmd_layer", inputs, out, backward)


def pmd_scan(tape: Tape, unit: PMDUnit, cuboid: Tensor, direction: str) -> Tensor:
    """Run the unit over every plane of the [N, T, H, W, C] cuboid along
    `direction`: a one-direction `pmd_layer`. Returns [N, T, H, W, Ch]."""
    return pmd_layer(tape, {direction: unit}, cuboid)


def blend(tape: Tape, states: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Project the directional states, concatenated in DIRECTIONS order
    ([..., 5*N1], as `pmd_layer` returns them), pointwise to [..., N2]:
    a 1x1 convolution with the 1x1 kernel `weight` and bias [N2].

    A weight with one row per state channel, [1, 1, 5*N1, N2], is used as
    stored (weighted mode). One with N1 rows is tiled five times along its
    input channels (uniform mode), which is the same as summing the five
    directions and projecting with it. Any other shape raises ShapeError.
    """
    if weight.data.ndim != 4 or weight.shape[:2] != (1, 1):
        raise ShapeError(f"blend weight must be a 1x1 kernel, got shape {weight.shape}")
    rows, channels = weight.shape[2], states.data.shape[-1]
    if rows * len(DIRECTIONS) == channels:
        weight = tape.concat([weight] * len(DIRECTIONS), axis=2)
    elif rows != channels:
        raise ShapeError(
            f"blend weight has {rows} rows, states have {channels} channels: "
            "weighted mode needs as many rows, uniform mode a fifth as many"
        )
    return tape.conv2d(states, weight, bias)
