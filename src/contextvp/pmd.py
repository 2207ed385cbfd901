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

Layer nodes. `pmd_layer` records a layer's scans as one tape node whose
output is their states [N, T, H, W, sum of Ch]; `blend` records the scans
and the 1x1 blend projection of their states as one node whose output is
[N, T, H, W, N2], a whole ContextVP layer. Both are `_layer`. A node
groups its directions by (unit object, scan axis): under directional
weight sharing (DWS), where opposite directions share one PMDUnit object,
{t-}, {h-, h+} and {w-, w+}, else one direction per group. A group
projects its input planes once (PatchRows, matmul, bias) and runs one
recurrence per direction on that projection. The node's inputs are the
cuboid, then each group's kx, ks and b, then `blend`'s weight and bias,
one gradient each.

Bit-identity. The forward runs the float operations of the tape-composed
step (conv2d, gate slices, sigmoid, tanh, mul, add) on contiguous buffers
(see `_Sweep.forward`), so its values equal that chain's bit for bit. The
ks and kx gradients are summed plane by plane in increasing plane index
(`_kernel_grad`, or inside BPTT for a pair's - direction), so no
kernel-gradient buffer spans more than one plane; they differ from one
whole-layer matmul by under 1e-14 of each tensor's largest entry. The
blend takes `Tape.conv2d`'s 1x1 operations (forward rows @ W + b, input
gradient g @ W[0, 0].T, weight gradient rows.T @ g, bias g summed), so a
`blend` node's values and gradients are those of `Tape.conv2d` over a
`pmd_layer` node, bit for bit.

Stored state. A recorded node keeps its input and, per direction, the
gate activations `acts` [4Ch per position], all directions' in one
block; it keeps no cells. A `pmd_layer` node keeps its output, the
states; a `blend` node keeps no states, whose buffer dies after the blend
matmul. BPTT rebuilds a direction's cells from its `acts`
(`_Sweep.cells`) with the forward's multiplies and adds on the same
operands, which are correctly rounded, so the rebuilt cells are the
forward's bit for bit, on every backward of the tape; in a `blend` node
it also rebuilds the states, out gate * tanh(cell), bit for bit too.

Backward phases, per group. A group holds one [L, *plane, 4Ch]
pre-activation-gradient buffer. A `blend` node first takes its states'
gradient g @ W[0, 0].T and makes one node-local states buffer, which each
direction's BPTT fills, plane by plane, with the states it rebuilds. The
critical phase, which the next node down the tape waits for, runs BPTT
over the whole batch per direction, then lowers the buffer to the input
gradient, one call per batch slice. In a pair, the + direction's BPTT
fills the buffer and its ks gradient is read from it; the - direction's
BPTT then makes each plane in a one-plane buffer, takes its ks term from
it one plane later, once the state it pairs with is rebuilt, and adds it
into the buffer, which so holds the pair's sum, made once. The deferred
phase, one task whose gradients the node returns as futures (see
`Tape.record`), then gives the group's [kx, ks, b]: the kx gradient and
bias sum from the buffer, a lone direction's ks gradient from it and the
states too, and a pair's as the sum of its two directions' ks gradients,
(-) + (+). Once every group's critical phase is done, a `blend` node
takes the weight gradient, one matmul over the states buffer, and the
bias sum in the calling thread; the states buffer is freed with the
node's last task.

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

import math
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
        if len(self.kx.shape) != 4 or self.kx.shape[0] != self.kx.shape[1]:
            raise ShapeError(f"kx: shape {self.kx.shape}, expected [k, k, Cin, 4Ch]")
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
    Given a flat block `acts`, the gate activations are stored in it for
    backward, viewed as [L, *plane, 4Ch]; the cells are not, as `cells`
    rebuilds them bit for bit. The recurrence runs on a batch slice `b`,
    axis 0 of the cuboid and axis 1 plane-first.
    """

    def __init__(self, direction: str, unit: PMDUnit, cuboid: Tensor, offset: int,
                 acts: np.ndarray | None):
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
        self.acts = None if acts is None else acts.reshape(lead + (4 * self.ch,))

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
        c = np.empty(plane + (ch,))  # the cell, updated in place
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
            if prev is None:
                np.multiply(gate_in, cand, out=c)
            else:
                np.multiply(gate_in, cand, out=ic)
                np.multiply(gate_forget, c, out=c)
                np.add(c, ic, out=c)
            np.tanh(c, out=tc)
            np.multiply(gate_out, tc, out=states[i])
            if acts is not None:  # after p is read: p may be acts[i]
                acts[i, ..., :3 * ch] = gates
                acts[i, ..., 3 * ch:] = cand
            prev = i

    def cells(self) -> np.ndarray:
        """This direction's cells [L, *plane, Ch], rebuilt from the stored
        `acts` by the forward's operations in scan order: in * cand for
        every plane, then forget * (the previous cell) + that. Multiply
        and add are correctly rounded and see the forward's operands, so
        these are the forward's cells bit for bit."""
        ch, acts = self.ch, self.acts
        cells = np.multiply(acts[..., :ch], acts[..., 3 * ch:])
        fc = np.empty(cells.shape[1:])
        for prev, i in zip(self.order, self.order[1:]):
            np.multiply(acts[i, ..., ch:2 * ch], cells[prev], out=fc)
            np.add(fc, cells[i], out=cells[i])
        return cells

    def bptt(self, g: np.ndarray, dpre: np.ndarray, states: np.ndarray, rebuild: bool,
             into_sum: bool = False) -> np.ndarray | None:
        """BPTT over the whole batch's planes in reverse scan order into the
        plane-first pre-activation gradients dpre. The float operations are
        those of the tape-composed step's backward, in the same order; every
        plane step writes into buffers made once. Each gate's products run
        in contiguous buffers and write its strided slice of a plane once.

        `states` is shaped like the node's states [N, T, H, W, sum of Ch].
        When `rebuild`, each plane's states are written into this
        direction's channels of it as out gate * tanh(cell), the forward's
        multiply on the forward's operands, so bit for bit; the tanh is the
        one BPTT takes anyway. Otherwise it holds them already.

        Without `into_sum`, each plane is written into dpre. With it, dpre
        holds the pair's other direction's gradients: each plane is made in
        a one-plane buffer, its state gradient lowered from that, and then
        added into dpre's plane. When the unit needs gradients, this also
        returns the ks gradient, whose term for plane i is rows(state of the
        plane before it in scan order).T @ plane i's gradient. The term is
        taken one plane later, once that state is written, while the
        one-plane buffer still holds plane i. This direction scans in
        decreasing index, so BPTT meets the planes in increasing index and
        sums the terms in `_kernel_grad`'s order, bit for bit."""
        ch = self.ch
        gs = self.planes(g[..., self.span])
        ss = self.planes(states[..., self.span])
        acts, cells = self.acts, self.cells()
        plane = cells.shape[1:-1]
        tc, t, u, d_s, d_c, dc = (np.empty(plane + (ch,)) for _ in range(6))
        state_grad = InputGrad(dpre.shape[1:], self.ks)
        one_plane = np.empty(dpre.shape[1:]) if into_sum else None
        rows = None
        if into_sum and self.need_params:
            rows = PatchRows(ss.shape[1:], self.k, self.k)
            gks = np.zeros((rows.rows.shape[1], 4 * ch))
            term = np.empty(gks.shape)
        ds = None  # the state gradient from the plane after this one in scan order
        for q in reversed(range(len(self.order))):
            i = self.order[q]
            d = dpre[i] if one_plane is None else one_plane
            gate_in, gate_forget, gate_out, cand = (
                acts[i, ..., j * ch:(j + 1) * ch] for j in range(4)
            )
            d_in, d_forget, d_out, d_cand = (d[..., j * ch:(j + 1) * ch] for j in range(4))
            np.tanh(cells[i], out=tc)
            if rebuild:
                np.multiply(gate_out, tc, out=ss[i])
            if rows is not None and ds is not None:  # d still holds the plane after
                np.matmul(rows(ss[i]).T, d.reshape(-1, 4 * ch), out=term)
                gks += term
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
                ds = state_grad(d)
            if one_plane is not None:
                np.add(dpre[i], one_plane, out=dpre[i])
        return None if rows is None else gks.reshape(self.ks.shape)

    def state_kernel_grad(self, states: np.ndarray, dpre: np.ndarray) -> np.ndarray:
        """The ks gradient from this direction's pre-activation gradients,
        by `_kernel_grad`: plane i's gradient pairs with the state of the
        plane before it in scan order."""
        states = self.planes(states[..., self.span])
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


def _group_backward(group: list, batches: list, g: np.ndarray, states: np.ndarray,
                    rebuild: bool, need_x: bool):
    """A direction group's critical phase: whole-batch BPTT per direction
    into one pre-activation-gradient buffer, then, when `need_x`, the
    group's plane-first input gradient from it, one `_map` item and one
    `InputGrad` call per batch slice. A pair is (h-, h+) or (w-, w+): the
    + direction's BPTT fills the buffer and, when the unit needs
    gradients, its ks gradient is read from it; then the - direction's
    BPTT adds each of its planes in and takes its own ks gradient
    (`_Sweep.bptt`), so the buffer ends as the pair's sum. When `rebuild`,
    each BPTT writes its direction's states into `states`. Returns ([the
    buffer], the pair's (-, +) ks gradients or None, the input gradient
    per batch slice or None)."""
    dpre = np.empty(group[-1].acts.shape)
    group[-1].bptt(g, dpre, states, rebuild)
    gks = None
    if len(group) == 2:
        minus, plus = group
        gk_plus = plus.state_kernel_grad(states, dpre) if plus.need_params else None
        gks = [minus.bptt(g, dpre, states, rebuild, into_sum=True), gk_plus]
    if not need_x:
        return [dpre], gks, None
    kx = group[0].kx
    parts = _map(lambda b: InputGrad(dpre[:, b].shape, kx)(dpre[:, b]), batches, parallel=True)
    return [dpre], gks, list(parts)


def _param_grads(group: list, x, states, dpres: list, gks: list | None) -> list:
    """A direction group's deferred phase: [kx, ks, b] gradients of its
    unit, the kx gradient and bias sum from the group's one
    pre-activation-gradient buffer. A lone direction's ks gradient is taken
    here from `states`; a pair's is the sum of its two directions' (-, +),
    taken in its critical phase and passed in `gks`. The task owns the
    one-item list `dpres` and empties it, so the buffer is freed when the
    task ends."""
    first, dpre = group[0], dpres.pop()
    gks = first.state_kernel_grad(states, dpre) if gks is None else gks[0] + gks[1]
    gkx = _kernel_grad(first.planes(x), dpre, first.kx.shape)
    return [gkx, gks, dpre.reshape(-1, dpre.shape[-1]).sum(axis=0)]


def _defer_param_grads(group: list, x, states, dpres: list, gks: list | None) -> list:
    """Start a group's deferred phase as one task, on the pool when it has
    two or more threads. Returns its unit's [kx, ks, b] gradients as
    futures, in the node's input order, or three None when the unit needs
    no gradient."""
    if not group[0].need_params:
        return [None] * 3
    task = _start(_param_grads, group, x, states, dpres, gks, parallel=_THREADS > 1)
    return [_item(task, j) for j in range(3)]


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
    node, whose inputs are the cuboid and each direction group's kx, ks
    and b (see the module docstring). Any other rank raises ShapeError.

    States start at zero (no prior). Returns the hidden states at every
    position, concatenated on the channel axis in DIRECTIONS order:
    [N, T, H, W, sum of Ch].
    """
    return _layer(tape, units, cuboid, None)


def pmd_scan(tape: Tape, unit: PMDUnit, cuboid: Tensor, direction: str) -> Tensor:
    """Run the unit over every plane of the [N, T, H, W, C] cuboid along
    `direction`: a one-direction `pmd_layer`. Returns [N, T, H, W, Ch]."""
    return pmd_layer(tape, {direction: unit}, cuboid)


def blend(tape: Tape, units: dict, cuboid: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """A whole ContextVP layer as one tape node: the scans of `pmd_layer`,
    then their states, concatenated in DIRECTIONS order, projected
    pointwise to [N, T, H, W, N2] by the 1x1 kernel `weight`
    [1, 1, sum of Ch, N2], one row per state channel, and bias [N2]. The
    node's inputs are `pmd_layer`'s, then weight and bias. The projection
    is `Tape.conv2d`'s 1x1 arithmetic, so its values and gradients are
    those of `tape.conv2d(pmd_layer(tape, units, cuboid), weight, bias)`
    bit for bit; the node keeps no states (see the module docstring). A
    weight of any other shape, or a bias that is not [N2], raises
    ShapeError.
    """
    return _layer(tape, units, cuboid, (weight, bias))


def _layer(tape: Tape, units: dict, cuboid: Tensor, mix) -> Tensor:
    """`pmd_layer` when `mix` is None, else `blend` with mix = (weight,
    bias)."""
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
    offsets = np.cumsum([0] + [units[d].hidden for d in directions])
    width = int(offsets[-1])
    if mix is not None:
        weight, bias = mix
        if weight.data.ndim != 4 or weight.shape[:2] != (1, 1):
            raise ShapeError(f"blend weight must be a 1x1 kernel, got shape {weight.shape}")
        if weight.shape[2] != width:
            raise ShapeError(
                f"blend weight has {weight.shape[2]} rows, states have {width} channels: "
                "it needs one row per state channel"
            )
        n2 = weight.shape[3]
        if bias.data.shape != (n2,):
            raise ShapeError(f"blend bias shape {bias.data.shape} != ({n2},) from weight axis 3")
    group_dirs = {}  # (unit, scan axis) -> its directions, in DIRECTIONS order
    for d in directions:
        group_dirs.setdefault((id(units[d]), _SCAN[d][0]), []).append(d)
    # the cuboid, then each group's unit once, then the blend's weight and bias
    inputs = (cuboid,) + tuple(t for ds in group_dirs.values() for _, t in units[ds[0]].fields())
    if mix is not None:
        inputs += (weight, bias)
    keep = tape.recording and any(t.requires_grad for t in inputs)
    # every direction's stored activations are slices of one block per node.
    # Freed whole, a block this large raises glibc's trim threshold (twice
    # the largest mapping freed), so the heap is not handed back to the
    # system and faulted in again after every step
    per_channel = 4 * math.prod(cuboid.data.shape[:-1])
    block = np.empty(per_channel * width) if keep else None
    sweeps = {}
    for d, off, end in zip(directions, offsets, offsets[1:]):
        acts = None if block is None else block[per_channel * off:per_channel * end]
        sweeps[d] = _Sweep(d, units[d], cuboid, off, acts)
    groups = [[sweeps[d] for d in ds] for ds in group_dirs.values()]
    x = cuboid.data
    states = np.empty(x.shape[:-1] + (width,))
    # a recorded one-group node splits its batch; every other node runs one
    # task per group
    n = x.shape[0]
    chunks = min(n, _THREADS) if keep and len(groups) == 1 else 1
    batches = [slice(n * j // chunks, n * (j + 1) // chunks) for j in range(chunks)]
    list(_map(
        lambda task: _group_forward(task[0], x, states, task[1]),
        [(group, b) for group in groups for b in batches],
        parallel=keep,
    ))
    if mix is None:
        out = stored = states
    else:
        # Tape.conv2d's 1x1 forward; the node keeps no states, BPTT rebuilds them
        w = weight.data
        out = (states.reshape(-1, width) @ w.reshape(width, n2)).reshape(x.shape[:-1] + (n2,))
        out = out + bias.data
        stored = None

    def backward(gy):
        rebuild = stored is None
        if rebuild:  # Tape.conv2d's 1x1 input gradient
            g = np.matmul(gy, w[0, 0].T)
            states = np.empty(g.shape)
        else:
            g, states = gy, stored
        need_x = cuboid.requires_grad
        gx = np.zeros(x.shape) if need_x else None
        grads = []
        critical = _map(
            lambda group: _group_backward(group, batches, g, states, rebuild, need_x),
            groups, parallel=True,
        )
        # each group's deferred phase starts once its critical phase is
        # read, so the t- group's buffer need not wait for a pair's BPTT
        for group, (dpres, gks, parts) in zip(groups, critical):
            grads += _defer_param_grads(group, x, states, dpres, gks)
            if need_x:
                for b, part in zip(batches, parts):
                    gx[b] += np.moveaxis(part, 0, group[0].axis)
        if rebuild:  # every state is rebuilt: Tape.conv2d's 1x1 parameter gradients
            gy2 = gy.reshape(-1, n2)
            grads.append((states.reshape(-1, width).T @ gy2).reshape(w.shape)
                         if weight.requires_grad else None)
            grads.append(gy2.sum(axis=0) if bias.requires_grad else None)
        return [gx] + grads

    return tape.record("pmd_layer", inputs, out, backward)
