"""Dense float64 tensors with tape-based reverse-mode differentiation.

All arrays are numpy float64 in row-major layout. Gradients are
accumulated in reverse tape-insertion order, so two runs over identical
inputs produce bit-identical forward values and gradients.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_RANK = 5


class ShapeError(ValueError):
    pass


class PatchRows:
    """im2col for a stream of same-shaped [..., A, B, C] arrays: each call
    returns the same-padded array's patch rows [positions, kh*kw*C],
    ordered (dh, dw, c) like a [kh, kw, C, Cout] kernel's first three
    axes, out-of-range input zero. The buffers are made once, so a call is
    two copies; the rows returned are overwritten by the next call."""

    def __init__(self, shape, kh: int, kw: int):
        *lead, a, b, c = shape
        ph, pw = kh // 2, kw // 2
        padded = np.zeros((*lead, a + 2 * ph, b + 2 * pw, c))
        self._inner = padded[..., ph:ph + a, pw:pw + b, :]
        # windows: [..., A, B, C, kh, kw] -> [..., A, B, kh, kw, C]
        win = sliding_window_view(padded, (kh, kw), axis=(-3, -2))
        self._windows = np.moveaxis(win, -3, -1)
        self._patches = np.empty(self._windows.shape)
        self.rows = self._patches.reshape(-1, kh * kw * c)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self._inner[...] = x
        np.copyto(self._patches, self._windows)
        return self.rows


class InputGrad:
    """A same-padded conv's input gradient [..., A, B, Cin] through kernel
    kd [kh, kw, Cin, Cout], for a stream of same-shaped output gradients
    [..., A, B, Cout]: one matmul per kernel tap. The buffers are made
    once, so a call allocates nothing; the gradient returned is
    overwritten by the next call."""

    def __init__(self, shape, kd: np.ndarray):
        *lead, a, b, _ = shape
        kh, kw, cin, _ = kd.shape
        ph, pw = kh // 2, kw // 2
        self._padded = np.empty((*lead, a + 2 * ph, b + 2 * pw, cin))
        self._inner = self._padded[..., ph:ph + a, pw:pw + b, :]
        self._tap = np.empty((*lead, a, b, cin))
        # (region of the padded gradient, transposed kernel tap) per tap
        self._taps = [
            (self._padded[..., dh:dh + a, dw:dw + b, :], kd[dh, dw].T)
            for dh in range(kh) for dw in range(kw)
        ]

    def __call__(self, g: np.ndarray) -> np.ndarray:
        self._padded.fill(0.0)
        for region, tap in self._taps:
            np.matmul(g, tap, out=self._tap)
            np.add(region, self._tap, out=region)
        return self._inner


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("kind", "inputs", "output", "backward_fn")

    def __init__(self, kind, inputs, output, backward_fn):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


def _accumulate(t: Tensor, contrib: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += contrib


def _add_queued(entry) -> None:
    """Add a (tensor, contributions) queue in order, waiting on each
    future's result; None adds nothing."""
    if entry is None:
        return
    t, contribs = entry
    for contrib in contribs:
        _accumulate(t, contrib.result() if isinstance(contrib, Future) else contrib)


def _axis_index(axis: int, rank: int) -> int:
    if axis < 0:
        axis += rank
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    return axis


class Tape:
    """Append-only record of differentiable operations.

    `backward` seeds a scalar node with 1 and sweeps the node list once in
    reverse insertion order, accumulating into `Tensor.grad`; a node may
    hand back some gradients as futures, which are added in the same
    order once they resolve. A tape built with ``recording=False`` runs
    the same forward math without recording, which is what inference and
    finite-difference value sweeps use.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[_Node] = []

    # -- engine ----------------------------------------------------------

    def record(self, kind, inputs, out_data, backward_fn) -> Tensor:
        """Wrap `out_data` as the op's output. When the tape records and
        some input needs a gradient, also append a node whose
        `backward_fn(out_grad)` returns one gradient (or None) per input.

        A gradient may instead be a `concurrent.futures.Future` of the
        array, added in its place among the input's contributions (see
        `backward`). The sweep runs on while a leaf's future is pending, so
        a parameter's gradient handed back this way is off the critical
        path. The future's work must finish without `backward` doing
        anything more."""
        out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
        if self.recording and out.requires_grad:
            self.nodes.append(_Node(kind, inputs, out, backward_fn))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate `.grad` on every leaf that influences `loss`: the
        parameters and inputs that no node produced.

        Each tensor takes its contributions in node order, reverse
        insertion, and within a node in input order. Once a contribution
        to a tensor is a future, its later contributions queue behind it.
        A queue is added up when the node that produced the tensor is
        reached, waiting on its futures there, and a leaf's after the
        sweep, so each `.grad` is the same sum, bit for bit, as with no
        futures. Every future has finished when `backward` returns, also
        when a `backward_fn` or a future raised; the first error is then
        raised.

        A node's output gradient is released once the node has consumed
        it, so intermediate tensors end with `.grad` None. Grad buffers
        from a previous backward on this tape are cleared first, so
        repeated calls (e.g. one per output pixel) are safe.
        """
        if loss.data.shape != ():
            raise ShapeError(
                f"backward seed must be scalar, got shape {loss.data.shape}"
            )
        for node in self.nodes:
            node.output.grad = None
            for t in node.inputs:
                t.grad = None
        loss.grad = np.ones((), dtype=np.float64)
        queued = {}  # id(tensor) -> (tensor, contributions), from its first future on
        futures = []
        try:
            for node in reversed(self.nodes):
                _add_queued(queued.pop(id(node.output), None))
                out_grad = node.output.grad
                if out_grad is None:
                    continue
                contribs = node.backward_fn(out_grad)
                node.output.grad = None
                for t, contrib in zip(node.inputs, contribs):
                    if isinstance(contrib, Future):
                        futures.append(contrib)
                    if contrib is None or not t.requires_grad:
                        continue
                    if isinstance(contrib, Future) or id(t) in queued:
                        queued.setdefault(id(t), (t, []))[1].append(contrib)
                    else:
                        _accumulate(t, contrib)
            for entry in queued.values():
                _add_queued(entry)
        finally:
            for f in futures:
                f.exception()  # waits, and reads an error no result() raised

    # -- elementwise -----------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"add: shapes {a.data.shape} != {b.data.shape}")
        return self.record("add", (a, b), a.data + b.data, lambda g: (g, g))

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"sub: shapes {a.data.shape} != {b.data.shape}")
        return self.record("sub", (a, b), a.data - b.data, lambda g: (g, -g))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"mul: shapes {a.data.shape} != {b.data.shape}")
        ad, bd = a.data, b.data
        return self.record("mul", (a, b), ad * bd, lambda g: (g * bd, g * ad))

    def scale(self, a: Tensor, factor: float) -> Tensor:
        factor = float(factor)
        return self.record("scale", (a,), a.data * factor, lambda g: (g * factor,))

    def absolute(self, a: Tensor) -> Tensor:
        # subgradient at 0 is fixed to 0 (np.sign(0) == 0) for determinism
        sign = np.sign(a.data)
        return self.record("abs", (a,), np.abs(a.data), lambda g: (g * sign,))

    def sigmoid(self, a: Tensor) -> Tensor:
        with np.errstate(over="ignore"):  # exp(710+) = inf gives exactly 0
            y = 1.0 / (1.0 + np.exp(-a.data))
        return self.record("sigmoid", (a,), y, lambda g: (g * y * (1.0 - y),))

    def tanh(self, a: Tensor) -> Tensor:
        y = np.tanh(a.data)
        return self.record("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))

    # unused by the model; the benchmark tracer patches it by name
    def relu(self, a: Tensor) -> Tensor:
        mask = a.data > 0
        return self.record("relu", (a,), a.data * mask, lambda g: (g * mask,))

    # -- reductions and structure -----------------------------------------

    def sum(self, a: Tensor) -> Tensor:
        shape = a.data.shape
        return self.record(
            "sum", (a,), np.asarray(np.sum(a.data)),
            lambda g: (np.full(shape, float(g)),),
        )

    def concat(self, tensors, axis: int) -> Tensor:
        tensors = tuple(tensors)
        if not tensors:
            raise ShapeError("concat of zero tensors")
        rank = tensors[0].data.ndim
        axis = _axis_index(axis, rank)
        for t in tensors[1:]:
            if t.data.ndim != rank:
                raise ShapeError("concat: rank mismatch")
            for ax in range(rank):
                if ax != axis and t.data.shape[ax] != tensors[0].data.shape[ax]:
                    raise ShapeError(
                        f"concat: extent mismatch on axis {ax}: "
                        f"{t.data.shape[ax]} != {tensors[0].data.shape[ax]}"
                    )
        out = np.concatenate([t.data for t in tensors], axis=axis)
        offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

        def backward(g):
            return tuple(np.split(g, offsets, axis=axis))

        return self.record("concat", tensors, out, backward)

    def _select(self, kind: str, a: Tensor, axis: int, key) -> Tensor:
        """A copy of a.data[key] on `axis`, recorded as a `kind` node whose
        gradient scatters back into zeros shaped like a."""
        sel = (slice(None),) * axis + (key,)
        shape = a.data.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            full[sel] = g
            return (full,)

        return self.record(kind, (a,), a.data[sel].copy(), backward)

    def index(self, a: Tensor, axis: int, i: int) -> Tensor:
        """Take the subarray at position i along `axis` (rank drops by 1)."""
        axis = _axis_index(axis, a.data.ndim)
        if not 0 <= i < a.data.shape[axis]:
            raise ShapeError(f"index {i} out of range on axis {axis}")
        return self._select("index", a, axis, i)

    # unused by the model; tests/oracles.py stacks plane states with it, and
    # the benchmark tracer patches it by name
    def stack(self, tensors, axis: int) -> Tensor:
        tensors = tuple(tensors)
        if not tensors:
            raise ShapeError("stack of zero tensors")
        base = tensors[0].data.shape
        for t in tensors[1:]:
            if t.data.shape != base:
                raise ShapeError(f"stack: shapes {t.data.shape} != {base}")
        out = np.stack([t.data for t in tensors], axis=axis)
        axis = _axis_index(axis, out.ndim)

        def backward(g):
            return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

        return self.record("stack", tensors, out, backward)

    def slice_axis(self, a: Tensor, axis: int, start: int, stop: int) -> Tensor:
        axis = _axis_index(axis, a.data.ndim)
        extent = a.data.shape[axis]
        if not (0 <= start < stop <= extent):
            raise ShapeError(
                f"slice [{start}:{stop}] invalid for extent {extent} on axis {axis}"
            )
        return self._select("slice", a, axis, slice(start, stop))

    # unused by the model; the benchmark tracer patches it by name
    def reshape(self, a: Tensor, shape) -> Tensor:
        shape = tuple(int(s) for s in shape)
        old = a.data.shape
        out = a.data.reshape(shape)
        return self.record("reshape", (a,), out, lambda g: (g.reshape(old),))

    # unused by the model; the benchmark tracer patches it by name
    def layer_norm(self, a: Tensor, eps: float = 1e-5) -> Tensor:
        """Normalize over the last axis (no learned affine)."""
        x = a.data
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv

        def backward(g):
            gm = g.mean(axis=-1, keepdims=True)
            gxm = (g * xhat).mean(axis=-1, keepdims=True)
            return (inv * (g - gm - xhat * gxm),)

        return self.record("layer_norm", (a,), xhat, backward)

    # -- convolution -------------------------------------------------------

    def conv2d(self, x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
        """Same-padded, stride-1 cross-correlation over the two inner axes.

        x: [..., A, B, Cin], any leading axes convolved independently;
        kernel: [kh, kw, Cin, Cout]; bias: [Cout] or None. Out-of-range
        input is treated as zero.

        The forward and the kernel gradient multiply patch rows
        (`PatchRows`) by the kernel, and the input gradient takes one
        matmul per tap (`InputGrad`). A 1x1 kernel, as in blending and the
        model's head, has x.reshape(-1, Cin) as its patch rows and
        g @ kernel[0, 0].T as its input gradient: the same values bit for
        bit, without the padded and patch copies.
        """
        kd = kernel.data
        if kd.ndim != 4:
            raise ShapeError(f"conv2d: kernel must have rank 4, got {kd.ndim}")
        kh, kw, cin, cout = kd.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
        xd = x.data
        if xd.ndim < 3:
            raise ShapeError(f"conv2d: input must have rank 3 or more, got {xd.ndim}")
        if xd.shape[-1] != cin:
            raise ShapeError(
                f"conv2d: input channels (last axis) = {xd.shape[-1]} "
                f"but kernel expects Cin = {cin} (axis 2)"
            )
        if bias is not None and bias.data.shape != (cout,):
            raise ShapeError(
                f"conv2d: bias shape {bias.data.shape} != ({cout},) from kernel axis 3"
            )
        pointwise = kh == kw == 1

        def rows():  # made again in backward rather than kept alive
            return xd.reshape(-1, cin) if pointwise else PatchRows(xd.shape, kh, kw)(xd)

        out = (rows() @ kd.reshape(kh * kw * cin, cout)).reshape(xd.shape[:-1] + (cout,))
        if bias is not None:
            out = out + bias.data

        def backward(g):
            g2 = g.reshape(-1, cout)
            gk = None
            gx = None
            if kernel.requires_grad:
                gk = (rows().T @ g2).reshape(kd.shape)
            if x.requires_grad:
                gx = np.matmul(g, kd[0, 0].T) if pointwise else InputGrad(g.shape, kd)(g)
            gb = g2.sum(axis=0) if (bias is not None and bias.requires_grad) else None
            if bias is None:
                return (gx, gk)
            return (gx, gk, gb)

        inputs = (x, kernel) if bias is None else (x, kernel, bias)
        return self.record("conv2d", inputs, out, backward)

