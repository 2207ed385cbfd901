"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is deliberately small: exactly what recurrent convolutional
prediction models and their losses need. All arrays are numpy float64 in
row-major layout. Gradients are accumulated in reverse tape-insertion
order, so two runs over identical inputs produce bit-identical forward
values and gradients.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_RANK = 5

ACTIVATIONS = ("sigmoid", "tanh", "identity", "relu")


class ShapeError(ValueError):
    pass


def im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Patch rows [positions, kh*kw*C] of the same-padded [..., A, B, C]
    array x, one row per position, ordered (dh, dw, c) like the first three
    axes of a [kh, kw, C, Cout] kernel. Out-of-range input is zero."""
    return PatchRows(x.shape, kh, kw)(x)


class PatchRows:
    """`im2col` for a stream of same-shaped [..., A, B, C] arrays. The
    zero-padded buffer, its window view and the row buffer are made once,
    so each call is two copies. The rows returned are overwritten by the
    next call."""

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


def conv_input_grad(g: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Gradient of a same-padded conv with kernel kd [kh, kw, Cin, Cout]
    with respect to its [..., A, B, Cin] input, given the output gradient
    g [..., A, B, Cout]: one matmul per kernel tap."""
    kh, kw, cin, _ = kd.shape
    ph, pw = kh // 2, kw // 2
    hh, ww = g.shape[-3], g.shape[-2]
    gxp = np.zeros(g.shape[:-3] + (hh + 2 * ph, ww + 2 * pw, cin))
    for dh in range(kh):
        for dw in range(kw):
            gxp[..., dh:dh + hh, dw:dw + ww, :] += g @ kd[dh, dw].T
    return gxp[..., ph:ph + hh, pw:pw + ww, :]


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

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("kind", "inputs", "output", "backward_fn")

    def __init__(self, kind, inputs, output, backward_fn):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


def _axis_index(axis: int, rank: int) -> int:
    if axis < 0:
        axis += rank
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    return axis


class Tape:
    """Append-only record of differentiable operations.

    `backward` seeds a scalar node with 1 and sweeps the node list once in
    reverse insertion order, accumulating into `Tensor.grad`. A tape built
    with ``recording=False`` runs the same forward math without recording,
    which is what inference and finite-difference value sweeps use.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[_Node] = []

    # -- engine ----------------------------------------------------------

    def record(self, kind, inputs, out_data, backward_fn) -> Tensor:
        """Wrap `out_data` as the op's output. When the tape records and
        some input needs a gradient, also append a node whose
        `backward_fn(out_grad)` returns one gradient (or None) per input."""
        out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
        if self.recording and out.requires_grad:
            self.nodes.append(_Node(kind, inputs, out, backward_fn))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate `.grad` on every tensor that influences `loss`.

        Grad buffers from a previous backward on this tape are cleared
        first, so repeated calls (e.g. one per output pixel) are safe.
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
        for node in reversed(self.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            contribs = node.backward_fn(out_grad)
            for t, contrib in zip(node.inputs, contribs):
                if contrib is None or not t.requires_grad:
                    continue
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += contrib

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

    def relu(self, a: Tensor) -> Tensor:
        mask = a.data > 0
        return self.record("relu", (a,), a.data * mask, lambda g: (g * mask,))

    def activation(self, a: Tensor, kind: str) -> Tensor:
        if kind == "identity":
            return a
        if kind == "sigmoid":
            return self.sigmoid(a)
        if kind == "tanh":
            return self.tanh(a)
        if kind == "relu":
            return self.relu(a)
        raise ValueError(f"unknown activation kind {kind!r}, expected one of {ACTIVATIONS}")

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

    def index(self, a: Tensor, axis: int, i: int) -> Tensor:
        """Take the subarray at position i along `axis` (rank drops by 1)."""
        axis = _axis_index(axis, a.data.ndim)
        if not 0 <= i < a.data.shape[axis]:
            raise ShapeError(f"index {i} out of range on axis {axis}")
        sel = (slice(None),) * axis + (i,)
        out = a.data[sel].copy()
        shape = a.data.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            full[sel] = g
            return (full,)

        return self.record("index", (a,), out, backward)

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
        sel = (slice(None),) * axis + (slice(start, stop),)
        out = a.data[sel].copy()
        shape = a.data.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            full[sel] = g
            return (full,)

        return self.record("slice", (a,), out, backward)

    def reshape(self, a: Tensor, shape) -> Tensor:
        shape = tuple(int(s) for s in shape)
        old = a.data.shape
        out = a.data.reshape(shape)
        return self.record("reshape", (a,), out, lambda g: (g.reshape(old),))

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

        x: [A, B, Cin] or batched [N, A, B, Cin]; kernel: [kh, kw, Cin, Cout];
        bias: [Cout] or None. Out-of-range input is treated as zero.
        """
        kd = kernel.data
        if kd.ndim != 4:
            raise ShapeError(f"conv2d: kernel must have rank 4, got {kd.ndim}")
        kh, kw, cin, cout = kd.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
        xd = x.data
        if xd.ndim not in (3, 4):
            raise ShapeError(f"conv2d: input must have rank 3 or 4, got {xd.ndim}")
        if xd.shape[-1] != cin:
            raise ShapeError(
                f"conv2d: input channels (last axis) = {xd.shape[-1]} "
                f"but kernel expects Cin = {cin} (axis 2)"
            )
        if bias is not None and bias.data.shape != (cout,):
            raise ShapeError(
                f"conv2d: bias shape {bias.data.shape} != ({cout},) from kernel axis 3"
            )
        out = (im2col(xd, kh, kw) @ kd.reshape(kh * kw * cin, cout)).reshape(
            xd.shape[:-1] + (cout,)
        )
        if bias is not None:
            out = out + bias.data

        def backward(g):
            g2 = g.reshape(-1, cout)
            gk = None
            gx = None
            if kernel.requires_grad:
                # recompute patch rows rather than keeping them alive
                gk = (im2col(xd, kh, kw).T @ g2).reshape(kd.shape)
            if x.requires_grad:
                gx = conv_input_grad(g, kd)
            gb = g2.sum(axis=0) if (bias is not None and bias.requires_grad) else None
            if bias is None:
                return (gx, gk)
            return (gx, gk, gb)

        inputs = (x, kernel) if bias is None else (x, kernel, bias)
        return self.record("conv2d", inputs, out, backward)


def finite_diff_check(f, params, h: float = 1e-6, kink_tol: float = 1e-2):
    """Compare analytic gradients of ``f`` against central differences.

    ``f(tape, params) -> scalar Tensor`` must be a pure function of the
    parameter values. Returns ``(max_rel_err, excluded)`` where the error is
    max over parameter entries of |analytic - numeric| / max(1, |analytic|),
    and ``excluded`` lists (param_index, flat_index) entries whose second
    difference |f(+h) + f(-h) - 2 f(0)| / (2h) exceeded ``kink_tol`` --
    i.e. points sitting on a kink of a piecewise-smooth objective, where a
    central difference is meaningless.
    """
    tape = Tape()
    loss = f(tape, params)
    if loss.data.shape != ():
        raise ShapeError("finite_diff_check: f must return a scalar")
    f0 = float(loss.data)
    if not np.isfinite(f0):
        raise FloatingPointError("finite_diff_check: f evaluated non-finite")
    tape.backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    def value() -> float:
        v = float(f(Tape(recording=False), params).data)
        if not np.isfinite(v):
            raise FloatingPointError("finite_diff_check: f evaluated non-finite")
        return v

    max_rel = 0.0
    excluded = []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = value()
            flat[idx] = orig - h
            fm = value()
            flat[idx] = orig
            if abs(fp + fm - 2.0 * f0) / (2.0 * h) > kink_tol:
                excluded.append((pi, idx))
                continue
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[pi].reshape(-1)[idx]
            rel = abs(a - numeric) / max(1.0, abs(a))
            if rel > max_rel:
                max_rel = rel
    return max_rel, excluded
