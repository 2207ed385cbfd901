"""Fixed reference kernel, timed right before every benchmark call.

The hosts this benchmark runs on share their cores, and their speed drifts
by up to about ±30% over tens of seconds: the same predict request took
0.21 s in one run and 0.40 s in the next. All code slows down together, so
dividing each call's time by the time of this kernel, measured around it,
cancels most of the drift. That ratio is the `call_rel_*` metric.

The kernel imitates the program's mix: an im2col conv2d, LSTM gate
arithmetic on 16x16 planes, and one small Python object per result, at the
workload's batch size. How much a busy host slows code down depends on the
size of its arrays: over seven train-ctx16 runs (4 windows per step) the
median ratio's quartiles spread 7% with a batch-1 kernel and 3% with a
batch-4 one. The kernel calls
nothing from contextvp, so no change to the program moves it.
Changing this file rescales every `call_rel_*` value: keep it as it is.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

STEPS = 24
CHANNELS = 16

_rng = np.random.default_rng(0)
_KERNEL = (_rng.standard_normal((3 * 3 * CHANNELS, 4 * CHANNELS)) * 0.1)
_H0 = _rng.standard_normal((4, 16, 16, CHANNELS)) * 0.1


class _Node:
    __slots__ = ("output", "parent", "backward_fn")

    def __init__(self, output, parent, backward_fn):
        self.output = output
        self.parent = parent
        self.backward_fn = backward_fn


def _conv(x: np.ndarray) -> np.ndarray:
    xp = np.pad(x, [(0, 0), (1, 1), (1, 1), (0, 0)])
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    rows = np.ascontiguousarray(np.moveaxis(win, -3, -1)).reshape(-1, 9 * CHANNELS)
    return (rows @ _KERNEL).reshape(x.shape[:-1] + (4 * CHANNELS,))


def kernel(batch: int) -> int:
    """A small LSTM-like recurrence over `batch` (at most 4) planes that
    records a node per result."""
    nodes: list[_Node] = []
    h = _H0[:batch]
    c = np.zeros_like(h)
    for _ in range(STEPS):
        z = _conv(h)
        i, f, o, g = (z[..., k * CHANNELS:(k + 1) * CHANNELS] for k in range(4))
        i, f, o = (1.0 / (1.0 + np.exp(-a)) for a in (i, f, o))
        g = np.tanh(g)
        c = f * c + i * g
        h = o * np.tanh(c)
        for out in (z, i, f, o, g, c, h):
            nodes.append(_Node(out, len(nodes) - 1, lambda grad: grad))
        h = np.stack([h[:, r] for r in range(h.shape[1])], axis=1)
    return len(nodes)


def timed(batch: int) -> float:
    """Seconds one run of the kernel takes."""
    t0 = perf_counter()
    kernel(batch)
    return perf_counter() - t0
