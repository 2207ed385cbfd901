"""Independent reference implementations used as test oracles.

Everything in here is written against the mathematical definitions only
and deliberately shares no code with the package: naive loops instead of
im2col, forward reachability instead of backward mask accumulation, and a
standalone ConvLSTM recurrence. The one exception is the tape-composed
LSTM step (`pmd_step`, `composed_scan`): it chains the package's generic
tape ops (conv2d, slice, sigmoid, tanh, mul, add), so the fused scan node
can be checked against the same float operations bit for bit, and its
hand-written backward against the tape's per-op gradients.
"""

import numpy as np

from contextvp.pmd import PMDUnit
from contextvp.tensor import ShapeError, Tape, Tensor


def naive_conv2d(x, kernel, bias=None):
    """Direct sextuple-loop same-padded cross-correlation.

    x: [H, W, Cin], kernel: [kh, kw, Cin, Cout], bias: [Cout] or None.
    """
    h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    assert cin == kcin
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w, cout))
    for i in range(h):
        for j in range(w):
            for o in range(cout):
                acc = 0.0 if bias is None else float(bias[o])
                for dh in range(kh):
                    for dw in range(kw):
                        si, sj = i + dh - ph, j + dw - pw
                        if 0 <= si < h and 0 <= sj < w:
                            for c in range(cin):
                                acc += x[si, sj, c] * kernel[dh, dw, c, o]
                out[i, j, o] = acc
    return out


def _np_conv_same(x, kernel, bias):
    """Vectorized same-padded correlation used inside larger oracles."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    out = np.zeros((h, w, cout)) if bias is None else np.tile(bias, (h, w, 1)).astype(float)
    for dh in range(kh):
        for dw in range(kw):
            out = out + xp[dh:dh + h, dw:dw + w, :] @ kernel[dh, dw]
    return out


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def convlstm_forward(frames, kx, ks, biases):
    """Standalone ConvLSTM pass over time.

    frames: [T, H, W, Cin]. kx/ks: dicts keyed by ("in", "forget", "out",
    "cell") holding [k, k, Cin, Ch] and [k, k, Ch, Ch] kernels; biases holds
    [Ch] vectors. States start at zero. Returns hidden states [T, H, W, Ch].
    """
    t_len, h, w, _ = frames.shape
    ch = biases["in"].shape[0]
    c = np.zeros((h, w, ch))
    s = np.zeros((h, w, ch))
    out = np.zeros((t_len, h, w, ch))
    for t in range(t_len):
        x = frames[t]
        gi = sigmoid(_np_conv_same(x, kx["in"], biases["in"]) + _np_conv_same(s, ks["in"], None))
        gf = sigmoid(_np_conv_same(x, kx["forget"], biases["forget"]) + _np_conv_same(s, ks["forget"], None))
        go = sigmoid(_np_conv_same(x, kx["out"], biases["out"]) + _np_conv_same(s, ks["out"], None))
        cand = np.tanh(_np_conv_same(x, kx["cell"], biases["cell"]) + _np_conv_same(s, ks["cell"], None))
        c = gf * c + gi * cand
        s = go * np.tanh(c)
        out[t] = s
    return out


def scalar_lstm_step(x, c_prev, s_prev, wx, ws, b):
    """Hand evaluation of one recurrence step for 1x1 planes, Ch = 1.

    wx/ws/b: dicts keyed by gate name holding plain floats.
    """
    gi = sigmoid(wx["in"] * x + ws["in"] * s_prev + b["in"])
    gf = sigmoid(wx["forget"] * x + ws["forget"] * s_prev + b["forget"])
    go = sigmoid(wx["out"] * x + ws["out"] * s_prev + b["out"])
    cand = np.tanh(wx["cell"] * x + ws["cell"] * s_prev + b["cell"])
    c = gf * c_prev + gi * cand
    s = go * np.tanh(c)
    return c, s


def pixel_blend(s_list, weight, bias, weighted):
    """Per-pixel matmul evaluation of a blending block.

    s_list: five [T, H, W, N1] arrays in fixed direction order.
    """
    t_len, h, w, n1 = s_list[0].shape
    n2 = weight.shape[1]
    out = np.zeros((t_len, h, w, n2))
    for t in range(t_len):
        for i in range(h):
            for j in range(w):
                if weighted:
                    vec = np.concatenate([s[t, i, j] for s in s_list])
                else:
                    vec = np.sum([s[t, i, j] for s in s_list], axis=0)
                out[t, i, j] = vec @ weight + bias
    return out


# -- brute-force connectivity oracle ---------------------------------------

_SCAN = {
    "t-": (0, False),
    "h+": (1, False),
    "h-": (1, True),
    "w+": (2, False),
    "w-": (2, True),
}


def _scan_edges(shape, direction, radius):
    """Yield (src, dst) edges of one directional scan's unrolled graph.

    Nodes are ("x", t, h, w) for layer-input positions and ("s", t, h, w)
    for emitted states. A state at scan step q sees the input of step q
    and the state of step q-1, each through a (2r+1)^2 neighborhood in the
    plane perpendicular to the scan axis.
    """
    t_len, hh, ww = shape
    axis, reverse = _SCAN[direction]
    extents = {0: t_len, 1: hh, 2: ww}
    order = list(range(extents[axis]))
    if reverse:
        order.reverse()
    plane_axes = [a for a in (0, 1, 2) if a != axis]

    def positions(plane_val):
        coord = [0, 0, 0]
        coord[axis] = plane_val
        for a in range(extents[plane_axes[0]]):
            for b in range(extents[plane_axes[1]]):
                coord[plane_axes[0]] = a
                coord[plane_axes[1]] = b
                yield tuple(coord)

    def neighbors(pos, plane_val):
        coord = list(pos)
        coord[axis] = plane_val
        for da in range(-radius, radius + 1):
            for db in range(-radius, radius + 1):
                a = coord[plane_axes[0]] + da
                b = coord[plane_axes[1]] + db
                if 0 <= a < extents[plane_axes[0]] and 0 <= b < extents[plane_axes[1]]:
                    n = list(coord)
                    n[plane_axes[0]] = a
                    n[plane_axes[1]] = b
                    yield tuple(n)

    for qi, plane in enumerate(order):
        for pos in positions(plane):
            for src in neighbors(pos, plane):
                yield ("x",) + src, ("s",) + pos
            if qi > 0:
                prev_plane = order[qi - 1]
                for src in neighbors(pos, prev_plane):
                    yield ("s",) + src, ("s",) + pos


def reachability_mask(layer_directions, shape, target, radius=1):
    """Exact input-support mask via reverse BFS on the unrolled graph.

    layer_directions: list over layers of direction tuples (a ConvLSTM
    layer is ("t-",); a five-direction layer is all five). Blending and
    1x1 projections connect positions identically, so a layer's output
    node at (t, h, w) is the union of its directional states there.
    Returns a boolean [T, H, W] mask of input positions that can reach the
    output pixel `target` on the t = T-1 plane of the last layer.
    """
    t_len = shape[0]
    n_layers = len(layer_directions)
    # adjacency as reverse maps, one per (layer, direction)
    reverse_adj = []
    for dirs in layer_directions:
        per_dir = {}
        for d in dirs:
            radj = {}
            for src, dst in _scan_edges(shape, d, radius):
                radj.setdefault(dst, []).append(src)
            per_dir[d] = radj
        reverse_adj.append(per_dir)

    # needed output positions per layer, walked top-down
    needed = [set() for _ in range(n_layers + 1)]
    needed[n_layers] = {(t_len - 1, target[0], target[1])}
    for layer in range(n_layers - 1, -1, -1):
        out_need = needed[layer + 1]
        in_need = set()
        for d, radj in reverse_adj[layer].items():
            frontier = [("s",) + pos for pos in out_need]
            seen = set(frontier)
            while frontier:
                node = frontier.pop()
                for src in radj.get(node, ()):
                    if src in seen:
                        continue
                    seen.add(src)
                    if src[0] == "x":
                        in_need.add(src[1:])
                    else:
                        frontier.append(src)
        needed[layer] = in_need
    mask = np.zeros(shape, dtype=bool)
    for pos in needed[0]:
        mask[pos] = True
    return mask


# -- tape-composed recurrence step -------------------------------------------

def _fuse_unit(tape: Tape, unit: PMDUnit):
    """Stack the four gate kernels along the output-channel axis so each
    step costs two convolutions instead of eight."""
    kx = tape.concat([unit.kx_in, unit.kx_forget, unit.kx_out, unit.kx_cell], axis=3)
    ks = tape.concat([unit.ks_in, unit.ks_forget, unit.ks_out, unit.ks_cell], axis=3)
    b = tape.concat([unit.b_in, unit.b_forget, unit.b_out, unit.b_cell], axis=0)
    return kx, ks, b, unit.hidden


def _gate_step(tape: Tape, fused, x: Tensor, c_prev, s_prev):
    kx, ks, b, ch = fused
    pre = tape.conv2d(x, kx, b)
    if s_prev is not None:
        pre = tape.add(pre, tape.conv2d(s_prev, ks))
    last = pre.data.ndim - 1
    gate_in = tape.sigmoid(tape.slice_axis(pre, last, 0, ch))
    gate_forget = tape.sigmoid(tape.slice_axis(pre, last, ch, 2 * ch))
    gate_out = tape.sigmoid(tape.slice_axis(pre, last, 2 * ch, 3 * ch))
    candidate = tape.tanh(tape.slice_axis(pre, last, 3 * ch, 4 * ch))
    if c_prev is None:
        c = tape.mul(gate_in, candidate)
    else:
        c = tape.add(tape.mul(gate_forget, c_prev), tape.mul(gate_in, candidate))
    s = tape.mul(gate_out, tape.tanh(c))
    return c, s


def pmd_step(tape: Tape, unit: PMDUnit, x_k: Tensor, c_prev=None, s_prev=None):
    """One recurrence step on a single plane.

    x_k: [A, B, Cin] (or batched [N, A, B, Cin]); c_prev/s_prev: matching
    [A, B, Ch] planes, or None for the zero initial state. Returns
    (cell, hidden).
    """
    if x_k.data.shape[-1] != unit.in_channels:
        raise ShapeError(
            f"step input has {x_k.data.shape[-1]} channels, unit expects "
            f"{unit.in_channels}"
        )
    if (c_prev is None) != (s_prev is None):
        raise ValueError("c_prev and s_prev must be given together")
    if s_prev is not None and s_prev.data.shape[-1] != unit.hidden:
        raise ShapeError(
            f"state has {s_prev.data.shape[-1]} channels, unit expects {unit.hidden}"
        )
    return _gate_step(tape, _fuse_unit(tape, unit), x_k, c_prev, s_prev)


def composed_scan(tape: Tape, unit: PMDUnit, cuboid: Tensor, direction: str) -> Tensor:
    """One directional scan as a chain of tape ops, one `_gate_step` per
    plane. Returns hidden states laid out like the cuboid: [..., Ch]."""
    axis, reverse = _SCAN[direction]
    axis += cuboid.data.ndim - 4
    order = list(range(cuboid.data.shape[axis]))
    if reverse:
        order.reverse()
    fused = _fuse_unit(tape, unit)
    c = s = None
    states = {}
    for i in order:
        c, s = _gate_step(tape, fused, tape.index(cuboid, axis, i), c, s)
        states[i] = s
    return tape.stack([states[i] for i in sorted(states)], axis=axis)


def composed_layer(tape: Tape, units: dict, cuboid: Tensor) -> Tensor:
    """The scans of every direction in `units`, concatenated on channels in
    the fixed order (t-, h-, h+, w-, w+)."""
    order = [d for d in ("t-", "h-", "h+", "w-", "w+") if d in units]
    scans = [composed_scan(tape, units[d], cuboid, d) for d in order]
    return scans[0] if len(scans) == 1 else tape.concat(scans, axis=cuboid.data.ndim - 1)
