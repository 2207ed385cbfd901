"""Model assembly: the five-direction stack, the time-only deep baseline,
prediction entry points, parameter accounting and the model file.

Each layer runs its directional scans over the incoming cuboid and
blends them with a pointwise linear projection: a ContextVP layer is one
`pmd.blend` tape node, scans and blend, which keeps no states; a baseline
layer, whose one t- scan is not blended, is one `pmd.pmd_layer` node. A
skip pair (src, dst) concatenates layer `src`'s output cuboid onto layer
`dst`'s along channels, for whatever consumes it: the next layer, or the
head. The head projects the t = T slice of the final carry to the
frame's channels with a 1x1 `Tape.conv2d`, the blend's arithmetic, and
applies a sigmoid, so predictions always land in (0, 1).

`param_shapes(spec)` is the parameter table, the one description of the
parameters: every tensor's name and shape, in draw order, which is also
file order. Layers come in ascending order; within a layer, each
direction group of `direction_groups(spec)` in DIRECTIONS order with its
`kx`, `ks` and `b`, then `blend.weight` and `blend.bias`; last
`head.weight` and `head.bias`. Opposite directions always share weights
(directional weight sharing, DWS), so a ContextVP layer has the groups
t-, h (h-/h+) and w (w-/w+); the time-only baseline has the one group
t- and no blend. Blend and head weights are stored as the 1x1 kernels
the forward convolves with, [1, 1, 5*N1, N2] and [1, 1, Cin, C].
`build` draws the table's entries from a seed and `count_from_spec`
sums its shapes.

A model file is the spec plus the values: the header `_HEADER` (the magic
b"CVPM", the u32 MODEL_VERSION, the u64 length of the spec JSON), the spec
JSON, then every value of the table as little-endian float64, tensor after
tensor in table order, each in row-major order. Nothing else: names and
shapes follow from the spec. `save_model` writes it atomically, through a
temp file and a rename. `load_model` checks that the values fill the rest
of the file exactly, reads them in place into fresh arrays, and refuses a
value that is not finite; every malformed file raises a `FormatError`:
`BadMagicError` for a wrong magic, `TruncatedFileError` for a file that
ends early, plain `FormatError` for anything else.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from contextvp.loss_optim import xavier_uniform
from contextvp.pmd import (
    DIRECTIONS,
    GATES,
    PMDUnit,
    blend,
    pmd_layer,
    pmd_scan,  # not called here; the benchmark tracer patches it by name
)
from contextvp.prng import SplitMix64
from contextvp.tensor import Tensor, Tape, ShapeError

MODEL_MAGIC = b"CVPM"
# bumped whenever the spec JSON keys, the parameter table or the file layout
# change; only the current version is read
MODEL_VERSION = 5
_HEADER = struct.Struct("<4sIQ")  # magic, version, spec JSON length

KINDS = ("contextvp", "convlstm_baseline")


@dataclass
class ModelSpec:
    kind: str = "contextvp"
    layers: list = field(default_factory=lambda: [(8, 8), (16, 16), (16, 16), (8, 8)])
    kernel: int = 3
    skip_pairs: list | None = None
    in_channels: int = 1

    def __post_init__(self):
        # index() takes Python and numpy integers and rejects floats and strings
        self.kernel = operator.index(self.kernel)
        self.in_channels = operator.index(self.in_channels)
        self.layers = [tuple(map(operator.index, pair)) for pair in self.layers]
        if self.skip_pairs is None:
            self.skip_pairs = [(1, 3), (2, 4)] if len(self.layers) >= 4 else []
        self.skip_pairs = [tuple(map(operator.index, pair)) for pair in self.skip_pairs]
        self.validate()

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} not in {KINDS}")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if any(n1 < 1 or n2 < 1 for n1, n2 in self.layers):
            raise ValueError("layer unit counts must be >= 1")
        if self.kind == "convlstm_baseline" and any(n1 != n2 for n1, n2 in self.layers):
            # a baseline layer has no blend, so its width is n1 alone
            raise ValueError(f"baseline layers need n1 == n2, got {self.layers}")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.kernel}")
        if self.in_channels < 1:
            raise ValueError("in_channels must be >= 1")
        n = len(self.layers)
        for src, dst in self.skip_pairs:
            if not (1 <= src < dst <= n):
                raise ValueError(
                    f"skip pair ({src}, {dst}) invalid for {n} layers "
                    "(need 1 <= src < dst <= layers)"
                )

    @classmethod
    def convlstm_baseline(cls, width: int = 16, n_layers: int = 20, **kw):
        return cls(kind="convlstm_baseline", layers=[(width, width)] * n_layers, **kw)


def direction_groups(spec: ModelSpec) -> dict:
    """Direction -> parameter group, in DIRECTIONS order. A ContextVP layer
    shares one group between opposite spatial directions (DWS); the
    baseline scans t- only."""
    if spec.kind != "contextvp":
        return {"t-": "t-"}
    return {"t-": "t-", "h-": "h", "h+": "h", "w-": "w", "w+": "w"}


def param_shapes(spec: ModelSpec) -> dict:
    """Name -> shape of every parameter tensor, in draw and file order.

    A layer's input channels are what the layer before it passes on: its
    output channels (n2 for ContextVP, n1 for the baseline) plus those of
    every skip source concatenated onto it."""
    spec.validate()
    k = spec.kernel
    groups = dict.fromkeys(direction_groups(spec).values())
    shapes = {}
    cin = spec.in_channels
    outs = []  # each layer's output channels, before skip concatenation
    sources = {}  # dst -> its skip sources, built once: a forged file may hold many pairs
    for src, dst in spec.skip_pairs:
        sources.setdefault(dst, []).append(src)
    for idx, (n1, n2) in enumerate(spec.layers, start=1):
        for group in groups:
            shapes[f"layer{idx}.{group}.kx"] = (k, k, cin, len(GATES) * n1)
            shapes[f"layer{idx}.{group}.ks"] = (k, k, n1, len(GATES) * n1)
            shapes[f"layer{idx}.{group}.b"] = (len(GATES) * n1,)
        if spec.kind == "contextvp":
            shapes[f"layer{idx}.blend.weight"] = (1, 1, len(DIRECTIONS) * n1, n2)
            shapes[f"layer{idx}.blend.bias"] = (n2,)
        outs.append(n2 if spec.kind == "contextvp" else n1)
        cin = outs[-1] + sum(outs[src - 1] for src in sources.get(idx, ()))
    shapes["head.weight"] = (1, 1, cin, spec.in_channels)
    shapes["head.bias"] = (spec.in_channels,)
    return shapes


class Layer:
    """`units` maps each scanned direction, in DIRECTIONS order, to its
    group's unit; the forward reads it. `unit_groups` maps each parameter
    group to its unit; it is kept because the benchmark tracer reads it.
    `blend` is the layer's (blend.weight, blend.bias) pair of parameter
    tensors, as `pmd.blend` takes them, or None for a baseline layer."""

    def __init__(self, unit_groups: dict, units: dict, blend=None):
        self.unit_groups = unit_groups
        self.units = units
        self.blend = blend


class Model:
    """Immutable during inference; training mutates parameter data.

    `parameters` is the ordered name -> Tensor map of `param_shapes(spec)`;
    the layers' units and blend pairs hold those same tensors.
    """

    def __init__(self, spec: ModelSpec, parameters: dict):
        self.spec = spec
        self.parameters = parameters
        groups = direction_groups(spec)
        self.layers = []
        for idx in range(1, len(spec.layers) + 1):
            pre = f"layer{idx}."
            units = {
                g: PMDUnit(*(parameters[f"{pre}{g}.{f}"] for f in ("kx", "ks", "b")))
                for g in dict.fromkeys(groups.values())
            }
            pair = ((parameters[pre + "blend.weight"], parameters[pre + "blend.bias"])
                    if spec.kind == "contextvp" else None)
            self.layers.append(Layer(units, {d: units[g] for d, g in groups.items()}, pair))
        self.head_weight = parameters["head.weight"]
        self.head_bias = parameters["head.bias"]


def build(spec: ModelSpec, seed: int) -> Model:
    """Instantiate all parameters from the seeded stream, in
    `param_shapes` order.

    A unit kernel is one fan-balanced uniform draw per gate, in (in,
    forget, out, cell) order, stacked on the last axis; blend and head
    weights are one draw each, with the fans of their 1x1 kernel's last
    two axes; biases start at zero. A seed therefore fully determines the
    parameter bytes.
    """
    rng = SplitMix64(seed)
    params = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith((".kx", ".ks")):
            k, _, fan_in, stacked = shape
            ch = stacked // len(GATES)
            data = np.concatenate(
                [xavier_uniform((k, k, fan_in, ch), k * k * fan_in, k * k * ch, rng)
                 for _ in GATES],
                axis=3,
            )
        elif name.endswith(".weight"):
            data = xavier_uniform(shape, *shape[2:], rng)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return Model(spec, params)


# -- forward -----------------------------------------------------------------

def forward_cuboid(tape: Tape, model: Model, x: Tensor) -> Tensor:
    """Differentiable forward pass. x: [N, T, H, W, C], the only layout;
    returns the predicted next frames [N, H, W, C]. Any other layout raises
    ShapeError, then a non-finite input ValueError, before any scan runs."""
    spec = model.spec
    if x.data.ndim != 5:
        raise ShapeError(f"input must be [N, T, H, W, C], got rank {x.data.ndim}")
    _, t_len, h, w, _ = x.data.shape
    if t_len < 1:
        raise ShapeError("input needs at least one frame")
    if h < 1 or w < 1:
        raise ShapeError(f"frames must have H, W >= 1, got {h}x{w}")
    if x.data.shape[-1] != spec.in_channels:
        raise ShapeError(
            f"input has {x.data.shape[-1]} channels, spec expects {spec.in_channels}"
        )
    if not np.all(np.isfinite(x.data)):
        raise ValueError("input must be finite")

    outs = []
    cur = x
    for idx, layer in enumerate(model.layers, start=1):
        if layer.blend is None:
            cur = pmd_layer(tape, layer.units, cur)
        else:
            cur = blend(tape, layer.units, cur, *layer.blend)
        outs.append(cur)
        for src, dst in spec.skip_pairs:
            if dst == idx:
                cur = tape.concat([cur, outs[src - 1]], axis=4)

    last_plane = tape.index(cur, 1, t_len - 1)
    return tape.sigmoid(tape.conv2d(last_plane, model.head_weight, model.head_bias))


def _one_window(frames) -> np.ndarray:
    window = np.asarray(frames, dtype=np.float64)
    if window.ndim != 4:
        raise ShapeError(f"window must be one [T, H, W, C] cuboid, got rank {window.ndim}")
    return window


def forward_predict(model: Model, frames: np.ndarray) -> np.ndarray:
    """Predict the next frame [H, W, C] for one [T, H, W, C] window of
    values in [0, 1], run as a batch of one. Raises ShapeError for any
    other rank, then ValueError for frames that are not finite or outside
    [0, 1]."""
    frames = _one_window(frames)
    if not np.all((frames >= 0.0) & (frames <= 1.0)):  # false for NaN too
        raise ValueError("frames must be finite values in [0, 1]")
    return forward_cuboid(Tape(recording=False), model, Tensor(frames[None])).data[0]


def predict_recursive(model: Model, frames: np.ndarray, p: int) -> np.ndarray:
    """Predict p frames by sliding the fixed-length [T, H, W, C] input
    window over its own predictions. Returns [p, H, W, C]."""
    if p < 1:
        raise ValueError("p must be >= 1")
    window = _one_window(frames)
    preds = []
    for _ in range(p):
        nxt = forward_predict(model, window)
        preds.append(nxt)
        window = np.concatenate([window[1:], nxt[None]], axis=0)
    return np.stack(preds, axis=0)


# -- accounting ----------------------------------------------------------------

def count_from_spec(spec: ModelSpec) -> int:
    """Parameter count computed from shapes alone, without building."""
    return sum(math.prod(shape) for shape in param_shapes(spec).values())


def baseline_width_for(target_params: float, n_layers: int = 20, kernel: int = 3,
                       in_channels: int = 1) -> int:
    """Hidden width of a time-only stack whose parameter count is closest to
    `target_params`, the upper width on a tie. The count grows with the
    width: double it, then bisect for the first width that reaches the
    target. A target that is not finite or is below 1 raises ValueError."""
    if not 1 <= target_params < math.inf:  # false for NaN too
        raise ValueError(f"target_params must be finite and >= 1, got {target_params!r}")

    def gap(width):  # parameter count minus target
        spec = ModelSpec.convlstm_baseline(width, n_layers, kernel=kernel, in_channels=in_channels)
        return count_from_spec(spec) - target_params

    lo, hi = 0, 1  # gap(lo) < 0 <= gap(hi); width 0 stands for no parameters
    while gap(hi) < 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if gap(mid) >= 0 else (mid, hi)
    return hi - 1 if hi > 1 and gap(hi) > -gap(hi - 1) else hi


# -- model file ----------------------------------------------------------------

class FormatError(ValueError):
    pass


class BadMagicError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


def model_bytes(model: Model) -> bytes:
    blob = json.dumps(asdict(model.spec), sort_keys=True, separators=(",", ":")).encode()
    parts = [_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, len(blob)), blob]
    parts += [t.data.astype("<f8").tobytes() for t in model.parameters.values()]
    return b"".join(parts)


def save_model(model: Model, path: str) -> None:
    """Write the model file through a temp file in the same directory and an
    atomic rename over `path`, so a reader never sees a partial file and a
    save that fails keeps the old file whole and leaves no temp file behind."""
    blob = model_bytes(model)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> Model:
    """Read a model file. Any malformed content, a parameter value that is
    not finite included, raises a FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:len(MODEL_MAGIC)]
    if len(magic) < len(MODEL_MAGIC):
        raise TruncatedFileError(f"file has {len(blob)} bytes, shorter than the magic")
    if magic != MODEL_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if len(blob) < _HEADER.size:
        raise TruncatedFileError(f"file has {len(blob)} bytes, header needs {_HEADER.size}")
    _, version, spec_len = _HEADER.unpack_from(blob)
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    offset = _HEADER.size + spec_len
    if offset > len(blob):
        raise TruncatedFileError(f"spec JSON of {spec_len} bytes runs past the end of the file")
    try:
        spec = ModelSpec(**json.loads(blob[_HEADER.size:offset].decode()))
        shapes = param_shapes(spec)
    except (ValueError, TypeError, RecursionError) as exc:
        raise FormatError(f"invalid model spec: {exc}") from exc
    # checked before any value is read, so a forged spec cannot make the
    # loader allocate what it asks for
    n_scalars = sum(math.prod(shape) for shape in shapes.values())
    left = len(blob) - offset
    if 8 * n_scalars > left:
        raise TruncatedFileError(
            f"spec needs {n_scalars} float64 values, file has {left} bytes left"
        )
    if 8 * n_scalars < left:
        raise FormatError(f"{left - 8 * n_scalars} trailing bytes after the last value")
    # read in place, one copy per tensor: copying the ~1 MB payload out of
    # the blob first doubled the load time
    params = {}
    for name, shape in shapes.items():
        values = np.frombuffer(blob, "<f8", count=math.prod(shape), offset=offset)
        if not np.all(np.isfinite(values)):
            raise FormatError(f"tensor {name!r} holds a value that is not finite")
        # astype copies, so the parameter is writable and owns its memory
        params[name] = Tensor(values.reshape(shape).astype(np.float64), requires_grad=True)
        offset += values.nbytes
    return Model(spec, params)
