"""Model assembly: the five-direction stack, the time-only deep baseline,
prediction entry points, parameter accounting and serialization.

Layer wiring follows the four-layer reference architecture: each layer
runs its directional scans over the incoming cuboid and blends them with
a pointwise linear projection; where a skip pair (src, dst) is
configured, the output cuboid of layer `dst` is concatenated with that of
layer `src` along channels before feeding whatever consumes it (the next
layer, or the output head after the last layer). The head takes the
t = T slice of the final carry, projects it to the frame's channel count
with a 1x1 `Tape.conv2d`, as the blend does, and applies a sigmoid, so
predictions always land in (0, 1).

`param_shapes(spec)` is the parameter table, the one description of the
parameters: every tensor's name and shape, in draw order, which is also
file order. Layers come in ascending order; within a layer, each
direction group of `direction_groups(spec)` in DIRECTIONS order with its
`kx`, `ks` and `b`, then `blend.weight` and `blend.bias`; last
`head.weight` and `head.bias`. Under directional weight sharing (DWS)
h-/h+ form group h and w-/w+ group w; without it each direction is its
own group; the time-only baseline has the one group t- and no blend.
Blend and head weights are stored as the 1x1 kernels the forward
convolves with, [1, 1, rows, N2] and [1, 1, Cin, C]. `build` draws the
table's entries from a seed and `count_from_spec` sums its shapes.

A model file is the spec plus the values: the magic b"CVPM", the u32
MODEL_VERSION, the u64 length of the spec JSON, the spec JSON, then every
value of the table as little-endian float64, tensor after tensor in table
order, each in row-major order. Nothing else: names and shapes follow from
the spec. `load_model` checks that the values fill the rest of the file
exactly, reads them in place into fresh arrays, and refuses a value that is
not finite.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from contextvp import serial
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
from contextvp.serial import Reader, Writer, atomic_write
from contextvp.tensor import Tensor, Tape, ShapeError

MODEL_MAGIC = b"CVPM"
# bumped whenever the spec JSON keys, the parameter table or the file layout
# change; only the current version is read
MODEL_VERSION = 4

KINDS = ("contextvp", "convlstm_baseline")
BLEND_MODES = ("uniform", "weighted")


@dataclass
class ModelSpec:
    kind: str = "contextvp"
    layers: list = field(default_factory=lambda: [(8, 8), (16, 16), (16, 16), (8, 8)])
    kernel: int = 3
    blend_mode: str = "weighted"
    dws: bool = True
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
        if not isinstance(self.dws, bool):
            raise TypeError(f"dws must be a bool, got {self.dws!r}")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if any(n1 < 1 or n2 < 1 for n1, n2 in self.layers):
            raise ValueError("layer unit counts must be >= 1")
        if self.kind == "convlstm_baseline" and any(n1 != n2 for n1, n2 in self.layers):
            # a baseline layer has no blend, so its width is n1 alone
            raise ValueError(f"baseline layers need n1 == n2, got {self.layers}")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.kernel}")
        if self.blend_mode not in BLEND_MODES:
            raise ValueError(f"blend_mode {self.blend_mode!r} not in {BLEND_MODES}")
        if self.in_channels < 1:
            raise ValueError("in_channels must be >= 1")
        n = len(self.layers)
        for src, dst in self.skip_pairs:
            if not (1 <= src < dst <= n):
                raise ValueError(
                    f"skip pair ({src}, {dst}) invalid for {n} layers "
                    "(need 1 <= src < dst <= layers)"
                )

    def to_dict(self):
        return {
            "kind": self.kind,
            "layers": [list(p) for p in self.layers],
            "kernel": self.kernel,
            "blend_mode": self.blend_mode,
            "dws": self.dws,
            "skip_pairs": [list(p) for p in self.skip_pairs],
            "in_channels": self.in_channels,
        }

    @classmethod
    def convlstm_baseline(cls, width: int = 16, n_layers: int = 20, **kw):
        return cls(kind="convlstm_baseline", layers=[(width, width)] * n_layers,
                   dws=False, **kw)


def direction_groups(spec: ModelSpec) -> dict:
    """Direction -> parameter group, in DIRECTIONS order. Under DWS the
    opposite spatial directions share a group; the baseline scans t- only."""
    if spec.kind != "contextvp":
        return {"t-": "t-"}
    if spec.dws:
        return {"t-": "t-", "h-": "h", "h+": "h", "w-": "w", "w+": "w"}
    return {d: d for d in DIRECTIONS}


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
    for idx, (n1, n2) in enumerate(spec.layers, start=1):
        for group in groups:
            shapes[f"layer{idx}.{group}.kx"] = (k, k, cin, len(GATES) * n1)
            shapes[f"layer{idx}.{group}.ks"] = (k, k, n1, len(GATES) * n1)
            shapes[f"layer{idx}.{group}.b"] = (len(GATES) * n1,)
        if spec.kind == "contextvp":
            rows = n1 if spec.blend_mode == "uniform" else len(DIRECTIONS) * n1
            shapes[f"layer{idx}.blend.weight"] = (1, 1, rows, n2)
            shapes[f"layer{idx}.blend.bias"] = (n2,)
        outs.append(n2 if spec.kind == "contextvp" else n1)
        cin = outs[-1] + sum(outs[src - 1] for src, dst in spec.skip_pairs if dst == idx)
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
            pair = None
            if pre + "blend.weight" in parameters:
                pair = (parameters[pre + "blend.weight"], parameters[pre + "blend.bias"])
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
        out = pmd_layer(tape, layer.units, cur)
        if layer.blend is not None:
            out = blend(tape, out, *layer.blend)
        outs.append(out)
        carry = out
        for src, dst in spec.skip_pairs:
            if dst == idx:
                carry = tape.concat([carry, outs[src - 1]], axis=4)
        cur = carry

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


def baseline_width_for(target_params: int, n_layers: int = 20, kernel: int = 3,
                       in_channels: int = 1, max_width: int = 4096) -> int:
    """Smallest-gap hidden width for a time-only stack whose parameter
    count approximates `target_params`. The count is monotone in width,
    so walk up until it crosses the target and keep the closer side."""
    def count(width):
        return count_from_spec(ModelSpec.convlstm_baseline(
            width=width, n_layers=n_layers, kernel=kernel, in_channels=in_channels
        ))

    for width in range(1, max_width + 1):
        if count(width) >= target_params:
            if width == 1:
                return 1
            below, above = count(width - 1), count(width)
            return width if above - target_params <= target_params - below else width - 1
    return max_width


# -- serialization -------------------------------------------------------------

def _spec_json(spec: ModelSpec) -> bytes:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode()


def model_bytes(model: Model) -> bytes:
    w = Writer()
    w.raw(MODEL_MAGIC)
    w.u32(MODEL_VERSION)
    blob = _spec_json(model.spec)
    w.u64(len(blob))
    w.raw(blob)
    for t in model.parameters.values():
        w.raw(t.data.astype("<f8").tobytes())
    return w.getvalue()


def save_model(model: Model, path: str) -> None:
    atomic_write(path, model_bytes(model))


def load_model(path: str) -> Model:
    """Read a model file. Any malformed content, a parameter value that is
    not finite included, raises a serial.FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = Reader(blob)
    reader.expect_magic(MODEL_MAGIC)
    version = reader.u32()
    if version != MODEL_VERSION:
        raise serial.FormatError(f"unsupported model version {version}")
    spec_blob = reader.take(reader.u64())
    try:
        spec = ModelSpec(**json.loads(spec_blob.decode()))
        shapes = param_shapes(spec)
    except (ValueError, TypeError, RecursionError) as exc:
        raise serial.FormatError(f"invalid model spec: {exc}") from exc
    # checked before any value is read, so a forged spec cannot make the
    # loader allocate what it asks for
    n_scalars = count_from_spec(spec)
    left = reader.remaining()
    if 8 * n_scalars > left:
        raise serial.TruncatedFileError(
            f"spec needs {n_scalars} float64 values, file has {left} bytes left"
        )
    if 8 * n_scalars < left:
        raise serial.FormatError(f"{left - 8 * n_scalars} trailing bytes after the last value")
    # read in place, one copy per tensor: copying the ~1 MB payload out of
    # the blob first doubled the load time
    offset = len(blob) - left
    params = {}
    for name, shape in shapes.items():
        values = np.frombuffer(blob, "<f8", count=math.prod(shape), offset=offset)
        if not np.all(np.isfinite(values)):
            raise serial.FormatError(f"tensor {name!r} holds a value that is not finite")
        # astype copies, so the parameter is writable and owns its memory
        params[name] = Tensor(values.reshape(shape).astype(np.float64), requires_grad=True)
        offset += values.nbytes
    return Model(spec, params)
