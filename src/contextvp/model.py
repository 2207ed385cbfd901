"""Model assembly: the five-direction stack, the time-only deep baseline,
prediction entry points, parameter accounting and serialization.

Layer wiring follows the four-layer reference architecture: each layer
runs its directional scans over the incoming cuboid and blends them with
a pointwise linear projection; where
a skip pair (src, dst) is configured, the output cuboid of layer `dst` is
concatenated with that of layer `src` along channels before feeding
whatever consumes it (the next layer, or the output head after the last
layer). The head takes the t = T slice of the final carry, projects it to
the frame's channel count with a 1x1 convolution and applies a sigmoid,
so predictions always land in (0, 1).

`param_shapes(spec)` is the parameter table: every tensor's name and
shape, in draw order, which is also file order. Layers come in ascending
order; within a layer, each direction group of `direction_groups(spec)`
in DIRECTIONS order with its `kx`, `ks` and `b`, then `blend.weight` and
`blend.bias`; last `head.weight` and `head.bias`. Under directional
weight sharing (DWS) h-/h+ form group h and w-/w+ group w; without it
each direction is its own group; the time-only baseline has the one
group t- and no blend. `build` draws the table's entries from a seed,
`count_from_spec` sums its shapes, and `load_model` checks each stored
tensor's header against it before reading the values into fresh arrays.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from contextvp import serial
from contextvp.loss_optim import xavier_conv_kernel, xavier_uniform
from contextvp.pmd import (
    BLEND_MODES,
    DIRECTIONS,
    GATES,
    BlendBlock,
    PMDUnit,
    blend,
    pmd_layer,
    pmd_scan,  # not called here; the benchmark tracer patches it by name
)
from contextvp.prng import SplitMix64
from contextvp.serial import NameCollisionError, Reader, Writer, atomic_write
from contextvp.tensor import Tensor, Tape, ShapeError

MODEL_MAGIC = b"CVPM"
MODEL_VERSION = 3  # bumped whenever the spec JSON keys or the tensor layout change

KINDS = ("contextvp", "convlstm_baseline")


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

    # wiring ------------------------------------------------------------

    def layer_out_channels(self):
        if self.kind == "contextvp":
            return [n2 for _, n2 in self.layers]
        return [n1 for n1, _ in self.layers]

    def carry_channels(self):
        """Channels of what each layer passes on, after skip concatenation."""
        out = self.layer_out_channels()
        carry = []
        for layer in range(1, len(self.layers) + 1):
            ch = out[layer - 1]
            for src, dst in self.skip_pairs:
                if dst == layer:
                    ch += out[src - 1]
            carry.append(ch)
        return carry

    def layer_in_channels(self):
        return [self.in_channels] + self.carry_channels()[:-1]

    def head_in_channels(self):
        return self.carry_channels()[-1]

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
    def from_dict(cls, d):
        return cls(**d)

    @classmethod
    def convlstm_baseline(cls, width: int = 16, n_layers: int = 20, **kw):
        kw.setdefault("skip_pairs", [(1, 3), (2, 4)] if n_layers >= 4 else [])
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
    """Name -> shape of every parameter tensor, in draw and file order."""
    spec.validate()
    k = spec.kernel
    groups = dict.fromkeys(direction_groups(spec).values())
    shapes = {}
    for idx, (cin, (n1, n2)) in enumerate(zip(spec.layer_in_channels(), spec.layers), start=1):
        for group in groups:
            shapes[f"layer{idx}.{group}.kx"] = (k, k, cin, len(GATES) * n1)
            shapes[f"layer{idx}.{group}.ks"] = (k, k, n1, len(GATES) * n1)
            shapes[f"layer{idx}.{group}.b"] = (len(GATES) * n1,)
        if spec.kind == "contextvp":
            rows = n1 if spec.blend_mode == "uniform" else len(DIRECTIONS) * n1
            shapes[f"layer{idx}.blend.weight"] = (rows, n2)
            shapes[f"layer{idx}.blend.bias"] = (n2,)
    shapes["head.weight"] = (spec.head_in_channels(), spec.in_channels)
    shapes["head.bias"] = (spec.in_channels,)
    return shapes


class Layer:
    """`unit_groups` maps each parameter group to its unit; `units` maps
    each scanned direction, in DIRECTIONS order, to its group's unit."""

    def __init__(self, unit_groups: dict, units: dict, blend_block=None):
        self.unit_groups = unit_groups
        self.units = units
        self.blend_block = blend_block


class Model:
    """Immutable during inference; training mutates parameter data.

    `parameters` is the ordered name -> Tensor map of `param_shapes(spec)`;
    the layers' units and blend blocks hold those same tensors.
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
            block = None
            if pre + "blend.weight" in parameters:
                block = BlendBlock(spec.blend_mode, parameters[pre + "blend.weight"],
                                   parameters[pre + "blend.bias"])
            self.layers.append(Layer(units, {d: units[g] for d, g in groups.items()}, block))
        self.head_weight = parameters["head.weight"]
        self.head_bias = parameters["head.bias"]


def build(spec: ModelSpec, seed: int) -> Model:
    """Instantiate all parameters from the seeded stream, in
    `param_shapes` order.

    A unit kernel is one fan-balanced uniform draw per gate, in (in,
    forget, out, cell) order, stacked on the last axis; blend and head
    weights are one draw each; biases start at zero. A seed therefore
    fully determines the parameter bytes.
    """
    rng = SplitMix64(seed)
    params = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith((".kx", ".ks")):
            k, _, fan_in, stacked = shape
            ch = stacked // len(GATES)
            data = np.concatenate(
                [xavier_conv_kernel(k, fan_in, ch, rng) for _ in GATES], axis=3
            )
        elif name.endswith(".weight"):
            data = xavier_uniform(shape, *shape, rng)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return Model(spec, params)


# -- forward -----------------------------------------------------------------

def forward_cuboid(tape: Tape, model: Model, x: Tensor) -> Tensor:
    """Differentiable forward pass. x: [T, H, W, C] or [N, T, H, W, C];
    returns the predicted next frame(s) [H, W, C] or [N, H, W, C]."""
    spec = model.spec
    rank = x.data.ndim
    if rank not in (4, 5):
        raise ShapeError(f"input cuboid must have rank 4 or 5, got {rank}")
    t_axis = rank - 4
    t_len = x.data.shape[t_axis]
    if t_len < 1:
        raise ShapeError("input needs at least one frame")
    if x.data.shape[-1] != spec.in_channels:
        raise ShapeError(
            f"input has {x.data.shape[-1]} channels, spec expects {spec.in_channels}"
        )
    chan_axis = rank - 1

    outs = []
    cur = x
    for idx, layer in enumerate(model.layers, start=1):
        out = pmd_layer(tape, layer.units, cur)
        if layer.blend_block is not None:
            out = blend(tape, out, layer.blend_block)
        outs.append(out)
        carry = out
        for src, dst in spec.skip_pairs:
            if dst == idx:
                carry = tape.concat([carry, outs[src - 1]], axis=chan_axis)
        cur = carry

    last_plane = tape.index(cur, t_axis, t_len - 1)
    n_in, n_out = model.head_weight.shape
    kernel = tape.reshape(model.head_weight, (1, 1, n_in, n_out))
    logits = tape.conv2d(last_plane, kernel, model.head_bias)
    return tape.sigmoid(logits)


def forward_predict(model: Model, frames: np.ndarray) -> np.ndarray:
    """Predict the next frame for a [T, H, W, C] cuboid of values in [0, 1].
    Raises ValueError for frames that are not finite or outside [0, 1]."""
    frames = np.asarray(frames, dtype=np.float64)
    if not np.all((frames >= 0.0) & (frames <= 1.0)):  # false for NaN too
        raise ValueError("frames must be finite values in [0, 1]")
    out = forward_cuboid(Tape(recording=False), model, Tensor(frames))
    return out.data


def predict_recursive(model: Model, frames: np.ndarray, p: int) -> np.ndarray:
    """Predict p frames by sliding the fixed-length [T, H, W, C] input
    window over its own predictions. Returns [p, H, W, C]."""
    if p < 1:
        raise ValueError("p must be >= 1")
    window = np.asarray(frames, dtype=np.float64)
    if window.ndim != 4:
        raise ShapeError(f"window must be one [T, H, W, C] cuboid, got rank {window.ndim}")
    preds = []
    for _ in range(p):
        nxt = forward_predict(model, window)
        preds.append(nxt)
        window = np.concatenate([window[1:], nxt[None]], axis=0)
    return np.stack(preds, axis=0)


# -- accounting ----------------------------------------------------------------

def count_parameters(model: Model) -> int:
    """Distinct scalars; tensors shared between directions count once."""
    return sum(t.size for t in model.parameters.values())


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
    params = model.parameters
    w.u64(len(params))
    for name, t in params.items():
        encoded = name.encode()
        w.u32(len(encoded))
        w.raw(encoded)
        w.u32(t.data.ndim)
        for extent in t.data.shape:
            w.u64(extent)
        w.raw(t.data.astype("<f8").tobytes())
    return w.getvalue()


def save_model(model: Model, path: str) -> None:
    atomic_write(path, model_bytes(model))


def load_model(path: str) -> Model:
    """Read a model file. Any malformed content raises a serial.FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = Reader(blob)
    reader.expect_magic(MODEL_MAGIC)
    version = reader.u32()
    if version != MODEL_VERSION:
        raise serial.FormatError(f"unsupported model version {version}")
    spec_blob = reader.take(reader.u64())
    try:
        spec = ModelSpec.from_dict(json.loads(spec_blob.decode()))
        shapes = param_shapes(spec)
    except (ValueError, TypeError, RecursionError) as exc:
        raise serial.FormatError(f"invalid model spec: {exc}") from exc
    # checked before any tensor is read, so a forged spec cannot make the
    # loader allocate what it asks for
    n_scalars = count_from_spec(spec)
    if 8 * n_scalars > reader.remaining():
        raise serial.TruncatedFileError(
            f"spec needs {n_scalars} float64 values, file has {reader.remaining()} bytes left"
        )
    n_tensors = reader.u64()
    params = {}
    for _ in range(n_tensors):
        try:
            name = reader.take(reader.u32()).decode()
        except UnicodeDecodeError as exc:
            raise serial.FormatError(f"tensor name is not UTF-8: {exc}") from exc
        if name in params:
            raise NameCollisionError(f"duplicate tensor name {name!r}")
        rank = reader.u32()
        shape = tuple(reader.u64() for _ in range(rank))
        if name not in shapes:
            raise serial.FormatError(f"unexpected tensor name {name!r}")
        if shapes[name] != shape:
            raise serial.FormatError(
                f"tensor {name!r} has shape {shape}, spec expects {shapes[name]}"
            )
        values = np.frombuffer(reader.take(8 * math.prod(shape)), dtype="<f8")
        # astype copies, so the parameter is writable and owns its memory
        params[name] = Tensor(values.reshape(shape).astype(np.float64), requires_grad=True)
    if params.keys() != shapes.keys():
        missing = sorted(shapes.keys() - params.keys())
        raise serial.FormatError(f"missing tensors: {missing[:3]}...")
    if not reader.done():
        raise serial.FormatError("trailing bytes after last tensor")
    return Model(spec, {name: params[name] for name in shapes})
