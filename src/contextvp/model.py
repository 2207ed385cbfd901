"""Model assembly: the five-direction stack, the time-only deep baseline,
prediction entry points, parameter accounting and serialization.

Layer wiring follows the four-layer reference architecture: each layer
runs its directional scans over the incoming cuboid and blends them; where
a skip pair (src, dst) is configured, the output cuboid of layer `dst` is
concatenated with that of layer `src` along channels before feeding
whatever consumes it (the next layer, or the output head after the last
layer). The head takes the t = T slice of the final carry, projects it to
the frame's channel count with a 1x1 convolution and applies a sigmoid,
so predictions always land in (0, 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from contextvp import serial
from contextvp.loss_optim import xavier_conv_kernel, xavier_uniform
from contextvp.pmd import (
    BLEND_MODES,
    DIRECTIONS,
    BlendBlock,
    PMDUnit,
    blend,
    pmd_layer,
    pmd_scan,  # not called here; the benchmark tracer patches it by name
)
from contextvp.prng import SplitMix64
from contextvp.serial import NameCollisionError, Reader, Writer, atomic_write
from contextvp.tensor import ACTIVATIONS, Tensor, Tape, ShapeError

MODEL_MAGIC = b"CVPM"
MODEL_VERSION = 1

KINDS = ("contextvp", "convlstm_baseline")

_UNIT_FIELDS = tuple(f"{p}_{g}" for p in ("kx", "ks", "b") for g in ("in", "forget", "out", "cell"))


@dataclass
class ModelSpec:
    kind: str = "contextvp"
    layers: list = field(default_factory=lambda: [(8, 8), (16, 16), (16, 16), (8, 8)])
    kernel: int = 3
    blend_mode: str = "weighted"
    dws: bool = True
    skip_pairs: list | None = None
    blend_activation: str = "identity"
    blend_layer_norm: bool = False
    output_activation: str = "sigmoid"
    in_channels: int = 1

    def __post_init__(self):
        self.layers = [tuple(int(v) for v in pair) for pair in self.layers]
        if self.skip_pairs is None:
            self.skip_pairs = [(1, 3), (2, 4)] if len(self.layers) >= 4 else []
        self.skip_pairs = [tuple(int(v) for v in pair) for pair in self.skip_pairs]
        self.validate()

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} not in {KINDS}")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if any(n1 < 1 or n2 < 1 for n1, n2 in self.layers):
            raise ValueError("layer unit counts must be >= 1")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.kernel}")
        if self.blend_mode not in BLEND_MODES:
            raise ValueError(f"blend_mode {self.blend_mode!r} not in {BLEND_MODES}")
        if self.blend_activation not in ACTIVATIONS:
            raise ValueError(f"blend_activation {self.blend_activation!r} unknown")
        if self.output_activation != "sigmoid":
            raise ValueError("only sigmoid output activation is supported")
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
            "blend_activation": self.blend_activation,
            "blend_layer_norm": self.blend_layer_norm,
            "output_activation": self.output_activation,
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


# direction -> parameter group; opposite directions collapse under sharing
def direction_groups(dws: bool):
    if dws:
        return {"t-": "t-", "h-": "h", "h+": "h", "w-": "w", "w+": "w"}
    return {d: d for d in DIRECTIONS}


class Layer:
    def __init__(self, unit_groups: dict, dir_map: dict, blend_block=None):
        self.unit_groups = unit_groups
        self.dir_map = dir_map
        self.blend_block = blend_block

    def unit_for(self, direction: str) -> PMDUnit:
        return self.unit_groups[self.dir_map[direction]]


class Model:
    """Immutable during inference; training mutates parameter data."""

    def __init__(self, spec: ModelSpec, layers: list, head_weight: Tensor,
                 head_bias: Tensor):
        self.spec = spec
        self.layers = layers
        self.head_weight = head_weight
        self.head_bias = head_bias

    @property
    def parameters(self) -> dict:
        """Ordered name -> Tensor map; shared tensors appear once."""
        params = {}
        for idx, layer in enumerate(self.layers, start=1):
            for group, unit in layer.unit_groups.items():
                for fname, t in unit.fields():
                    params[f"layer{idx}.{group}.{fname}"] = t
            if layer.blend_block is not None:
                params[f"layer{idx}.blend.weight"] = layer.blend_block.weight
                params[f"layer{idx}.blend.bias"] = layer.blend_block.bias
        params["head.weight"] = self.head_weight
        params["head.bias"] = self.head_bias
        return params


def _build_unit(k, cin, ch, rng) -> PMDUnit:
    tensors = {}
    for prefix, shape_cin in (("kx", cin), ("ks", ch)):
        for gate in ("in", "forget", "out", "cell"):
            tensors[f"{prefix}_{gate}"] = Tensor(
                xavier_conv_kernel(k, shape_cin, ch, rng), requires_grad=True
            )
    for gate in ("in", "forget", "out", "cell"):
        tensors[f"b_{gate}"] = Tensor(np.zeros(ch), requires_grad=True)
    return PMDUnit(**tensors)


def build(spec: ModelSpec, seed: int) -> Model:
    """Instantiate all parameters from the seeded stream.

    Kernels get the fan-balanced uniform init, biases start at zero.
    Draw order is fixed (layers ascending, groups in direction order,
    gates in (in, forget, out, cell) order), so a seed fully determines
    the parameter bytes.
    """
    spec.validate()
    rng = SplitMix64(seed)
    groups = direction_groups(spec.dws if spec.kind == "contextvp" else False)
    group_order = list(dict.fromkeys(groups[d] for d in DIRECTIONS))
    in_channels = spec.layer_in_channels()

    layers = []
    for idx, (n1, n2) in enumerate(spec.layers):
        cin = in_channels[idx]
        if spec.kind == "contextvp":
            unit_groups = {
                g: _build_unit(spec.kernel, cin, n1, rng) for g in group_order
            }
            rows = n1 if spec.blend_mode == "uniform" else len(DIRECTIONS) * n1
            block = BlendBlock(
                mode=spec.blend_mode,
                weight=Tensor(xavier_uniform((rows, n2), rows, n2, rng),
                              requires_grad=True),
                bias=Tensor(np.zeros(n2), requires_grad=True),
                activation=spec.blend_activation,
                layer_norm=spec.blend_layer_norm,
            )
            layers.append(Layer(unit_groups, groups, block))
        else:
            unit = _build_unit(spec.kernel, cin, n1, rng)
            layers.append(Layer({"t-": unit}, {"t-": "t-"}, None))

    head_in = spec.head_in_channels()
    head_weight = Tensor(
        xavier_uniform((head_in, spec.in_channels), head_in, spec.in_channels, rng),
        requires_grad=True,
    )
    head_bias = Tensor(np.zeros(spec.in_channels), requires_grad=True)
    return Model(spec, layers, head_weight, head_bias)


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
        out = pmd_layer(tape, {d: layer.unit_for(d) for d in layer.dir_map}, cur)
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
    """Predict the next frame for a [T, H, W, C] cuboid of values in [0, 1]."""
    out = forward_cuboid(Tape(recording=False), model, Tensor(frames))
    return out.data


def predict_recursive(model: Model, frames: np.ndarray, p: int) -> np.ndarray:
    """Predict p frames by sliding the fixed-length input window over its
    own predictions. Returns [p, H, W, C]."""
    if p < 1:
        raise ValueError("p must be >= 1")
    window = np.asarray(frames, dtype=np.float64)
    preds = []
    for _ in range(p):
        nxt = forward_predict(model, window)
        preds.append(nxt)
        window = np.concatenate([window[1:], nxt[None]], axis=0)
    return np.stack(preds, axis=0)


# -- accounting ----------------------------------------------------------------

def count_parameters(model: Model) -> int:
    """Distinct scalars; tensors shared between directions count once."""
    seen = {}
    for t in model.parameters.values():
        seen[id(t)] = t.size
    return int(sum(seen.values()))


def count_from_spec(spec: ModelSpec) -> int:
    """Parameter count computed from shapes alone, without building."""
    spec.validate()
    k = spec.kernel
    n_groups = 3 if (spec.kind == "contextvp" and spec.dws) else (
        5 if spec.kind == "contextvp" else 1
    )
    total = 0
    for cin, (n1, n2) in zip(spec.layer_in_channels(), spec.layers):
        per_unit = 4 * (k * k * cin * n1 + k * k * n1 * n1 + n1)
        total += n_groups * per_unit
        if spec.kind == "contextvp":
            rows = n1 if spec.blend_mode == "uniform" else len(DIRECTIONS) * n1
            total += rows * n2 + n2
    total += spec.head_in_channels() * spec.in_channels + spec.in_channels
    return total


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
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = Reader(blob)
    reader.expect_magic(MODEL_MAGIC)
    version = reader.u32()
    if version != MODEL_VERSION:
        raise serial.FormatError(f"unsupported model version {version}")
    spec = ModelSpec.from_dict(json.loads(reader.take(reader.u64()).decode()))
    model = build(spec, seed=0)
    params = model.parameters
    n_tensors = reader.u64()
    seen = set()
    for _ in range(n_tensors):
        name = reader.take(reader.u32()).decode()
        if name in seen:
            raise NameCollisionError(f"duplicate tensor name {name!r}")
        seen.add(name)
        rank = reader.u32()
        shape = tuple(reader.u64() for _ in range(rank))
        data = np.frombuffer(
            reader.take(8 * int(np.prod(shape, dtype=np.int64))), dtype="<f8"
        ).reshape(shape)
        if name not in params:
            raise serial.FormatError(f"unexpected tensor name {name!r}")
        if params[name].data.shape != shape:
            raise ShapeError(
                f"tensor {name!r} has shape {shape}, spec expects "
                f"{params[name].data.shape}"
            )
        params[name].data[...] = data
    if seen != set(params):
        missing = sorted(set(params) - seen)
        raise serial.FormatError(f"missing tensors: {missing[:3]}...")
    if not reader.done():
        raise serial.FormatError("trailing bytes after last tensor")
    return model
