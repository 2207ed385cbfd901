"""Deterministic synthetic video: shapes bouncing in a frame, plus a
portable binary dataset format and sliding-window pairing.

Motion model: each shape carries a float position and per-axis velocity.
Every frame the position advances by the velocity; when it would leave the
valid range [0, limit] it is clamped to the wall and the velocity component
flips, so a shape touching a wall sits on it for exactly one frame before
moving away. Positions are truncated to integers for rendering (no
anti-aliasing), which keeps every frame hand-computable.

Randomization is fully specified so any implementation can reproduce the
bytes: a master splitmix64 stream seeded with `seed` first emits one child
seed per sequence; each sequence then draws, per shape, in order: kind
index, size index, row origin (below H - size + 1), column origin (below
W - size + 1), speed index, row-velocity sign bit, column-velocity sign
bit. Shapes render at intensity 1 on a zero background; overlaps stay 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from contextvp.prng import SplitMix64
from contextvp.serial import (
    DimOverflowError,
    FormatError,
    Reader,
    Writer,
    atomic_write,
)

DATASET_MAGIC = b"CVPD"
DATASET_VERSION = 1
DTYPE_F32 = 1

SHAPE_KINDS = ("square", "disc")


class GeometryError(ValueError):
    pass


@dataclass
class ShapeSceneParams:
    n_sequences: int = 8
    n_shapes: int = 1
    kinds: tuple = ("square",)
    sizes: tuple = (4,)
    speeds: tuple = (1.0,)
    H: int = 16
    W: int = 16
    T: int = 12
    C: int = 1
    seed: int = 0

    def __post_init__(self):
        # index() takes Python and numpy integers and rejects floats and strings
        for name in ("n_sequences", "n_shapes", "H", "W", "T", "C", "seed"):
            setattr(self, name, operator.index(getattr(self, name)))
        self.kinds = tuple(self.kinds)
        self.sizes = tuple(map(operator.index, self.sizes))
        self.speeds = tuple(float(s) for s in self.speeds)
        if self.n_sequences < 1 or self.n_shapes < 1:
            raise GeometryError("need at least one sequence and one shape")
        if self.T < 1:
            raise GeometryError("need at least one frame")
        if self.C not in (1, 3):
            raise GeometryError(f"C must be 1 (grayscale) or 3 (RGB), got {self.C}")
        for kind in self.kinds:
            if kind not in SHAPE_KINDS:
                raise GeometryError(f"unknown shape kind {kind!r}")
        if not self.kinds or not self.sizes or not self.speeds:
            raise GeometryError("kinds, sizes and speeds must be non-empty")
        for s in self.sizes:
            if not 0 < s < min(self.H, self.W):
                raise GeometryError(
                    f"shape size {s} must be in (0, {min(self.H, self.W)})"
                )
        if not all(math.isfinite(s) and s >= 0 for s in self.speeds):
            raise GeometryError(f"speeds must be finite and >= 0, got {self.speeds}")


@dataclass
class MovingShape:
    kind: str
    size: int
    y: float
    x: float
    vy: float
    vx: float


@dataclass
class Dataset:
    """Frames [N, T, H, W, C] with values in [0, 1], what a CVPD file
    holds. Any other rank, or a value that is not finite or outside
    [0, 1], raises ValueError, so `save_dataset` cannot write a file that
    `load_dataset` refuses."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 5:
            raise ValueError(f"frames must be [N, T, H, W, C], got rank {self.data.ndim}")
        if not np.all((self.data >= 0.0) & (self.data <= 1.0)):  # false for NaN too
            raise ValueError("frame values must be finite and in [0, 1]")

    @property
    def shape(self):
        return self.data.shape


def bounce_track(start: float, velocity: float, limit: float, steps: int):
    """Positions of a clamp-and-flip bouncer, starting at `start`.

    Returns `steps` positions; the walls are 0 and `limit` inclusive.
    """
    positions = [start]
    pos, vel = start, velocity
    for _ in range(steps - 1):
        pos += vel
        if pos > limit:
            pos, vel = limit, -vel
        elif pos < 0.0:
            pos, vel = 0.0, -vel
        positions.append(pos)
    return positions


def _stamp(frame: np.ndarray, shape: MovingShape, y: int, x: int) -> None:
    size = shape.size
    if shape.kind == "square":
        frame[y:y + size, x:x + size, :] = 1.0
        return
    # disc inscribed in the size x size bounding box
    center = (size - 1) / 2.0
    radius = size / 2.0
    rows, cols = np.ogrid[:size, :size]
    mask = (rows - center) ** 2 + (cols - center) ** 2 <= radius**2
    region = frame[y:y + size, x:x + size, :]
    region[mask] = 1.0


def render_sequence(shapes, H: int, W: int, T: int, C: int) -> np.ndarray:
    """Render shape tracks into a [T, H, W, C] cuboid of 0/1 intensities."""
    out = np.zeros((T, H, W, C))
    for shape in shapes:
        ys = bounce_track(shape.y, shape.vy, H - shape.size, T)
        xs = bounce_track(shape.x, shape.vx, W - shape.size, T)
        for t in range(T):
            _stamp(out[t], shape, int(ys[t]), int(xs[t]))
    return out


def _draw_shape(rng: SplitMix64, params: ShapeSceneParams) -> MovingShape:
    kind = params.kinds[rng.next_below(len(params.kinds))]
    size = params.sizes[rng.next_below(len(params.sizes))]
    y = float(rng.next_below(params.H - size + 1))
    x = float(rng.next_below(params.W - size + 1))
    speed = params.speeds[rng.next_below(len(params.speeds))]
    vy = speed if rng.next_u64() & 1 else -speed
    vx = speed if rng.next_u64() & 1 else -speed
    return MovingShape(kind, size, y, x, vy, vx)


def generate_bouncing_shapes(params: ShapeSceneParams) -> Dataset:
    master = SplitMix64(params.seed)
    child_seeds = [master.next_u64() for _ in range(params.n_sequences)]
    data = np.zeros((params.n_sequences, params.T, params.H, params.W, params.C))
    for n, child in enumerate(child_seeds):
        rng = SplitMix64(child)
        shapes = [_draw_shape(rng, params) for _ in range(params.n_shapes)]
        data[n] = render_sequence(shapes, params.H, params.W, params.T, params.C)
    return Dataset(data)


def window(dataset: Dataset, input_len: int):
    """All maximal sliding (input cuboid, target frame) pairs.

    Each sequence of length T yields T - input_len pairs; pair k of a
    sequence inputs frames [k, k + input_len) and targets frame
    k + input_len.
    """
    t_len = dataset.data.shape[1]
    if not 0 < input_len < t_len:
        raise ValueError(
            f"input_len must be in (0, {t_len}) for sequences of length {t_len}"
        )
    pairs = []
    for seq in dataset.data:
        for k in range(t_len - input_len):
            pairs.append((seq[k:k + input_len], seq[k + input_len]))
    return pairs


def dataset_bytes(dataset: Dataset) -> bytes:
    """Frames are stored as little-endian f32 (down-converted from the
    in-memory f64); loading up-converts, so a load/save cycle is
    byte-stable even though save is lossy at the f32 level."""
    n, t, h, w, c = dataset.data.shape
    out = Writer()
    out.raw(DATASET_MAGIC)
    out.u32(DATASET_VERSION)
    for dim in (n, t, h, w, c):
        out.u32(dim)
    out.u8(DTYPE_F32)
    out.raw(dataset.data.astype("<f4").tobytes())
    return out.getvalue()


def save_dataset(dataset: Dataset, path: str) -> None:
    atomic_write(path, dataset_bytes(dataset))


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = Reader(blob)
    reader.expect_magic(DATASET_MAGIC)
    version = reader.u32()
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    dims = tuple(reader.u32() for _ in range(5))
    total = int(np.prod(np.asarray(dims, dtype=np.float64)))
    if total > 2**40:
        raise DimOverflowError(f"dims {dims} imply an implausible payload")
    dtype = reader.u8()
    if dtype != DTYPE_F32:
        raise FormatError(f"unknown dtype code {dtype}")
    payload = reader.take(4 * total)
    if not reader.done():
        raise FormatError("trailing bytes after frame data")
    try:
        return Dataset(np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims))
    except ValueError as exc:  # Dataset's own value check
        raise FormatError(str(exc)) from exc
