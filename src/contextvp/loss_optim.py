"""Training objective (Lp + spatial gradient-difference), Adam with a
stepped learning-rate decay, and the fan-balanced uniform initializer.

Loss conventions: both terms are plain sums over elements, with no
per-pixel normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contextvp.prng import SplitMix64
from contextvp.tensor import Tensor, Tape, ShapeError


@dataclass
class LossSpec:
    """p in {1, 2}; weight_gdl defaults to 1 when p == 1 and 0 when p == 2,
    weight_p is always 1 unless overridden."""

    p: int = 1
    weight_p: float = 1.0
    weight_gdl: float | None = None

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")
        if self.weight_gdl is None:
            self.weight_gdl = 1.0 if self.p == 1 else 0.0
        if self.weight_p < 0 or self.weight_gdl < 0:
            raise ValueError("loss weights must be nonnegative")


def _check_frames(y: Tensor, pred: Tensor):
    if y.data.shape != pred.data.shape:
        raise ShapeError(f"frame shapes differ: {y.data.shape} != {pred.data.shape}")


def lp_loss(tape: Tape, y: Tensor, pred: Tensor, p: int) -> Tensor:
    """Sum of absolute differences (p=1) or squared differences (p=2)."""
    _check_frames(y, pred)
    diff = tape.sub(y, pred)
    if p == 1:
        return tape.sum(tape.absolute(diff))
    if p == 2:
        return tape.sum(tape.mul(diff, diff))
    raise ValueError(f"p must be 1 or 2, got {p}")


def gdl_loss(tape: Tape, y: Tensor, pred: Tensor) -> Tensor:
    """Mismatch between the spatial finite differences of target and
    prediction, summed over rows, columns and channels.

    Each difference of absolute differences gets an outer absolute value:
    the printed form without it can go negative, which would reward a
    prediction sharper than its target.

    Frames are [H, W, C] or batched [N, H, W, C]; H and W must be >= 2.
    """
    _check_frames(y, pred)
    rank = y.data.ndim
    if rank not in (3, 4):
        raise ShapeError(f"frames must have rank 3 or 4, got {rank}")
    h_ax = rank - 3
    w_ax = rank - 2
    if y.data.shape[h_ax] < 2 or y.data.shape[w_ax] < 2:
        raise ShapeError("gradient-difference loss needs H, W >= 2")

    def axis_term(axis):
        n = y.data.shape[axis]
        hi = lambda t: tape.slice_axis(t, axis, 1, n)
        lo = lambda t: tape.slice_axis(t, axis, 0, n - 1)
        dy = tape.absolute(tape.sub(hi(y), lo(y)))
        dp = tape.absolute(tape.sub(hi(pred), lo(pred)))
        return tape.sum(tape.absolute(tape.sub(dy, dp)))

    return tape.add(axis_term(h_ax), axis_term(w_ax))


def combined_loss(tape: Tape, y: Tensor, pred: Tensor, spec: LossSpec) -> Tensor:
    """weight_p * Lp + weight_gdl * GDL, differentiable through the tape.

    Subgradients at absolute-value kinks are 0.
    """
    total = tape.scale(lp_loss(tape, y, pred, spec.p), spec.weight_p)
    if spec.weight_gdl != 0.0:
        total = tape.add(total, tape.scale(gdl_loss(tape, y, pred), spec.weight_gdl))
    return total


# -- optimizer ---------------------------------------------------------------

BASE_LEARNING_RATE = 1e-3
DECAY_RATE = 0.99
DECAY_EVERY = 5


def lr_schedule(epoch: int, base: float = BASE_LEARNING_RATE,
                decay: float = DECAY_RATE, every: int = DECAY_EVERY) -> float:
    """Stepped decay: base * decay ** floor(epoch / every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return base * decay ** (epoch // every)


@dataclass
class AdamState:
    """Moment estimates keyed like the parameter map they mirror."""

    lr: float = BASE_LEARNING_RATE
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_parameters(cls, params: dict, lr: float = BASE_LEARNING_RATE):
        state = cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(state: AdamState, params: dict) -> None:
    """One bias-corrected update, in parameter-map order, in place.

    Parameters with no gradient (``grad is None``) are left untouched but
    their moments still decay, matching a zero gradient.
    """
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is not None and not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        v *= state.beta2
        if g is not None:
            m += (1.0 - state.beta1) * g
            v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)


# -- initialization ----------------------------------------------------------

def xavier_uniform(shape, fan_in: int, fan_out: int, rng: SplitMix64) -> np.ndarray:
    """Fan-balanced uniform init on (-a, a) with a = sqrt(6 / (fan_in +
    fan_out)), so the variance is 2 / (fan_in + fan_out). Values are drawn
    in row-major element order from the given stream."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    flat = rng.next_floats(int(np.prod(shape)))
    return ((2.0 * flat - 1.0) * bound).reshape(shape)


def xavier_conv_kernel(k: int, cin: int, cout: int, rng: SplitMix64) -> np.ndarray:
    return xavier_uniform((k, k, cin, cout), k * k * cin, k * k * cout, rng)
