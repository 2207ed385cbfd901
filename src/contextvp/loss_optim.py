"""Training objective (Lp + spatial gradient-difference), Adam with a
stepped learning-rate decay, and the fan-balanced uniform initializer.

Loss conventions: both terms are plain sums over elements, with no
per-pixel normalization.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from contextvp.prng import SplitMix64
from contextvp.tensor import Tensor, Tape, ShapeError


@dataclass
class LossSpec:
    """p in {1, 2}; weight_gdl, the GDL term's weight relative to the Lp
    term's 1, defaults to 1 when p == 1 and 0 when p == 2, and must be
    finite and nonnegative."""

    p: int = 1
    weight_gdl: float | None = None

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")
        if self.weight_gdl is None:
            self.weight_gdl = 1.0 if self.p == 1 else 0.0
        if not (np.isfinite(self.weight_gdl) and self.weight_gdl >= 0):
            raise ValueError(f"weight_gdl must be finite and nonnegative, got {self.weight_gdl}")


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

    Frames are batched [N, H, W, C], the only layout; H and W must be >= 2.
    """
    _check_frames(y, pred)
    if y.data.ndim != 4:
        raise ShapeError(f"frames must be [N, H, W, C], got rank {y.data.ndim}")
    if y.data.shape[1] < 2 or y.data.shape[2] < 2:
        raise ShapeError("gradient-difference loss needs H, W >= 2")

    def axis_term(axis):
        n = y.data.shape[axis]
        hi = lambda t: tape.slice_axis(t, axis, 1, n)
        lo = lambda t: tape.slice_axis(t, axis, 0, n - 1)
        dy = tape.absolute(tape.sub(hi(y), lo(y)))
        dp = tape.absolute(tape.sub(hi(pred), lo(pred)))
        return tape.sum(tape.absolute(tape.sub(dy, dp)))

    return tape.add(axis_term(1), axis_term(2))


def combined_loss(tape: Tape, y: Tensor, pred: Tensor, spec: LossSpec) -> Tensor:
    """Lp + weight_gdl * GDL, differentiable through the tape; the Lp term
    is recorded unscaled.

    Subgradients at absolute-value kinks are 0.
    """
    total = lp_loss(tape, y, pred, spec.p)
    if spec.weight_gdl != 0.0:
        total = tape.add(total, tape.scale(gdl_loss(tape, y, pred), spec.weight_gdl))
    return total


# -- optimizer ---------------------------------------------------------------

BASE_LEARNING_RATE = 1e-3
DECAY_RATE = 0.99
DECAY_EVERY = 5
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def lr_schedule(epoch: int) -> float:
    """Stepped decay: BASE_LEARNING_RATE * DECAY_RATE ** floor(epoch / DECAY_EVERY)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return BASE_LEARNING_RATE * DECAY_RATE ** (epoch // DECAY_EVERY)


@dataclass
class AdamState:
    """Moment estimates keyed like the parameter map they mirror; the
    moment decays are BETA1 and BETA2, the denominator's offset EPS. The
    learning rate must be finite and positive: a NaN one would turn every
    parameter into NaN at the first step. `step`, the updates taken so
    far, must be an integer >= 0: from -1 the next bias correction
    1 - BETA1**0 is 0, and every parameter would turn into NaN."""

    lr: float = BASE_LEARNING_RATE
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        self.step = _checked_step(self)

    @classmethod
    def for_parameters(cls, params: dict, lr: float = BASE_LEARNING_RATE):
        state = cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def _checked_step(state: AdamState) -> int:
    """state.step as an int, once `state.lr` and `state.step` are checked as
    `AdamState` requires them (ValueError, or TypeError for a step that is
    not an integer)."""
    step = operator.index(state.step)
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if not (np.isfinite(state.lr) and state.lr > 0):
        raise ValueError(f"lr must be finite and positive, got {state.lr}")
    return step


def adam_step(state: AdamState, params: dict) -> None:
    """One bias-corrected update, in parameter-map order, in place.

    Parameters with no gradient (``grad is None``) are left untouched but
    their moments still decay, matching a zero gradient. Everything is
    checked before anything changes: `state.lr` and `state.step` as
    `AdamState` checks them, which a caller may have reassigned since,
    then every gradient, a non-finite one raising FloatingPointError. A
    failed check leaves the step count, the moments and the parameters as
    they were.
    """
    step = _checked_step(state)
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step = step + 1
    b1c = 1.0 - BETA1 ** state.step
    b2c = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        v *= BETA2
        if g is not None:
            m += (1.0 - BETA1) * g
            v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)


# -- initialization ----------------------------------------------------------

def xavier_uniform(shape, fan_in: int, fan_out: int, rng: SplitMix64) -> np.ndarray:
    """Fan-balanced uniform init on (-a, a) with a = sqrt(6 / (fan_in +
    fan_out)), so the variance is 2 / (fan_in + fan_out). Values are drawn
    in row-major element order from the given stream."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    flat = rng.next_floats(math.prod(shape))
    return ((2.0 * flat - 1.0) * bound).reshape(shape)
