"""Print the traced memory of one training step per configuration, so two
trees can be compared byte for byte where the allocator cannot blur it.

Run from the repository root:

    PYTHONPATH=src python tests/memory.py

Each line traces (`tracemalloc`) the second of two training steps
(forward, `combined_loss`, backward, `adam_step`), counted from its start,
on N=4 windows of bouncing shapes (seed 1, T=10), model seed 0. `held` is
what is still allocated when the forward and the loss end, `peak` the
step's largest total; MB = 1e6 B. The configurations are two specs (the
default and the parameter-matched 20-layer baseline) at 16x16 and 32x32,
each at `pmd._THREADS` in {1, 2}: 8 lines. A traced step runs 2-4 times
slower than an untraced one; the whole run takes about a minute.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

import contextvp.data as data
import contextvp.loss_optim as loss_optim
import contextvp.model as model
import contextvp.pmd as pmd
from contextvp.tensor import Tape, Tensor

SPECS = {
    "default": lambda: model.ModelSpec(),
    "baseline-w10": lambda: model.ModelSpec.convlstm_baseline(width=10),
}
SIZES = (16, 32)
THREADS = (1, 2)
BATCH = 4
FRAMES = 10


def windows(n: int, size: int, frames: int):
    """n input windows [n, T, H, W, 1] and their next frames [n, H, W, 1]."""
    params = data.ShapeSceneParams(n_sequences=n, H=size, W=size, T=frames + 1, seed=1)
    pairs = data.window(data.generate_bouncing_shapes(params), frames)[:n]
    return np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])


def traced_step(spec: model.ModelSpec, size: int, threads: int,
                n: int = BATCH, frames: int = FRAMES) -> tuple[float, float]:
    """(held, peak) MB of the second training step at `pmd._THREADS =
    threads`, which stays set."""
    pmd._THREADS = threads
    x, y = (Tensor(a) for a in windows(n, size, frames))
    net = model.build(spec, 0)
    adam = loss_optim.AdamState.for_parameters(net.parameters)

    def step() -> int:  # returns the bytes traced when the loss ends
        tape = Tape()
        loss = loss_optim.combined_loss(
            tape, y, model.forward_cuboid(tape, net, x), loss_optim.LossSpec())
        held = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        loss_optim.adam_step(adam, net.parameters)
        return held

    step()
    tracemalloc.start()
    try:
        held = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held / 1e6, peak / 1e6


def rows(specs=SPECS, sizes=SIZES, threads=THREADS, n: int = BATCH, frames: int = FRAMES):
    """One printed line per configuration, in spec, size, thread order."""
    for name, make in specs.items():
        for size in sizes:
            for t in threads:
                held, peak = traced_step(make(), size, t, n, frames)
                yield f"{name} {size}x{size} threads={t} held={held:.1f} MB peak={peak:.1f} MB"


def main() -> None:
    for line in rows():
        print(line, flush=True)


if __name__ == "__main__":
    main()
