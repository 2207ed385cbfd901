"""Print one SHA-256 per configuration over what two training steps and a
recursive prediction compute, so two trees can be compared bit for bit.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py

Each digest covers, in order, both steps' losses and every parameter
gradient (in `param_shapes` order) of 2 Adam steps on a batch of N
windows of 16x16 bouncing shapes (T=10), then `predict_recursive(p=2)`
from the first window. The configurations are three specs (the default,
the parameter-matched 20-layer baseline, and kernel 5), each at N in
{1, 4} and `pmd._THREADS` in {1, 2}: 12 lines. Two trees that print the
same lines computed the same bits; a line that differs only between
thread counts is a determinism fault.
"""

from __future__ import annotations

import hashlib

import numpy as np

import contextvp.data as data
import contextvp.loss_optim as loss_optim
import contextvp.model as model
import contextvp.pmd as pmd
from contextvp.tensor import Tape, Tensor

SPECS = {
    "default": lambda: model.ModelSpec(),
    "baseline-w10": lambda: model.ModelSpec.convlstm_baseline(width=10),
    "kernel5": lambda: model.ModelSpec(layers=[(3, 3), (2, 2)], kernel=5),
}
BATCHES = (1, 4)
THREADS = (1, 2)
SIZE = 16
FRAMES = 10
STEPS = 2
PREDICT_P = 2


def windows(n: int):
    """n input windows [n, T, H, W, 1] and their next frames [n, H, W, 1]."""
    params = data.ShapeSceneParams(n_sequences=n, H=SIZE, W=SIZE, T=FRAMES + 1, seed=0)
    pairs = data.window(data.generate_bouncing_shapes(params), FRAMES)[:n]
    return np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])


def digest(spec: model.ModelSpec, n: int) -> str:
    x, y = windows(n)
    net = model.build(spec, 0)
    adam = loss_optim.AdamState.for_parameters(net.parameters)
    h = hashlib.sha256()
    for _ in range(STEPS):
        tape = Tape()
        pred = model.forward_cuboid(tape, net, Tensor(x))
        loss = loss_optim.combined_loss(tape, Tensor(y), pred, loss_optim.LossSpec())
        tape.backward(loss)
        h.update(np.ascontiguousarray(loss.data).tobytes())
        for p in net.parameters.values():
            h.update(b"none" if p.grad is None else np.ascontiguousarray(p.grad).tobytes())
        loss_optim.adam_step(adam, net.parameters)
    h.update(np.ascontiguousarray(model.predict_recursive(net, x[0], PREDICT_P)).tobytes())
    return h.hexdigest()


def main() -> None:
    for name, spec in SPECS.items():
        for n in BATCHES:
            for threads in THREADS:
                pmd._THREADS = threads
                print(f"{name} N={n} threads={threads} {digest(spec(), n)}", flush=True)


if __name__ == "__main__":
    main()
