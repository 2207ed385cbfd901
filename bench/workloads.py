"""The benchmark's workloads: closed loops from one process, each call sent
when the previous one returns.

Every input frame is generated from the benchmark seed. The model is
always built from MODEL_SEED, so `loss_end` compares the same model on
different data across seeds. Each workload sets up, runs
`call(i)` in a loop, checks each call's output in `observe` outside the
timed region, and runs its run-level checks in `finish`.

The contextvp entry points are always looked up on their modules at call
time (`cv_model.build(...)`), so the tracer's wrappers see them.
"""

from __future__ import annotations

import os
import traceback
from collections import Counter

import numpy as np

import contextvp.data as cv_data
import contextvp.loss_optim as cv_loss
import contextvp.model as cv_model
from contextvp.tensor import Tape, Tensor

BATCH = 4  # windows per training step (N)
INPUT_FRAMES = 10  # T
SIZE = 16  # H = W
TRAIN_SEQUENCES = 8  # 8 sequences x 4 windows each = 8 distinct batches
TRAIN_SEQ_LEN = INPUT_FRAMES + 4
CHECKPOINT_EVERY = 4  # steps between save_model checkpoints
LOSS_STEPS = 8  # loss_end averages steps 5..7 of this fixed trajectory
LOSS_END_STEPS = 3
REPLAY_STEPS = 3  # steps re-run from a fresh set-up for the determinism check
PREDICT_P = 2  # frames predicted recursively per request
PREDICT_SEQUENCES = 16
MODEL_SEED = 0


def _pairs(n_sequences: int, seq_len: int, data_seed: int):
    params = cv_data.ShapeSceneParams(
        n_sequences=n_sequences, H=SIZE, W=SIZE, T=seq_len, seed=data_seed
    )
    return cv_data.window(cv_data.generate_bouncing_shapes(params), INPUT_FRAMES)


class Workload:
    """Shared bookkeeping: per-call failures and run-level checks.
    Subclasses set `min_calls`, the calls a run needs for its checks, and
    `batch`, the windows in one call."""

    def __init__(self, seed: int, out_dir: str, name: str):
        self.data_seed = seed
        self.checkpoint = os.path.join(out_dir, f"{name}-{os.getpid()}.cvpm")
        self.calls = 0
        self.failed_calls = 0
        self.checks: dict[str, str | None] = {}  # name -> problem, None when passed
        self.counts: dict | None = None

    def fail_call(self, i: int, problem: str) -> None:
        self.failed_calls += 1
        print(f"# call {i} failed: {problem}", flush=True)

    def check(self, name: str, fn) -> None:
        try:
            self.checks[name] = fn()
        except Exception:
            self.checks[name] = traceback.format_exc(limit=3).strip().replace("\n", " | ")

    def cleanup(self) -> None:
        if os.path.exists(self.checkpoint):
            os.unlink(self.checkpoint)


class TrainWorkload(Workload):
    """Training steps: forward_cuboid + combined_loss + backward + adam_step,
    with a save_model checkpoint every CHECKPOINT_EVERY steps."""

    min_calls = LOSS_STEPS
    batch = BATCH

    def __init__(self, spec_fn, seed, out_dir, name):
        super().__init__(seed, out_dir, name)
        self.spec_fn = spec_fn
        self.loss_spec = cv_loss.LossSpec()
        self.losses: list[float] = []
        self.count_mismatch = None

    def _fresh(self):
        model = cv_model.build(self.spec_fn(), MODEL_SEED)
        return model, cv_loss.AdamState.for_parameters(model.parameters)

    def setup(self) -> None:
        self.model, self.adam = self._fresh()
        pairs = _pairs(TRAIN_SEQUENCES, TRAIN_SEQ_LEN, self.data_seed)
        self.batches = [
            (np.stack([x for x, _ in pairs[k:k + BATCH]]),
             np.stack([y for _, y in pairs[k:k + BATCH]]))
            for k in range(0, len(pairs) - BATCH + 1, BATCH)
        ]

    def _step(self, model, adam, i, checkpoint):
        x, y = self.batches[i % len(self.batches)]
        tape = Tape()
        pred = cv_model.forward_cuboid(tape, model, Tensor(x))
        loss = cv_loss.combined_loss(tape, Tensor(y), pred, self.loss_spec)
        tape.backward(loss)
        cv_loss.adam_step(adam, model.parameters)
        if checkpoint and (i + 1) % CHECKPOINT_EVERY == 0:
            cv_model.save_model(model, self.checkpoint)
        return tape, float(loss.data)

    def call(self, i):
        return self._step(self.model, self.adam, i, checkpoint=True)

    def observe(self, i, result) -> None:
        tape, loss = result
        self.losses.append(loss)
        if not np.isfinite(loss):
            self.fail_call(i, f"non-finite loss {loss}")
        counts = {
            "tensor.nodes": len(tape.nodes),
            "tensor.out_bytes": sum(n.output.data.nbytes for n in tape.nodes),
            **{f"tensor.nodes.{k}": v for k, v in Counter(n.kind for n in tape.nodes).items()},
        }
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts and self.count_mismatch is None:
            self.count_mismatch = f"call {i} counts differ from call 0"

    def loss_end(self) -> float:
        return float(np.mean(self.losses[LOSS_STEPS - LOSS_END_STEPS:LOSS_STEPS]))

    def _replay(self):
        model, adam = self._fresh()
        replayed = [self._step(model, adam, i, checkpoint=False)[1] for i in range(REPLAY_STEPS)]
        if replayed != self.losses[:REPLAY_STEPS]:
            return f"replayed losses {replayed} != {self.losses[:REPLAY_STEPS]}"
        return None

    def _reload(self):
        cv_model.save_model(self.model, self.checkpoint)
        self.counts["serial.bytes"] = os.path.getsize(self.checkpoint)
        loaded = cv_model.load_model(self.checkpoint)
        window = self.batches[0][0][0]
        if not np.array_equal(cv_model.forward_predict(loaded, window),
                              cv_model.forward_predict(self.model, window)):
            return "reloaded checkpoint predicts differently"
        return None

    def _loss_decreases(self):
        first, end = self.losses[0], self.loss_end()
        return None if end < first else f"loss_end {end} not below first loss {first}"

    def finish(self) -> None:
        self.check("loss_decreases", self._loss_decreases)
        self.check("counts_repeat", lambda: self.count_mismatch)
        self.check("reload_identical", self._reload)
        self.check("replay_identical", self._replay)


class PredictWorkload(Workload):
    """predict_recursive on one window at a time from a model that set-up
    saved and reloaded with load_model."""

    min_calls = PREDICT_SEQUENCES  # one pass over every window
    batch = 1

    def __init__(self, seed, out_dir, name):
        super().__init__(seed, out_dir, name)
        self.first_pass: list = []
        self.losses: list[float] = []
        self.repeat_mismatch = None

    def setup(self) -> None:
        self.built = cv_model.build(cv_model.ModelSpec(), MODEL_SEED)
        cv_model.save_model(self.built, self.checkpoint)
        self.model = cv_model.load_model(self.checkpoint)
        # the tape does not record during prediction
        self.counts = {"tensor.nodes": 0, "tensor.out_bytes": 0,
                       "serial.bytes": os.path.getsize(self.checkpoint)}
        # each sequence gives PREDICT_P consecutive pairs; the first one's
        # input is the request and the targets of all of them are the truth
        pairs = _pairs(PREDICT_SEQUENCES, INPUT_FRAMES + PREDICT_P, self.data_seed)
        self.windows = [pairs[k][0] for k in range(0, len(pairs), PREDICT_P)]
        self.truths = [np.stack([y for _, y in pairs[k:k + PREDICT_P]])
                       for k in range(0, len(pairs), PREDICT_P)]

    def call(self, i):
        return cv_model.predict_recursive(self.model, self.windows[i % len(self.windows)],
                                          PREDICT_P)

    def observe(self, i, pred) -> None:
        if not (np.all(np.isfinite(pred)) and np.all(pred > 0.0) and np.all(pred < 1.0)):
            self.fail_call(i, f"prediction not finite or outside (0, 1): "
                              f"[{pred.min()}, {pred.max()}]")
        k = i % len(self.windows)
        if i < len(self.windows):
            self.first_pass.append(pred)
            loss = cv_loss.combined_loss(Tape(recording=False), Tensor(self.truths[k]),
                                         Tensor(pred), cv_loss.LossSpec())
            self.losses.append(float(loss.data))
        elif not np.array_equal(pred, self.first_pass[k]) and self.repeat_mismatch is None:
            self.repeat_mismatch = f"call {i} differs from call {k} on the same window"

    def loss_end(self) -> float:
        return float(np.mean(self.losses))

    def _reload(self):
        window = self.windows[0]
        if not np.array_equal(cv_model.forward_predict(self.model, window),
                              cv_model.forward_predict(self.built, window)):
            return "reloaded model predicts differently from the built one"
        return None

    def finish(self) -> None:
        self.check("repeat_identical", lambda: self.repeat_mismatch)
        self.check("reload_identical", self._reload)


def _convlstm_spec():
    width = cv_model.baseline_width_for(cv_model.count_from_spec(cv_model.ModelSpec()))
    return cv_model.ModelSpec.convlstm_baseline(width=width)


# name -> factory(seed, out_dir, name); why each exists is in BENCHMARK.json
WORKLOADS = {
    "train-ctx16": lambda seed, out, name: TrainWorkload(cv_model.ModelSpec, seed, out, name),
    "train-convlstm16": lambda seed, out, name: TrainWorkload(_convlstm_spec, seed, out, name),
    "predict-ctx16": PredictWorkload,
}
