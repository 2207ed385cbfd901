"""Span tracer for the traced benchmark run.

Timing wrappers are installed from outside the package, around the public
entry points of each contextvp module, and only while a traced phase
runs. Every span is kept in memory as (name, start, end, parent, call,
metric keys) and written out when the run ends. `call` names the set-up
round, training step or predict request the span belongs to. Spans are
recorded only inside a root span, so the benchmark's own output checks
never appear in the trace.

Time metrics are inclusive (a span's whole duration); `self_s.<module>`
is the span minus the part its child spans cover, summed per module.
"""

from __future__ import annotations

import functools
import gzip
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import contextvp.data as cv_data
import contextvp.loss_optim as cv_loss
import contextvp.model as cv_model
from contextvp.tensor import Tape

# public Tape op method -> the node kind it records
TAPE_OPS = {
    "add": "add", "sub": "sub", "mul": "mul", "scale": "scale",
    "absolute": "abs", "sigmoid": "sigmoid", "tanh": "tanh", "relu": "relu",
    "sum": "sum", "concat": "concat", "index": "index", "stack": "stack",
    "slice_axis": "slice", "reshape": "reshape", "layer_norm": "layer_norm",
    "conv2d": "conv2d",
}

# (module, attribute, span name). pmd_scan and blend are rebound in
# contextvp.model because that is where forward_cuboid looks them up.
FUNCTIONS = (
    (cv_model, "build", "model.build"),
    (cv_model, "forward_cuboid", "model.forward"),
    (cv_model, "pmd_scan", "pmd.scan"),
    (cv_model, "blend", "pmd.blend"),
    (cv_model, "save_model", "serial.save"),
    (cv_model, "load_model", "serial.load"),
    (cv_data, "generate_bouncing_shapes", "data.generate"),
    (cv_data, "window", "data.window"),
    (cv_loss, "combined_loss", "loss_optim.loss"),
    (cv_loss, "adam_step", "loss_optim.adam"),
)

# '+' and '-' are not legal in metric names
DIRECTION_NAMES = {"t-": "tneg", "h-": "hneg", "h+": "hpos", "w-": "wneg", "w+": "wpos"}

# metrics taken from set-up rounds; every other one comes from loop calls
SETUP_METRICS = ("model.build_s", "data.generate_s", "data.window_s", "serial.load_s")


def _metric(name: str) -> str:
    """'model.build' -> 'model.build_s'; 'tensor.fwd.conv2d' -> 'tensor.fwd_s.conv2d'."""
    parts = name.split(".", 2)
    parts[1] += "_s"
    return ".".join(parts)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._call = None
        self._originals: list[tuple] = []
        self._layer_of: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def _open(self, name, keys):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self._call, keys]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, call):
        """Open the span of one set-up round or loop call."""
        self._call = call
        rec = self._open(name, ())
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, keys_of=None):
        keys = (_metric(name),)
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = self._open(name, keys_of(args) if keys_of else keys)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapped

    def _scan_keys(self, args):
        _, unit, _, direction = args
        return (f"pmd.scan_s.{DIRECTION_NAMES[direction]}",
                f"pmd.scan_s.layer{self._layer_of.get(id(unit), 0)}")

    # -- wrappers ----------------------------------------------------------

    def attach(self, model) -> None:
        """Map each scan unit of `model` to its 1-based layer index."""
        self._layer_of = {
            id(unit): idx
            for idx, layer in enumerate(model.layers, start=1)
            for unit in layer.unit_groups.values()
        }

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name in FUNCTIONS:
            keys_of = self._scan_keys if name == "pmd.scan" else None
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, keys_of))
        for method, kind in TAPE_OPS.items():
            self._patch(Tape, method, self._wrap(getattr(Tape, method), f"tensor.fwd.{kind}"))

        timed_backward = self._wrap(Tape.backward, "tensor.backward")
        stack = self._stack

        def backward(tape, loss):
            # per-kind backward time: wrap each recorded node's closure
            if stack:
                for node in tape.nodes:
                    node.backward_fn = self._wrap(node.backward_fn, f"tensor.bwd.{node.kind}")
            return timed_backward(tape, loss)

        self._patch(Tape, "backward", backward)

    def _patch(self, owner, attr, replacement):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def summarize(self, setup_calls, loop_calls) -> dict:
        """Per-layer metrics: medians over set-up rounds for SETUP_METRICS,
        the median duration of one save for serial.save_s, and medians over
        `loop_calls` of each call's total for everything else."""
        totals = defaultdict(lambda: defaultdict(float))
        saves = []
        for rec, self_time in zip(self.spans, self._self_times()):
            name, start, end, _, call, keys = rec
            per_call = totals[call]
            per_call["self_s." + name.split(".", 1)[0]] += self_time
            for key in keys:
                per_call[key] += end - start
            if name.startswith("tensor.fwd."):
                per_call["tensor.ops"] += 1
            elif name == "serial.save":
                saves.append(end - start)

        names = {k for call in totals.values() for k in call}
        out = {}
        for key in names:
            calls = setup_calls if key in SETUP_METRICS else loop_calls
            out[key] = statistics.median(totals[c].get(key, 0.0) for c in calls)
        out["serial.save_s"] = statistics.median(saves) if saves else 0.0
        return out

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, times relative to the
        first span: name, start, end, self, parent index, call, metric keys."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["name\tstart_s\tend_s\tself_s\tparent\tcall\tkeys"]
        for rec, self_time in zip(self.spans, self._self_times()):
            name, start, end, parent, call, keys = rec
            lines.append(
                f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{self_time:.9f}\t"
                f"{'' if parent is None else parent}\t{call}\t{','.join(keys)}"
            )
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\n".join(lines) + "\n")
