"""The benchmark's tracer finds what it times in contextvp by name, so a
rename in the package breaks this test rather than only a traced run."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import contextvp.loss_optim as cv_loss
import contextvp.model as cv_model
from contextvp.tensor import Tape, Tensor

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench("tracer")


def test_tracer_hooks_resolve_and_uninstall_restores():
    tracer = load_tracer()
    patched = [(owner, attr) for owner, attr, _ in tracer.FUNCTIONS]
    patched += [(Tape, method) for method in tracer.TAPE_OPS] + [(Tape, "backward")]
    originals = [getattr(owner, attr) for owner, attr in patched]

    t = tracer.Tracer()
    t.install()
    try:
        model = cv_model.build(cv_model.ModelSpec(), 0)
        t.attach(model)
        rng = np.random.default_rng(0)
        # called through their modules, where install() rebinds them
        with t.root("step", 0):
            tape = Tape()
            pred = cv_model.forward_cuboid(tape, model, Tensor(rng.uniform(size=(1, 2, 4, 4, 1))))
            target = Tensor(rng.uniform(size=(1, 4, 4, 1)))
            tape.backward(cv_loss.combined_loss(tape, target, pred, cv_loss.LossSpec()))
        names = {span[0] for span in t.spans}
        assert {"model.forward", "pmd.blend", "tensor.backward", "loss_optim.loss"} <= names
        assert t.summarize([0], [0])["model.forward_s"] > 0.0
    finally:
        t.uninstall()
    for (owner, attr), original in zip(patched, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_tracer_attaches_to_a_reloaded_model(tmp_path):
    # the predict workload attaches the model it got back from load_model
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        path = str(tmp_path / "model.cvpm")
        cv_model.save_model(cv_model.build(cv_model.ModelSpec(), 0), path)
        model = cv_model.load_model(path)
        t.attach(model)
        frames = np.random.default_rng(1).uniform(size=(2, 4, 4, 1))
        with t.root("predict", 0):
            cv_model.forward_predict(model, frames)
        assert {"model.forward", "pmd.blend"} <= {span[0] for span in t.spans}
        assert t.summarize([0], [0])["model.forward_s"] > 0.0
    finally:
        t.uninstall()


def test_tracer_still_names_each_tracer_only_src_name():
    # pmd.pmd_scan, Tape.relu, Tape.reshape, Tape.layer_norm and
    # Layer.unit_groups stay in src only because the tracer looks them up:
    # once it stops naming one, this fails until the src copy is deleted
    tracer = load_tracer()
    assert "pmd_scan" in {attr for _, attr, _ in tracer.FUNCTIONS}
    assert {"relu", "reshape", "layer_norm"} <= set(tracer.TAPE_OPS)
    assert ".unit_groups" in inspect.getsource(tracer.Tracer.attach)


def test_every_workload_sets_up_and_runs_a_call(tmp_path):
    # the benchmark's set-up calls contextvp's public API, so an API change
    # that breaks a workload fails here rather than only in a benchmark run
    workloads = load_bench("workloads")
    for name, make in workloads.WORKLOADS.items():
        wl = make(0, str(tmp_path), name)
        try:
            wl.setup()
            wl.observe(0, wl.call(0))
            assert wl.failed_calls == 0, name
        finally:
            wl.cleanup()
