import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contextvp.model as model_module
import contextvp.pmd as pmd
import contextvp.serial as serial
from contextvp.loss_optim import (
    AdamState,
    LossSpec,
    adam_step,
    combined_loss,
    xavier_uniform,
)
from contextvp.prng import SplitMix64
from contextvp.tensor import Tensor, Tape, ShapeError
from contextvp.pmd import DIRECTIONS, GATES
from contextvp.model import (
    MODEL_MAGIC,
    MODEL_VERSION,
    Model,
    ModelSpec,
    baseline_width_for,
    build,
    count_from_spec,
    forward_cuboid,
    forward_predict,
    load_model,
    model_bytes,
    param_shapes,
    predict_recursive,
    save_model,
)
from gradcheck import finite_diff_check
from oracles import pmd_step


def tiny_spec(**kw):
    kw.setdefault("layers", [(2, 2)])
    kw.setdefault("blend_mode", "uniform")
    kw.setdefault("dws", False)
    return ModelSpec(**kw)


class TestBuild:
    def test_same_seed_bit_identical(self):
        spec = ModelSpec(layers=[(4, 4), (4, 4)])
        a, b = build(spec, 42), build(spec, 42)
        for (name_a, ta), (name_b, tb) in zip(
            a.parameters.items(), b.parameters.items()
        ):
            assert name_a == name_b
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seed_differs(self):
        spec = tiny_spec()
        a, b = build(spec, 1), build(spec, 2)
        assert a.parameters["layer1.t-.kx"].data.tobytes() != \
            b.parameters["layer1.t-.kx"].data.tobytes()

    def test_group_counts_follow_sharing_flag(self):
        tied = build(ModelSpec(layers=[(2, 2)], dws=True), 0)
        untied = build(ModelSpec(layers=[(2, 2)], dws=False), 0)
        tied_groups = {n.split(".")[1] for n in tied.parameters if n.startswith("layer1.")}
        untied_groups = {n.split(".")[1] for n in untied.parameters if n.startswith("layer1.")}
        assert tied_groups == {"t-", "h", "w", "blend"}
        assert untied_groups == {"t-", "h-", "h+", "w-", "w+", "blend"}

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(layers=[])
        with pytest.raises(ValueError):
            ModelSpec(layers=[(2, 2)], kernel=4)
        with pytest.raises(ValueError):
            ModelSpec(layers=[(2, 2)], skip_pairs=[(1, 1)])
        with pytest.raises(TypeError):
            ModelSpec(layers=[(2, 2)], dws="no")
        with pytest.raises(TypeError):
            ModelSpec(layers=[(8.7, 8)])
        with pytest.raises(TypeError):
            ModelSpec(layers=[(2, 2), (2, 2)], skip_pairs=[(1.5, 1)])
        with pytest.raises(ValueError, match="n1 == n2"):
            # a baseline layer has no blend to use a separate n2
            ModelSpec(kind="convlstm_baseline", layers=[(8, 3), (8, 99)])

    def test_unit_tensors_are_gate_stacked(self):
        # three tensors per unit; each gate's kernel is its own Xavier draw,
        # taken in gate order with kx gates before ks gates
        spec = ModelSpec.convlstm_baseline(width=3, n_layers=1)
        unit = build(spec, 5).layers[0].units["t-"]
        rng = SplitMix64(5)
        for stacked, fan_in in ((unit.kx, 1), (unit.ks, 3)):
            for part in np.split(stacked.data, len(GATES), axis=3):
                want = xavier_uniform((3, 3, fan_in, 3), 9 * fan_in, 9 * 3, rng)
                np.testing.assert_array_equal(part, want)
        assert unit.b.shape == (len(GATES) * 3,)
        assert len(build(ModelSpec(), 0).parameters) == 46
        assert len(build(ModelSpec.convlstm_baseline(width=10), 0).parameters) == 62

    def test_biases_start_at_zero(self):
        model = build(tiny_spec(), 3)
        np.testing.assert_array_equal(model.parameters["layer1.t-.b"].data, 0.0)
        np.testing.assert_array_equal(model.parameters["head.bias"].data, 0.0)


class TestForward:
    def test_output_strictly_inside_unit_interval(self):
        model = build(ModelSpec(layers=[(3, 3), (3, 3)]), 0)
        frames = np.random.default_rng(0).uniform(size=(3, 6, 6, 1))
        out = forward_predict(model, frames)
        assert out.shape == (6, 6, 1)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_single_position_matches_manual_composition(self):
        # with a 1x1x1 cuboid every directional scan is one recurrence step,
        # so the whole model reduces to hand-composable algebra
        spec = tiny_spec(layers=[(3, 3)], blend_mode="weighted", in_channels=2)
        model = build(spec, 7)
        frames = np.random.default_rng(1).uniform(size=(1, 1, 1, 2))
        got = forward_predict(model, frames)

        tape = Tape()
        layer = model.layers[0]
        plane = Tensor(frames[0])  # identical [1,1,C] plane for every direction
        states = [pmd_step(tape, layer.units[d], plane)[1] for d in DIRECTIONS]
        vec = np.concatenate([s.data[0, 0] for s in states])
        weight, bias = layer.blend
        blended = vec @ weight.data[0, 0] + bias.data
        logits = blended @ model.head_weight.data[0, 0] + model.head_bias.data
        ref = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(got[0, 0], ref, atol=1e-12)

    def test_translation_equivariance_away_from_borders(self):
        # strict check on the time-only model, whose receptive radius is
        # finite: with one layer and T=3 the radius is 2(Delta+1)+1 <= 7,
        # so content kept >= 4 from the border shifts exactly
        rng = np.random.default_rng(2)
        frames = np.zeros((3, 12, 12, 1))
        frames[:, 4:8, 4:8, :] = rng.uniform(0.2, 1.0, size=(3, 4, 4, 1))
        shifted = np.zeros_like(frames)
        shifted[:, 2:, 2:, :] = frames[:, :-2, :-2, :]

        baseline = build(ModelSpec.convlstm_baseline(width=3, n_layers=1), 5)
        out = forward_predict(baseline, frames)
        out_shifted = forward_predict(baseline, shifted)
        assert np.max(np.abs(out_shifted[4:10, 4:10] - out[2:8, 2:8])) < 1e-9

        # the five-direction model covers the whole frame by design, so no
        # pixel is beyond its receptive radius; border effects must still
        # be strongly attenuated in the interior
        full = build(ModelSpec(layers=[(3, 3)], blend_mode="weighted"), 5)
        out = forward_predict(full, frames)
        out_shifted = forward_predict(full, shifted)
        assert np.max(np.abs(out_shifted[4:10, 4:10] - out[2:8, 2:8])) < 1e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.5])
    def test_non_finite_or_out_of_range_frames_rejected(self, bad):
        model = build(tiny_spec(), 0)
        frames = np.full((2, 4, 4, 1), 0.5)
        frames[1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            forward_predict(model, frames)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            predict_recursive(model, frames, 2)

    def test_empty_time_axis_rejected(self):
        model = build(tiny_spec(), 0)
        with pytest.raises(ShapeError, match="at least one frame"):
            forward_predict(model, np.zeros((0, 4, 4, 1)))

    @pytest.mark.parametrize("shape", [(3, 0, 4, 1), (3, 4, 0, 1)], ids=["H", "W"])
    def test_empty_plane_rejected(self, shape):
        # before any scan: the scans' patch views fail on an empty plane
        # with numpy's own ValueError
        model = build(tiny_spec(), 0)
        with pytest.raises(ShapeError, match="H, W >= 1"):
            forward_predict(model, np.zeros(shape))

    def test_forward_cuboid_takes_batches_only(self):
        model = build(tiny_spec(), 0)
        with pytest.raises(ShapeError, match=r"\[N, T, H, W, C\], got rank 4"):
            forward_cuboid(Tape(recording=False), model, Tensor(np.zeros((2, 4, 4, 1))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_forward_cuboid_rejects_non_finite_input_before_any_scan(self, bad, monkeypatch):
        # the training entry point: forward_predict's range check does not cover it
        model = build(tiny_spec(), 0)

        def refuse(*args, **kwargs):
            raise AssertionError("pmd_layer called")

        monkeypatch.setattr(model_module, "pmd_layer", refuse)
        x = np.full((2, 2, 4, 4, 1), 0.5)
        x[1, 0, 2, 3, 0] = bad
        tape = Tape()
        with pytest.raises(ValueError, match="input must be finite"):
            forward_cuboid(tape, model, Tensor(x, requires_grad=True))
        assert tape.nodes == []

    def test_predict_window_rank_checked_before_values_and_forward(self, monkeypatch):
        # a batch of windows is not one window, whatever its values
        model = build(tiny_spec(), 0)

        def refuse(*args, **kwargs):
            raise AssertionError("forward_cuboid called")

        monkeypatch.setattr(model_module, "forward_cuboid", refuse)
        window = np.full((1, 2, 4, 4, 1), np.nan)
        with pytest.raises(ShapeError, match=r"\[T, H, W, C\] cuboid, got rank 5"):
            forward_predict(model, window)

    def test_batched_forward_matches_loop(self):
        model = build(ModelSpec(layers=[(2, 2), (2, 2)]), 9)
        rng = np.random.default_rng(3)
        batch = rng.uniform(size=(3, 2, 5, 5, 1))
        out = forward_cuboid(Tape(recording=False), model, Tensor(batch)).data
        for n in range(3):
            np.testing.assert_allclose(
                out[n], forward_predict(model, batch[n]), atol=1e-12
            )

    def test_gradients_match_finite_differences(self):
        spec = ModelSpec(layers=[(2, 2)], blend_mode="weighted", dws=True)
        model = build(spec, 11)
        rng = np.random.default_rng(4)
        frames = rng.uniform(size=(1, 2, 4, 4, 1))
        target = rng.uniform(0.1, 0.9, size=(1, 4, 4, 1))
        params = list(model.parameters.values())

        def f(tape, _params):
            pred = forward_cuboid(tape, model, Tensor(frames))
            diff = tape.sub(Tensor(target), pred)
            return tape.sum(tape.mul(diff, diff))

        max_rel, excluded = finite_diff_check(f, params)
        assert excluded == []
        assert max_rel < 1e-4

    def test_dws_matches_untied_with_copied_parameters(self):
        tied_spec = ModelSpec(layers=[(2, 2), (2, 2)], dws=True)
        untied_spec = ModelSpec(layers=[(2, 2), (2, 2)], dws=False)
        tied = build(tied_spec, 13)
        untied = build(untied_spec, 13)
        tied_params = tied.parameters
        for name, t in untied.parameters.items():
            part = name.split(".")
            if len(part) == 3 and part[1] in ("h-", "h+", "w-", "w+"):
                source = f"{part[0]}.{part[1][0]}.{part[2]}"
            else:
                source = name
            t.data[...] = tied_params[source].data
        frames = np.random.default_rng(5).uniform(size=(2, 5, 5, 1))
        np.testing.assert_array_equal(
            forward_predict(tied, frames), forward_predict(untied, frames)
        )


class TestTraining:
    def test_default_step_records_at_most_50_nodes(self):
        # one fused node per layer instead of ~17 per plane step
        model = build(ModelSpec(), 0)
        rng = np.random.default_rng(5)
        tape = Tape()
        pred = forward_cuboid(tape, model, Tensor(rng.uniform(size=(4, 10, 16, 16, 1))))
        combined_loss(tape, Tensor(rng.uniform(size=(4, 16, 16, 1))), pred, LossSpec())
        # a scan node and a blend conv2d per layer, two skip concats, the
        # head (index, conv2d, sigmoid), 21 loss nodes; blend and head
        # weights are stored as the 1x1 kernels they convolve with
        assert len(tape.nodes) <= 34
        assert not [n for n in tape.nodes if n.kind == "reshape"]
        # the cuboid, then kx, ks and b for each of the five directions
        layer_nodes = [n for n in tape.nodes if n.kind == "pmd_layer"]
        assert [len(n.inputs) for n in layer_nodes] == [1 + 5 * 3] * 4

    def test_two_runs_of_two_steps_bit_identical(self, monkeypatch):
        monkeypatch.setattr(pmd, "_THREADS", 2)  # use the pool even on one core
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(2, 3, 5, 5, 1))
        y = rng.uniform(size=(2, 5, 5, 1))

        def run():
            model = build(ModelSpec(layers=[(3, 3), (3, 3)]), 12)
            adam = AdamState.for_parameters(model.parameters)
            grads = []
            for _ in range(2):
                tape = Tape()
                pred = forward_cuboid(tape, model, Tensor(x))
                tape.backward(combined_loss(tape, Tensor(y), pred, LossSpec()))
                grads += [t.grad.tobytes() for t in model.parameters.values()]
                adam_step(adam, model.parameters)
            return grads

        assert run() == run()

    def test_repeated_backward_through_layer_nodes(self, monkeypatch):
        # Tape.backward clears and recomputes: the fused nodes must not
        # consume what they keep for backward
        monkeypatch.setattr(pmd, "_THREADS", 2)  # use the pool even on one core
        rng = np.random.default_rng(8)
        # three groups per layer, and one group whose batch is split
        for spec in (ModelSpec(), ModelSpec.convlstm_baseline(width=3, n_layers=2)):
            model = build(spec, 0)
            tape = Tape()
            pred = forward_cuboid(tape, model, Tensor(rng.uniform(size=(2, 3, 6, 6, 1))))
            loss = combined_loss(tape, Tensor(rng.uniform(size=(2, 6, 6, 1))), pred, LossSpec())
            assert sum(n.kind == "pmd_layer" for n in tape.nodes) == len(model.layers)
            grads = []
            for _ in range(2):
                tape.backward(loss)
                grads.append([t.grad.tobytes() for t in model.parameters.values()])
            assert grads[0] == grads[1]


class TestRecursive:
    def test_p1_equals_forward(self):
        model = build(tiny_spec(), 0)
        frames = np.random.default_rng(6).uniform(size=(3, 4, 4, 1))
        np.testing.assert_array_equal(
            predict_recursive(model, frames, 1)[0], forward_predict(model, frames)
        )

    def test_p2_slides_the_window(self):
        model = build(tiny_spec(), 0)
        frames = np.random.default_rng(7).uniform(size=(3, 4, 4, 1))
        preds = predict_recursive(model, frames, 2)
        window = np.concatenate([frames[1:], preds[0][None]], axis=0)
        np.testing.assert_array_equal(preds[1], forward_predict(model, window))

    def test_multi_step_stays_in_unit_interval(self):
        model = build(ModelSpec(layers=[(3, 3), (3, 3)]), 1)
        frames = np.random.default_rng(8).uniform(size=(3, 5, 5, 1))
        preds = predict_recursive(model, frames, 8)
        assert preds.shape == (8, 5, 5, 1)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)
        assert np.all(np.isfinite(preds))

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            predict_recursive(build(tiny_spec(), 0), np.zeros((2, 4, 4, 1)), 0)

    @pytest.mark.parametrize("shape", [(1, 3, 4, 4, 1), (4, 4, 1)], ids=["batched", "one-frame"])
    def test_window_rank_checked_before_any_forward(self, shape, monkeypatch):
        # the window slide needs one [T, H, W, C] window; predict_recursive
        # checks that itself, before its first forward_predict
        model = build(tiny_spec(), 0)

        def refuse(*args, **kwargs):
            raise AssertionError("forward_predict called")

        monkeypatch.setattr(model_module, "forward_predict", refuse)
        with pytest.raises(ShapeError, match=rf"\[T, H, W, C\] cuboid, got rank {len(shape)}"):
            predict_recursive(model, np.zeros(shape), 2)


class TestCounting:
    def test_single_time_unit_closed_form(self):
        # one time-direction unit, k=3, Cin=1, Ch=2:
        # 4 * (9*(1+2)*2 + 2) = 224 scalars
        spec = ModelSpec.convlstm_baseline(width=2, n_layers=1, in_channels=1)
        model = build(spec, 0)
        unit_scalars = sum(
            t.data.size for n, t in model.parameters.items() if n.startswith("layer1.")
        )
        assert unit_scalars == 224

    def test_count_matches_spec_formula(self):
        for spec in (
            ModelSpec(layers=[(4, 6), (3, 5)], blend_mode="weighted", dws=True),
            ModelSpec(layers=[(4, 6), (3, 5)], blend_mode="uniform", dws=False),
            ModelSpec.convlstm_baseline(width=3, n_layers=5),
            ModelSpec(layers=[(2, 2)] * 4, in_channels=3),
        ):
            model = build(spec, 0)
            assert [(name, t.shape) for name, t in model.parameters.items()] == \
                list(param_shapes(spec).items())

    def test_sharing_accounting(self):
        untied_spec = ModelSpec(layers=[(3, 3), (4, 4)], dws=False)
        tied_spec = ModelSpec(layers=[(3, 3), (4, 4)], dws=True)
        untied = build(untied_spec, 0)
        removed = sum(
            t.data.size
            for name, t in untied.parameters.items()
            if name.split(".")[1] in ("h+", "w+")
        )
        assert count_from_spec(tied_spec) == count_from_spec(untied_spec) - removed

    def test_weighted_blend_extra_scalars(self):
        uniform = ModelSpec(layers=[(4, 6)], blend_mode="uniform", dws=False)
        weighted = ModelSpec(layers=[(4, 6)], blend_mode="weighted", dws=False)
        delta = count_from_spec(weighted) - count_from_spec(uniform)
        assert delta == (5 * 4) * 6 - 4 * 6

    def test_small_half_of_big(self):
        big = ModelSpec(layers=[(8, 8), (16, 16), (16, 16), (8, 8)])
        small = ModelSpec(layers=[(4, 4), (8, 8), (8, 8), (4, 4)])
        assert count_from_spec(small) < count_from_spec(big)

    def test_baseline_width_search(self):
        target = count_from_spec(ModelSpec(layers=[(4, 4), (4, 4)]))
        width = baseline_width_for(target, n_layers=4)
        counts = {
            w: count_from_spec(ModelSpec.convlstm_baseline(width=w, n_layers=4))
            for w in range(max(1, width - 2), width + 3)
        }
        best = min(counts, key=lambda w: abs(counts[w] - target))
        assert abs(counts[width] - target) == abs(counts[best] - target)


class TestSerialization:
    def test_roundtrip_bytes_identical(self, tmp_path):
        model = build(ModelSpec(layers=[(3, 3), (2, 2)]), 21)
        path = tmp_path / "model.cvpm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert model_bytes(loaded) == path.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = build(ModelSpec(layers=[(3, 3)], blend_mode="weighted"), 22)
        path = tmp_path / "model.cvpm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        frames = np.random.default_rng(9).uniform(size=(2, 5, 5, 1))
        np.testing.assert_array_equal(
            forward_predict(model, frames), forward_predict(loaded, frames)
        )

    def test_truncated_file(self, tmp_path):
        model = build(tiny_spec(), 0)
        blob = model_bytes(model)
        path = tmp_path / "cut.cvpm"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(serial.TruncatedFileError):
            load_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.cvpm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(serial.BadMagicError):
            load_model(str(path))

    def test_shared_tensors_stored_once(self, tmp_path):
        tied = ModelSpec(layers=[(3, 3)], dws=True)
        untied = ModelSpec(layers=[(3, 3)], dws=False)
        assert len(model_bytes(build(tied, 0))) < len(model_bytes(build(untied, 0)))

    @pytest.mark.parametrize("spec, values_digest, file_digest", [
        (ModelSpec(),
         "87db221765201275f92f1f4ec2a12111d3d8ae132bbdce8d8af10ed638058169",
         "397e06b6d4526bb7b8b136bf63e26c74b706f9221959e6efaac4c03a119cb6a1"),
        (ModelSpec.convlstm_baseline(width=10),
         "51f88f7504db0a0ec5c1451c00ebfb0412e3c292c4e2f4d3d2b9561b2ff30f70",
         "22dec03f1b17f8385ece9d2776ff0822018efd406445d19de68680d6c92206cf"),
    ], ids=["default", "baseline-width-10"])
    def test_parameter_bytes_pinned(self, spec, values_digest, file_digest):
        # the values digest pins the draw alone; the file digest also pins
        # the layout, and a change to either means files written before it
        # no longer load the same
        model = build(spec, 0)
        values = b"".join(t.data.astype("<f8").tobytes() for t in model.parameters.values())
        assert hashlib.sha256(values).hexdigest() == values_digest
        assert hashlib.sha256(model_bytes(model)).hexdigest() == file_digest

    def test_load_does_not_build(self, tmp_path, monkeypatch):
        model = build(ModelSpec(layers=[(3, 3), (2, 2)]), 23)
        path = tmp_path / "model.cvpm"
        save_model(model, str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("build or a seeded draw called")

        monkeypatch.setattr(model_module, "build", refuse)
        monkeypatch.setattr(model_module, "SplitMix64", refuse)
        assert model_bytes(load_model(str(path))) == path.read_bytes()

    def test_reloaded_model_trains_identically(self, tmp_path):
        model = build(ModelSpec(layers=[(3, 3), (2, 2)]), 24)
        path = tmp_path / "model.cvpm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for t in loaded.parameters.values():
            assert t.data.flags.writeable and t.data.flags.owndata
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(2, 3, 5, 5, 1))
        y = rng.uniform(size=(2, 5, 5, 1))

        def two_steps(m):
            adam = AdamState.for_parameters(m.parameters)
            grads = []
            for _ in range(2):
                tape = Tape()
                pred = forward_cuboid(tape, m, Tensor(x))
                tape.backward(combined_loss(tape, Tensor(y), pred, LossSpec()))
                grads += [t.grad.tobytes() for t in m.parameters.values()]
                adam_step(adam, m.parameters)
            return grads

        assert two_steps(loaded) == two_steps(model)
        assert model_bytes(loaded) == model_bytes(model)
        assert model_bytes(loaded) != path.read_bytes()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_file_rejected(self, tmp_path, version):
        blob = bytearray(model_bytes(build(tiny_spec(), 0)))
        blob[4:8] = version.to_bytes(4, "little")
        path = tmp_path / "old.cvpm"
        path.write_bytes(bytes(blob))
        with pytest.raises(serial.FormatError, match=f"version {version}"):
            load_model(str(path))


def tiny_spec_json(**changes):
    return json.dumps({**tiny_spec().to_dict(), **changes}).encode()


def load_cvpm(tmp_path, spec_json: bytes, n_values: int | None = None):
    """Load a model file made from raw parts: a spec blob, then `n_values`
    zero float64 values, by default as many as the tiny spec takes, so only
    the part under test is wrong."""
    if n_values is None:
        n_values = count_from_spec(tiny_spec())
    w = serial.Writer()
    w.raw(MODEL_MAGIC)
    w.u32(MODEL_VERSION)
    w.u64(len(spec_json))
    w.raw(spec_json)
    w.raw(bytes(8 * n_values))
    path = tmp_path / "m.cvpm"
    path.write_bytes(w.getvalue())
    return load_model(str(path))


class TestMalformedModelFiles:
    """Every malformed model file fails with a serial.FormatError."""

    @pytest.mark.parametrize("spec_json", [
        b"{not json",
        b'{"kind": "\xff"}',
        b"[1, 2]",
        tiny_spec_json(bogus=1),
        tiny_spec_json(kernel=4),
        tiny_spec_json(kernel=3.0),
        tiny_spec_json(layers=[["a", 2]]),
        b"[" * 100_000 + b"]" * 100_000,
        tiny_spec_json(dws="no"),
        tiny_spec_json(layers=[[2.5, 2]]),
        tiny_spec_json(kind="convlstm_baseline", layers=[[2, 3]]),
    ], ids=["corrupt-json", "not-utf8", "not-an-object", "unknown-key", "even-kernel",
            "float-kernel", "text-width", "nested-past-recursion-limit", "dws-string",
            "float-width", "baseline-n1-n2"])
    def test_bad_spec(self, tmp_path, spec_json):
        with pytest.raises(serial.FormatError, match="invalid model spec"):
            load_cvpm(tmp_path, spec_json)

    def test_payload_one_value_short(self, tmp_path):
        with pytest.raises(serial.TruncatedFileError, match="float64 values"):
            load_cvpm(tmp_path, tiny_spec_json(), count_from_spec(tiny_spec()) - 1)

    def test_payload_one_value_over(self, tmp_path):
        with pytest.raises(serial.FormatError, match="trailing"):
            load_cvpm(tmp_path, tiny_spec_json(), count_from_spec(tiny_spec()) + 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameter_value(self, tmp_path, bad):
        # the file's last f8 is the last value of head.bias, the last tensor
        blob = bytearray(model_bytes(build(tiny_spec(), 0)))
        blob[-8:] = np.array([bad], dtype="<f8").tobytes()
        path = tmp_path / "m.cvpm"
        path.write_bytes(bytes(blob))
        with pytest.raises(serial.FormatError, match="'head.bias'.*not finite"):
            load_model(str(path))

    def test_forged_spec_fails_before_build(self, tmp_path, monkeypatch):
        # a few bytes of spec asking for billions of weights must not reach
        # build, which would draw and allocate them
        def no_build(*args, **kwargs):
            raise AssertionError("build called")

        monkeypatch.setattr(model_module, "build", no_build)
        with pytest.raises(serial.TruncatedFileError, match="float64 values"):
            load_cvpm(tmp_path, tiny_spec_json(layers=[[4096, 4096]] * 4))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_byte_mutation_fuzz(self, tmp_path_factory, data):
        blob = bytearray(model_bytes(build(tiny_spec(layers=[(1, 1)], kernel=1), 0)))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        blob = blob[:data.draw(st.integers(0, len(blob)))] + data.draw(st.binary(max_size=8))
        path = tmp_path_factory.mktemp("fuzz") / "m.cvpm"
        path.write_bytes(bytes(blob))
        try:
            load_model(str(path))
        except serial.FormatError:
            pass
