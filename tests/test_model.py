import numpy as np
import pytest

import contextvp.pmd as pmd
import contextvp.serial as serial
from contextvp.loss_optim import AdamState, LossSpec, adam_step, combined_loss
from contextvp.tensor import Tensor, Tape, finite_diff_check
from contextvp.pmd import DIRECTIONS
from contextvp.model import (
    Model,
    ModelSpec,
    baseline_width_for,
    build,
    count_from_spec,
    count_parameters,
    forward_cuboid,
    forward_predict,
    load_model,
    model_bytes,
    predict_recursive,
    save_model,
)
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
        assert a.parameters["layer1.t-.kx_in"].data.tobytes() != \
            b.parameters["layer1.t-.kx_in"].data.tobytes()

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

    def test_biases_start_at_zero(self):
        model = build(tiny_spec(), 3)
        np.testing.assert_array_equal(model.parameters["layer1.t-.b_in"].data, 0.0)
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
        states = [pmd_step(tape, layer.unit_for(d), plane)[1] for d in DIRECTIONS]
        vec = np.concatenate([s.data[0, 0] for s in states])
        blended = vec @ layer.blend_block.weight.data + layer.blend_block.bias.data
        logits = blended @ model.head_weight.data + model.head_bias.data
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

    def test_empty_time_axis_rejected(self):
        model = build(tiny_spec(), 0)
        with pytest.raises(Exception):
            forward_predict(model, np.zeros((0, 4, 4, 1)))

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
        frames = rng.uniform(size=(2, 4, 4, 1))
        target = rng.uniform(0.1, 0.9, size=(4, 4, 1))
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
        assert len(tape.nodes) <= 50

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


class TestCounting:
    def test_single_time_unit_closed_form(self):
        # one time-direction unit, k=3, Cin=1, Ch=2:
        # 4 * (9*(1+2)*2 + 2) = 224 scalars
        spec = ModelSpec.convlstm_baseline(width=2, n_layers=1, in_channels=1)
        model = build(spec, 0)
        unit_scalars = sum(
            t.size for n, t in model.parameters.items() if n.startswith("layer1.")
        )
        assert unit_scalars == 224

    def test_count_matches_spec_formula(self):
        for spec in (
            ModelSpec(layers=[(4, 6), (3, 5)], blend_mode="weighted", dws=True),
            ModelSpec(layers=[(4, 6), (3, 5)], blend_mode="uniform", dws=False),
            ModelSpec.convlstm_baseline(width=3, n_layers=5),
            ModelSpec(layers=[(2, 2)] * 4, in_channels=3),
        ):
            assert count_parameters(build(spec, 0)) == count_from_spec(spec)

    def test_sharing_accounting(self):
        untied_spec = ModelSpec(layers=[(3, 3), (4, 4)], dws=False)
        tied_spec = ModelSpec(layers=[(3, 3), (4, 4)], dws=True)
        untied, tied = build(untied_spec, 0), build(tied_spec, 0)
        removed = sum(
            t.size
            for name, t in untied.parameters.items()
            if name.split(".")[1] in ("h+", "w+")
        )
        assert count_parameters(tied) == count_parameters(untied) - removed

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
