import dataclasses
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from vitbench import checkpoint
from vitbench import data as D
from vitbench import tensor as T
from vitbench import train as train_module
from vitbench import workers
from vitbench.checkpoint import (
    Checkpoint,
    load_checkpoint,
    load_params_into,
    save_checkpoint,
    snapshot_params,
)
from vitbench.errors import (
    ConfigurationError,
    ContractError,
    EmptyDatasetError,
    FormatError,
    LabelError,
    TrainingError,
    ValidationError,
)
from vitbench.tensor import Tensor
from vitbench.train import (
    MODEL_KINDS,
    Adam,
    ConfusionMatrix,
    MetricsRecord,
    TrainConfig,
    emit_comparison,
    evaluate,
    fine_tune,
    make_model,
    parse_comparison,
    pretrain,
    train,
)
from vitbench.vit import ViTConfig

from conftest import backward_grad_dtypes


@pytest.fixture
def tiny_task(tmp_path):
    """12-image 3-class synthetic dataset on disk."""
    path = D.generate_synthetic(tmp_path, "tiny", 3, 4, seed=21)
    return D.load_manifest(path)


def _record_forward_and_decode(model, monkeypatch) -> list:
    """Record every ``model.forward_batch`` call and every image decode."""
    calls = []
    forward, load = model.forward_batch, D.load_image

    def recording_forward(images, rng=None):
        calls.append("forward")
        return forward(images, rng)

    def recording_load(path, dtype):
        calls.append("load")
        return load(path, dtype)

    model.forward_batch = recording_forward
    monkeypatch.setattr(D, "load_image", recording_load)
    return calls


class TestAdam:
    def test_first_step_magnitude_about_lr(self):
        p = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)
        p._grad = np.array([0.3, -5.0, 1e-3])
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.001)
        opt.step()
        delta = np.abs(p.data - before)
        assert np.all(delta >= 0.9 * 0.001)
        assert np.all(delta <= 0.001 + 1e-12)

    def test_zero_gradient_fresh_state(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.zero_grad()
        before = p.data.copy()
        Adam({"p": p}).step()
        assert np.array_equal(p.data, before)

    def test_missing_gradient(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"theta": p})
        with pytest.raises(ContractError, match="theta"):
            opt.step()

    def test_scalar_quadratic_convergence(self):
        # Adam's step magnitude is capped near lr, so covering the distance
        # from 0 to 3 at lr 0.001 needs ~3000 steps plus settling time;
        # measured convergence is at step 5791
        theta = Tensor(np.array(0.0), requires_grad=True)
        opt = Adam({"theta": theta}, lr=0.001)
        for _ in range(6000):
            opt.zero_grad()
            with T.Tape() as tape:
                diff = T.sub(theta, Tensor(3.0))
                loss = T.mul(diff, diff)
            T.backward(loss, tape)
            opt.step()
        assert abs(theta.item() - 3.0) < 1e-2

    def test_step_count_and_moment_shapes(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        opt = Adam({"p": p})
        for i in range(5):
            p.zero_grad()
            opt.step()
        assert opt.t == 5
        assert opt.m["p"].shape == (2, 3)
        assert opt.v["p"].shape == (2, 3)


class TestTrain:
    def test_record_count_one_epoch(self, tiny_task):
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=0)
        hist = train(model, tiny_task, tiny_task, cfg)
        assert len(hist) == 2
        assert [h.split for h in hist] == ["train", "val"]

    def test_fixed_seed_identical_histories(self, tiny_task):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=7)
        h1 = train(make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=1),
                   tiny_task, tiny_task, cfg)
        h2 = train(make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=1),
                   tiny_task, tiny_task, cfg)
        assert h1 == h2

    def test_run_depends_only_on_its_start_and_config(self, tiny_task):
        """A second ``train`` call from reloaded initial parameters repeats
        the first: dropout draws nothing from the model's earlier runs."""
        model = make_model("vit", {"num_classes": 3, "dropout": 0.5}, seed=1)
        start = snapshot_params(model)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=7)
        h1 = train(model, tiny_task, tiny_task, cfg)
        load_params_into(model, start)
        assert train(model, tiny_task, tiny_task, cfg) == h1
        # the same start without dropout trains differently: the steps drew masks
        assert train(make_model("vit", {"num_classes": 3}, seed=1),
                     tiny_task, tiny_task, cfg) != h1

    @pytest.mark.parametrize("kind, parts", [("vit", ((8,), (4,))),
                                             ("mobilenet-mini", ((4, 4), (2, 2)))],
                             ids=["vit", "mobilenet-mini"])
    def test_each_part_draws_dropout_from_seed_epoch_1_step_part(self, kind, parts,
                                                                 tiny_task, monkeypatch):
        """A ViT step is one part, a CNN step two halves (in process here)."""
        monkeypatch.setattr(workers, "MIN_STEPS", 99)
        model = make_model(kind, {"num_classes": 3, **({"dropout": 0.5} if kind == "vit" else {})})
        forward, calls = model.forward_batch, []

        def recording(images, rng=None):
            calls.append((len(images), rng.bit_generator.state))
            return forward(images, rng)

        model.forward_batch = recording
        # two steps of 8 and 4 images per epoch, no val pass
        train(model, tiny_task, None, TrainConfig(epochs=2, batch_size=8, seed=7))
        assert calls == [(n, np.random.default_rng([7, e, 1, b, h]).bit_generator.state)
                         for e in range(2) for b, sizes in enumerate(parts)
                         for h, n in enumerate(sizes)]

    def test_losses_finite(self, tiny_task):
        model = make_model("vgg-mini", {"num_classes": 3}, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
        hist = train(model, tiny_task, None, cfg)
        assert all(np.isfinite(h.loss) for h in hist)

    def test_empty_manifest(self):
        manifest = D.DatasetManifest(name="x", class_names=["a"], entries=[])
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=0)
        with pytest.raises(EmptyDatasetError):
            train(model, manifest, None, TrainConfig(epochs=1, batch_size=4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_non_finite_parameter_ends_the_epoch(self, tiny_task):
        # one batch per epoch, so no later loss check sees the overflow
        model = make_model("vit", {"num_classes": 3}, seed=0)
        with pytest.raises(TrainingError,
                           match=r"non-finite parameter '.+' at epoch 0, after batch 0"):
            train(model, tiny_task, None, TrainConfig(epochs=1, batch_size=12, lr=1e300))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_non_finite_loss_names_epoch_and_batch(self, tiny_task, monkeypatch):
        # strict mode would stop the forward pass before the loss is checked
        monkeypatch.setattr(T, "_STRICT", False)
        model = make_model("vit", {"num_classes": 3}, seed=0)
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0, batch 1"):
            train(model, tiny_task, None, TrainConfig(epochs=1, batch_size=8, lr=1e300))

    def test_val_manifest_of_another_class_count(self, tiny_task, tmp_path, monkeypatch):
        model = make_model("vit", {"num_classes": 3}, seed=0)
        val = D.load_manifest(D.generate_synthetic(tmp_path / "val", "two", 2, 2, seed=3))
        calls = _record_forward_and_decode(model, monkeypatch)
        with pytest.raises(ValidationError, match=r"'two' has 2 classes.*predicts 3"):
            train(model, tiny_task, val, TrainConfig(epochs=1, batch_size=4))
        assert calls == []

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("epochs", True), ("batch_size", 2.5), ("batch_size", "8"),
        ("lr", float("nan")), ("lr", float("inf")), ("lr", "0.1"), ("lr", True),
        ("seed", -1), ("seed", 0.5), ("augment", None),
    ])
    def test_bad_field_is_configuration_error(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: value})


class TestEvaluate:
    def test_perfect_predictions(self, tiny_task):
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=0)
        cfg = TrainConfig(epochs=200, batch_size=12, seed=0)
        train(model, tiny_task, None, cfg, stop_at_train_acc=1.0)
        record, cm = evaluate(model, tiny_task)
        assert record.accuracy == 1.0
        off_diag = cm.counts - np.diag(np.diag(cm.counts))
        assert off_diag.sum() == 0

    def test_binary_formula(self):
        cm = ConfusionMatrix(2)
        cm.counts[1, 1] = 90
        cm.counts[0, 0] = 85
        cm.counts[0, 1] = 10
        cm.counts[1, 0] = 15
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (90, 85, 10, 15)
        assert cm.accuracy == (90 + 85) / 200
        assert cm.accuracy == 0.875

    def test_matches_brute_force_counter(self):
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 4, size=1000)
        preds = rng.integers(0, 4, size=1000)
        cm = ConfusionMatrix(4)
        for lab, pred in zip(labels, preds):
            cm.add(int(lab), int(pred))
        # independent brute-force count
        correct = sum(1 for lab, pred in zip(labels, preds) if lab == pred)
        assert cm.total == 1000
        assert cm.accuracy == correct / 1000

    def test_array_add_matches_per_sample_adds(self):
        rng = np.random.default_rng(32)
        labels = rng.integers(0, 3, size=200)
        preds = rng.integers(0, 3, size=200)
        batched, single = ConfusionMatrix(3), ConfusionMatrix(3)
        batched.add(labels[:150], preds[:150])
        batched.add(labels[150:], preds[150:])
        for lab, pred in zip(labels, preds):
            single.add(int(lab), int(pred))
        assert np.array_equal(batched.counts, single.counts)
        assert batched.total == 200

    @pytest.mark.parametrize("labels, preds, message", [
        (-1, 0, "label -1 at index 0"),
        (3, 0, "label 3 at index 0"),
        (0, 3, "prediction 3 at index 0"),
        (np.array([0, 2, -1, 5]), np.array([0, 1, 2, 0]), "label -1 at index 2"),
        (np.array([0, 1, 2]), np.array([1, 7, 9]), "prediction 7 at index 1"),
    ], ids=["neg-label", "big-label", "big-prediction", "label-array", "prediction-array"])
    def test_out_of_range_is_label_error(self, labels, preds, message):
        cm = ConfusionMatrix(3)
        with pytest.raises(LabelError, match=message):
            cm.add(labels, preds)
        assert cm.total == 0

    def test_empty_manifest(self):
        manifest = D.DatasetManifest(name="x", class_names=["a"], entries=[])
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=0)
        with pytest.raises(EmptyDatasetError):
            evaluate(model, manifest)

    def test_manifest_of_another_class_count(self, tmp_path, monkeypatch):
        model = make_model("vit", {"num_classes": 3}, seed=0)
        two = D.load_manifest(D.generate_synthetic(tmp_path, "two", 2, 2, seed=3))
        calls = _record_forward_and_decode(model, monkeypatch)
        with pytest.raises(ValidationError, match=r"'two' has 2 classes.*predicts 3"):
            evaluate(model, two)
        assert calls == []

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_holds_at_most_one_earlier_batch(self, tmp_path, dtype):
        """``evaluate`` streams its batches in the model's dtype: while a
        batch runs forward, at most one batch before it is still alive."""
        rng = np.random.default_rng(2)
        entries = []
        for i in range(200):  # four batches of 64, 64, 64 and 8
            (tmp_path / f"e{i}.ppm").write_bytes(D.encode_ppm(rng.random((3, 4, 4))))
            entries.append((f"e{i}.ppm", i % 2))
        manifest = D.DatasetManifest(name="stream", class_names=["a", "b"],
                                     entries=entries, root=tmp_path)

        class Recording:
            kind = "recording"
            config = ViTConfig(dtype=dtype, num_classes=2)

            def __init__(self):
                self.seen = []
                self.earlier_alive = []

            def forward_batch(self, images):
                assert images.dtype == np.dtype(dtype)
                self.earlier_alive.append(sum(ref() is not None for ref in self.seen))
                self.seen.append(weakref.ref(images))
                return Tensor(np.zeros((len(images), 2), images.dtype))

        model = Recording()
        record, cm = evaluate(model, manifest)
        assert cm.total == 200 and len(model.seen) == 4
        assert max(model.earlier_alive) <= 1, model.earlier_alive

    def test_train_streams_batches_in_the_model_dtype(self, tiny_task, monkeypatch):
        """``train`` decodes in the model's dtype, and decodes each training
        and validation image once, before its first step."""
        model = make_model("vit", {"num_classes": 3, "dtype": "float32"}, seed=0)
        events = []
        forward, load = model.forward_batch, D.load_image

        def recording(images, rng=None):
            events.append(images.dtype)
            return forward(images, rng)

        def recording_load(path, dtype):
            events.append("load")
            return load(path, dtype)

        model.forward_batch = recording
        monkeypatch.setattr(D, "load_image", recording_load)
        tr, va, _ = D.split_dataset(tiny_task, D.SplitSpec(ratios=(0.5, 0.5, 0.0)))
        train(model, tr, va, TrainConfig(epochs=2, batch_size=4, seed=0))
        # six training and six validation images, then per epoch two
        # training batches and one validation batch
        assert events == ["load"] * 12 + [np.float32] * 6



class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=3)
        ckpt = Checkpoint(kind="vit", config=model.config.to_dict(),
                          params=snapshot_params(model),
                          metadata={"seed": 3, "epochs": 0,
                                    "source_dataset": "none"})
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == "vit"
        assert loaded.config == ckpt.config
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        model = make_model("resnet-mini", {"num_classes": 2}, seed=4)
        ckpt = Checkpoint(kind="resnet-mini", config=model.config.to_dict(),
                          params=snapshot_params(model))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_existing_file(self, tmp_path, monkeypatch):
        params = {"a": np.arange(3.0), "b": np.ones(4), "head.w": np.ones((2, 2))}
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config={"num_classes": 2}, params=params), path)
        before = path.read_bytes()
        encoded = []

        def fail_on_second(arr):
            if encoded:
                raise OSError("disk full")
            encoded.append(arr)
            return T.tnsr_encode(arr)

        monkeypatch.setattr(checkpoint, "tnsr_encode", fail_on_second)
        newer = {name: value + 1.0 for name, value in params.items()}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(Checkpoint(kind="vit", config={"num_classes": 2}, params=newer), path)
        assert encoded  # the failure came partway through the write
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_every_proper_prefix_is_format_error(self, tmp_path):
        ckpt = Checkpoint(kind="vit", config={"num_classes": 2},
                          params={"a": np.arange(3.0), "head.w": np.ones((2, 2))})
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        full = path.read_bytes()
        for n in range(len(full)):
            path.write_bytes(full[:n])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("meta, tail", [
        (b'{"config": {}, "kind": "vit"}', b"\x00"),  # bytes after the last parameter
        (b'{"kind"', b""),                             # not JSON
        (b"\xff", b""),                                # not UTF-8
        (b'{"kind": "vit"}', b""),                     # no config
        (b"[]", b""),                                  # not an object
    ])
    def test_malformed_body_is_format_error(self, meta, tail, tmp_path):
        def ovck(meta, tail):
            return b"OVCK" + struct.pack("<HI", 1, len(meta)) + meta + struct.pack("<I", 0) + tail

        path = tmp_path / "m.ckpt"
        path.write_bytes(ovck(b'{"config": {}, "kind": "vit"}', b""))
        assert load_checkpoint(path).kind == "vit"
        path.write_bytes(ovck(meta, tail))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_metadata_nested_past_parser_limit_is_format_error(self, tmp_path):
        meta = b"[" * 100_000
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"OVCK" + struct.pack("<HI", 1, len(meta)) + meta)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_format_error(self, value, tmp_path):
        params = {"a": np.zeros(3), "b": np.array([1.0, value], dtype=np.float32)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config={}, params=params), path)
        with pytest.raises(FormatError, match="'b'"):
            load_checkpoint(path)

    def test_mismatched_config_lists_names(self, tmp_path):
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=0)
        other = make_model("vit", ViTConfig(num_classes=3, num_layers=1).to_dict(), seed=0)
        with pytest.raises(ValidationError, match="blocks.1"):
            load_params_into(other, snapshot_params(model))


class TestDtype:
    @pytest.mark.parametrize("kind", train_module.MODEL_KINDS)
    def test_default_model_trains_in_float32(self, kind):
        config = {"dropout": 0.1} if kind == "vit" else {}
        model = make_model(kind, config, seed=0)
        assert model.config.to_dict()["dtype"] == "float32"
        # float64 images, as the decoders produce them
        images = np.random.default_rng(1).random((4, 3, 32, 32))
        with T.Tape() as tape:
            logits = model.forward_batch(images, np.random.default_rng(2))
            loss = T.cross_entropy(logits, np.array([0, 1, 2, 1]))
        if kind == "vit":  # the desk step's 33 entries and a mask per residual branch
            assert len(tape) == 33 + 2 * model.config.num_layers
        assert logits.data.dtype == np.float32
        assert all(e.output.data.dtype == np.float32 for e in tape._entries)
        assert backward_grad_dtypes(loss, tape) == {np.dtype(np.float32)}
        for name, p in model.params.items():
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32, name

    @pytest.mark.parametrize("saved, loaded", [("float64", "float32"),
                                               ("float32", "float64")])
    def test_checkpoint_loads_into_the_other_dtype(self, saved, loaded, tmp_path):
        model = make_model("resnet-mini", {"num_classes": 2, "dtype": saved}, seed=5)
        ckpt = Checkpoint(kind="resnet-mini", config=model.config.to_dict(),
                          params=snapshot_params(model))
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        params = load_checkpoint(tmp_path / "m.ckpt").params
        target = make_model("resnet-mini", {"num_classes": 2, "dtype": loaded}, seed=6)
        load_params_into(target, params)
        for name, p in target.params.items():
            assert params[name].dtype == saved
            assert p.data.dtype == loaded
            assert np.array_equal(p.data, params[name].astype(loaded)), name

    def test_checkpoint_without_dtype_builds_a_float32_model(self, tmp_path):
        config = ViTConfig(num_classes=3, dtype="float64").to_dict()
        model = make_model("vit", config, seed=0)
        del config["dtype"]
        ckpt = Checkpoint(kind="vit", config=config, params=snapshot_params(model))
        save_checkpoint(ckpt, tmp_path / "old.ckpt")
        loaded = load_checkpoint(tmp_path / "old.ckpt")
        target = make_model(loaded.kind, loaded.config)
        load_params_into(target, loaded.params)
        for name, p in target.params.items():
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, model.params[name].data.astype(np.float32)), name


class TestTransferWorkflow:
    def test_pretrain_checkpoint_matches_model(self, tiny_task, tmp_path):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        ckpt = pretrain("vit", ViTConfig(num_classes=3).to_dict(), tiny_task, cfg)
        assert ckpt.metadata["source_dataset"] == "tiny"
        path = tmp_path / "p.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name])

    def test_pretrain_needs_two_classes(self, tmp_path):
        path = D.generate_synthetic(tmp_path, "one", 1, 4, seed=5)
        manifest = D.load_manifest(path)
        with pytest.raises(ConfigurationError):
            pretrain("vit", ViTConfig(num_classes=1).to_dict(), manifest,
                     TrainConfig(epochs=1, batch_size=4))

    def test_head_replacement_width(self, tiny_task, tmp_path):
        surrogate = ViTConfig(num_classes=10).to_dict()
        ckpt = pretrain("vit", surrogate,
                        _relabel(tiny_task, 10), TrainConfig(epochs=1, batch_size=8))
        model, _ = fine_tune(ckpt, tiny_task, TrainConfig(epochs=1, batch_size=8))
        assert model.config.num_classes == 3
        assert model.params["head.w"].shape == (64, 3)
        logits = model.forward_batch(np.zeros((1, 3, 32, 32)))
        assert logits.shape == (1, 3)

    def test_checkpoint_missing_a_backbone_parameter(self, tiny_task):
        model = make_model("vit", {"num_classes": 3}, seed=0)
        params = snapshot_params(model)
        del params["blocks.0.norm1.gamma"]
        ckpt = Checkpoint(kind="vit", config=model.config.to_dict(), params=params)
        with pytest.raises(ValidationError, match=r"missing \['blocks.0.norm1.gamma'\]"):
            fine_tune(ckpt, tiny_task, TrainConfig(epochs=1, batch_size=8))

    def test_freeze_backbone_contract(self, tiny_task):
        ckpt = pretrain("vit", ViTConfig(num_classes=3).to_dict(), tiny_task,
                        TrainConfig(epochs=1, batch_size=8, seed=0))
        cfg = TrainConfig(epochs=2, batch_size=8, seed=1)
        model, _ = fine_tune(ckpt, tiny_task, cfg, freeze_backbone=True)
        for name in model.backbone_names():
            assert np.array_equal(model.params[name].data, ckpt.params[name]), name
        # the head must actually have moved
        assert not np.array_equal(model.params["head.w"].data,
                                  np.zeros_like(model.params["head.w"].data))

    @pytest.mark.parametrize("kind", ["vit", "resnet-mini"])
    def test_frozen_step_tapes_only_the_head(self, kind, tiny_task, monkeypatch):
        ckpt = pretrain(kind, {"num_classes": 3}, tiny_task,
                        TrainConfig(epochs=1, batch_size=8, seed=0))
        lengths = []
        real_backward = T.backward

        def recording_backward(loss, tape, grad):
            lengths.append(len(tape))
            real_backward(loss, tape, grad)

        monkeypatch.setattr(T, "backward", recording_backward)
        monkeypatch.setattr(workers, "MIN_STEPS", 99)   # the halves' tapes in this process
        model, _ = fine_tune(ckpt, tiny_task, TrainConfig(epochs=2, batch_size=8, seed=1),
                             freeze_backbone=True)
        # head linear, cross-entropy; no backbone op is recorded
        assert lengths and set(lengths) == {2}
        for name in model.backbone_names():
            assert not model.params[name].requires_grad, name
            assert model.params[name].grad is None, name
        for name in model.head_names():
            assert model.params[name].grad is not None, name


class TestMakeModel:
    @pytest.mark.parametrize("kind,config", [
        ("vit", [1]),
        ("vgg-mini", None),
        ("vit", {"bogus": 1}),
        ("resnet-mini", {"num_classes": 2, "depth": 3}),
        ("vit", {"embed_dim": "x"}),
        ("vit", {"num_heads": True}),
        ("vit", {"num_layers": -1}),
        ("vit", {"mlp_ratio": -1.0}),
        ("vit", {"mlp_ratio": float("nan")}),
        ("vit", {"mlp_ratio": float("inf")}),
        ("vit", {"dropout": 1.0}),
        ("vit", {"dropout": -0.1}),
        ("vit", {"dropout": "0.1"}),
        ("resnet-mini", {"stage_widths": 5}),
        ("resnet-mini", {"stage_widths": []}),
        ("resnet-mini", {"stage_widths": [4, 0]}),
        ("mobilenet-mini", {"stage_widths": [4, 8.0]}),
        ("vgg-mini", {"channels": 0}),
        ("vgg-mini", {"blocks_per_stage": -1}),
        ("vgg-mini", {"num_classes": 0}),
        ("vgg-mini", {"image_size": 32.0}),
        ("vit", {"dtype": "float16"}),
        ("vit", {"dtype": 1}),
        ("vgg-mini", {"dtype": "float16"}),
        ("resnet-mini", {"dtype": None}),
    ])
    def test_bad_config_is_configuration_error(self, kind, config):
        with pytest.raises(ConfigurationError):
            make_model(kind, config)

    # numpy refuses both at once: the first passes its dimension limit,
    # the second asks for 1.5 PiB, beyond the address space
    @pytest.mark.parametrize("config", [
        {"mlp_ratio": 1e300},
        {"embed_dim": 2**40, "num_heads": 1},
    ])
    def test_unallocatable_config_is_configuration_error(self, config):
        with pytest.raises(ConfigurationError, match="vit model for config"):
            make_model("vit", config)

    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            make_model("vit", {"num_classes": 2, "bogus": 1})

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("shape", [(2, 3, 16, 16), (2, 1, 32, 32), (3, 32, 32)],
                             ids=["size", "channels", "rank"])
    def test_forward_batch_refuses_a_batch_of_another_shape(self, kind, shape):
        model = make_model(kind, {"num_classes": 2})
        with pytest.raises(ConfigurationError, match=r"does not match config \(B, 3, 32, 32\)"):
            model.forward_batch(np.zeros(shape))

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_is_named(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            make_model("vit", {"num_classes": 2}, seed=seed)


def _relabel(manifest, num_classes):
    """Same images, label space widened (labels unchanged, still valid)."""
    return D.DatasetManifest(
        name=manifest.name, class_names=[f"c{i}" for i in range(num_classes)],
        entries=list(manifest.entries), root=manifest.root,
    )


class TestComparisonCsv:
    def records(self):
        return [
            MetricsRecord("vit", "colon", 9, "val", 0.9741, 0.2212),
            MetricsRecord("vit", "colon", 9, "train", 0.99, 0.11),
            MetricsRecord("vgg-mini", "colon", 9, "val", 0.91, 0.31),
        ]

    def test_percentage_rendering(self, tmp_path):
        path = tmp_path / "cmp.csv"
        emit_comparison(self.records(), path)
        text = path.read_text()
        assert "vit,colon,9,val,97.41,0.22" in text

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_comparison([], path)
        assert path.read_text() == "model,dataset,epoch,split,accuracy,loss\n"

    def test_footer_best_val(self, tmp_path):
        path = tmp_path / "cmp.csv"
        emit_comparison(self.records(), path)
        assert "# best val: dataset=colon model=vit" in path.read_text()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cmp.csv"
        emit_comparison(self.records(), path)
        parsed = parse_comparison(path)
        assert len(parsed) == 3
        vals = {(r.model, r.split): r for r in parsed}
        assert vals[("vit", "val")].accuracy == pytest.approx(0.9741)
        assert vals[("vit", "val")].loss == pytest.approx(0.22)
        # re-emitting the parsed records reproduces the same file
        path2 = tmp_path / "cmp2.csv"
        emit_comparison(parsed, path2)
        assert path.read_text() == path2.read_text()


two_cpus = pytest.mark.skipif(workers._cpus() < 2, reason="the worker path needs a second CPU")

# run in a fresh interpreter by the subprocess tests below
_SUBPROCESS_PASS = """
import sys
from vitbench import data as D, train, workers
workers.MIN_BATCHES = 2
num_classes, root = int(sys.argv[1]), sys.argv[2]
manifest = D.load_manifest(D.generate_synthetic(root, "p", 3, 50, seed=3))
manifest = D.DatasetManifest(name="p", class_names=[str(c) for c in range(num_classes)],
                             entries=manifest.entries, root=manifest.root)
record, cm = train.evaluate(train.make_model("vit", {"num_classes": num_classes}), manifest)
assert cm.total == 150
print(*[w.pid for w in workers._workers])
"""


def _subprocess_env() -> dict:
    src = str(Path(train_module.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.fixture(scope="module")
def three_batches(tmp_path_factory):
    """150 images of 3 classes: batches of 64, 64 and 22."""
    root = tmp_path_factory.mktemp("three")
    return D.load_manifest(D.generate_synthetic(root, "three", 3, 50, seed=5))


def _reference_evaluate(model, manifest):
    """The in-process loop ``evaluate`` ran before its forwards moved."""
    cm = ConfusionMatrix(manifest.num_classes)
    total_loss, n = 0.0, 0
    for batch in D.make_batches(manifest, batch_size=64, shuffle=False,
                                dtype=model.config.dtype):
        logits = model.forward_batch(batch.images)
        loss = T.cross_entropy(logits, batch.labels)
        total_loss += loss.item() * len(batch.labels)
        cm.add(batch.labels, np.argmax(logits.data, axis=1))
        n += len(batch.labels)
    return MetricsRecord(model.kind, manifest.name, 0, "val", cm.accuracy, total_loss / n), cm


def _assert_same_pass(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1].counts, want[1].counts)


@two_cpus
def test_only_passes_of_min_batches_run_in_workers(tmp_path):
    workers.close()
    data = D.load_manifest(D.generate_synthetic(tmp_path, "long", 3, 342, seed=6))
    model = make_model("vit", {"num_classes": 3}, seed=4)
    for n_batches, started in ((workers.MIN_BATCHES - 1, 0),
                               (workers.MIN_BATCHES, workers.WORKERS)):
        manifest = dataclasses.replace(data, entries=data.entries[:64 * n_batches])
        got = evaluate(model, manifest)
        assert len(workers._workers) == started
        _assert_same_pass(got, _reference_evaluate(model, manifest))


@pytest.fixture
def short_passes_in_workers(monkeypatch):
    """Three-batch passes take the worker path."""
    monkeypatch.setattr(workers, "MIN_BATCHES", 2)


@two_cpus
@pytest.mark.usefixtures("short_passes_in_workers")
class TestWorkers:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_same_bits_as_the_in_process_loop(self, kind, dtype, three_batches):
        model = make_model(kind, {"num_classes": 3, "dtype": dtype}, seed=4)
        got = evaluate(model, three_batches)
        assert len(workers._workers) == workers.WORKERS
        _assert_same_pass(got, _reference_evaluate(model, three_batches))

    def test_format_error_mid_pass_then_a_good_pass(self, tmp_path, three_batches):
        data = D.generate_synthetic(tmp_path / "d", "d", 3, 50, seed=5)
        rel = D.load_manifest(data).entries[69][0]
        D.generate_synthetic(tmp_path / "small", "small", 1, 1, image_size=20)
        (tmp_path / "d" / rel).write_bytes((tmp_path / "small" / "class0_0000.ppm").read_bytes())
        model = make_model("resnet-mini", {"num_classes": 3}, seed=4)
        with pytest.raises(FormatError, match="has shape"):
            evaluate(model, D.load_manifest(data))
        _assert_same_pass(evaluate(model, three_batches),
                          _reference_evaluate(model, three_batches))

    def test_non_finite_parameter_is_contract_error(self, three_batches):
        model = make_model("vit", {"num_classes": 3}, seed=4)
        model.params["head.w"].data[0, 0] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            evaluate(model, three_batches)
        model.params["head.w"].data[0, 0] = 0.0
        _assert_same_pass(evaluate(model, three_batches),
                          _reference_evaluate(model, three_batches))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_parent_holds_at_most_one_earlier_batch(self, dtype, three_batches, monkeypatch):
        """The twin of ``TestEvaluate::test_holds_at_most_one_earlier_batch``
        for the worker path: when ``make_batches`` yields a batch, at most
        one batch it yielded earlier is still alive in the parent."""
        make_batches, seen, earlier_alive = D.make_batches, [], []

        def recording(*args, **kwargs):
            for batch in make_batches(*args, **kwargs):
                assert batch.images.dtype == np.dtype(dtype)
                earlier_alive.append(sum(ref() is not None for ref in seen))
                seen.append(weakref.ref(batch.images))
                yield batch

        monkeypatch.setattr(D, "make_batches", recording)
        model = make_model("vgg-mini", {"num_classes": 3, "dtype": dtype}, seed=4)
        evaluate(model, three_batches)
        assert len(seen) == 3 and len(workers._workers) == workers.WORKERS
        assert max(earlier_alive) <= 1, earlier_alive

    @pytest.mark.parametrize("action", ["always", "error"])
    def test_warnings_reach_the_callers_filters(self, action, three_batches, monkeypatch):
        """A forward's numpy warnings go through the caller's filters, as
        they do in process: recorded alike, or raised under "error"."""
        model = make_model("vit", {"num_classes": 3}, seed=4)
        model.params["head.w"].data[...] = 3e38   # overflows the head's matmul

        def run(min_batches):
            monkeypatch.setattr(workers, "MIN_BATCHES", min_batches)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(RuntimeWarning if action == "error" else ContractError):
                    evaluate(model, three_batches)
            return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

        in_workers = run(2)
        assert in_workers == run(99)
        assert len(in_workers) == (0 if action == "error" else 2)
        model.params["head.w"].data[...] = 0.0   # the pool serves the next pass
        _assert_same_pass(evaluate(model, three_batches),
                          _reference_evaluate(model, three_batches))

    def test_a_package_in_the_callers_cwd_is_not_imported(self, tmp_path, three_batches,
                                                          monkeypatch):
        """``python -c`` puts the worker's cwd first on its sys.path: a
        ``vitbench`` there must not be the one a worker imports."""
        workers.close()
        (tmp_path / "vitbench").mkdir()
        (tmp_path / "vitbench" / "__init__.py").write_text("raise SystemExit(7)\n")
        monkeypatch.chdir(tmp_path)
        model = make_model("resnet-mini", {"num_classes": 3}, seed=4)
        _assert_same_pass(evaluate(model, three_batches),
                          _reference_evaluate(model, three_batches))
        assert len(workers._workers) == workers.WORKERS

    def test_a_worker_dead_before_its_request_is_named(self, three_batches, monkeypatch):
        """A worker that dies before reading its next batch is a
        ChildProcessError naming its PID and exit code, as a death before a
        reply is; the next pass runs on fresh workers, same bits."""
        make_batches, killed = D.make_batches, []

        def killing(*args, **kwargs):
            for i, batch in enumerate(make_batches(*args, **kwargs)):
                if i == 2:   # batch 2 goes to worker 0, which is gone
                    worker = workers._workers[0]
                    worker.kill()
                    worker.wait()
                    killed.append(worker.pid)
                yield batch

        model = make_model("vit", {"num_classes": 3}, seed=4)
        monkeypatch.setattr(D, "make_batches", killing)
        with pytest.raises(ChildProcessError) as excinfo:
            evaluate(model, three_batches)
        assert str(excinfo.value) == f"worker {killed[0]} exited with code -9"
        monkeypatch.setattr(D, "make_batches", make_batches)
        _assert_same_pass(evaluate(model, three_batches),
                          _reference_evaluate(model, three_batches))
        assert len(workers._workers) == workers.WORKERS
        assert killed[0] not in [w.pid for w in workers._workers]

    def test_replies_larger_than_a_pipe_holds(self, tmp_path):
        """A 2,000-class ViT's logits are 512 KB a batch: a worker writing
        one while the parent writes the next batch must not stall both."""
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_PASS, "2000", str(tmp_path)],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_worker_outlives_its_parent(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_PASS, "3", str(tmp_path)],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == workers.WORKERS
        for pid in pids:   # a zombie would still answer signal 0
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _train_digest(model, history) -> tuple:
    """A run's history and, per parameter, its values and last gradient."""
    return history, [(name, p.data.tobytes(), None if p.grad is None else p.grad.tobytes())
                     for name, p in model.params.items()]


@pytest.fixture
def every_model_trains_in_workers(monkeypatch):
    """Runs of one step or more on any model take the worker path."""
    monkeypatch.setattr(workers, "MIN_STEPS", 1)
    monkeypatch.setattr(workers, "TRAINED", workers.POOLED)


def _in_process(monkeypatch, flag: bool = True) -> None:
    monkeypatch.setattr(workers, "MIN_STEPS", 10**9 if flag else 1)


@two_cpus
@pytest.mark.usefixtures("every_model_trains_in_workers")
class TestTrainingWorkers:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_same_bits_as_the_in_process_halves(self, kind, dtype, tiny_task, monkeypatch):
        """Loss, gradients and parameters after Adam, with an odd batch (6
        and 5 images) and a one-image batch (one half) in every epoch."""
        config = {"num_classes": 3, "dtype": dtype, **({"dropout": 0.3} if kind == "vit" else {})}
        cfg = TrainConfig(epochs=2, batch_size=11, seed=3)
        runs = []
        for in_process in (False, True):
            _in_process(monkeypatch, in_process)
            workers.close()
            model = make_model(kind, config, seed=4)
            runs.append(_train_digest(model, train(model, tiny_task, tiny_task, cfg)))
            assert len(workers._workers) == (0 if in_process else workers.WORKERS)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", ["vit", "resnet-mini"])
    def test_frozen_backbone_fine_tune_same_bits(self, kind, tiny_task, monkeypatch):
        ckpt = pretrain(kind, {"num_classes": 3}, tiny_task,
                        TrainConfig(epochs=1, batch_size=8, seed=0))
        runs = []
        for in_process in (False, True):
            _in_process(monkeypatch, in_process)
            model, history = fine_tune(ckpt, tiny_task, TrainConfig(epochs=2, batch_size=5, seed=1),
                                       freeze_backbone=True)
            runs.append(_train_digest(model, history))
        assert runs[0] == runs[1]
        assert all(grad is None for name, _, grad in runs[0][1] if not name.startswith("head."))

    def test_only_runs_of_min_steps_on_trained_models_use_workers(self, tiny_task, monkeypatch):
        monkeypatch.setattr(workers, "MIN_STEPS", 4)
        monkeypatch.setattr(workers, "TRAINED", (workers.CnnModel,))
        for kind, epochs, started in (("vgg-mini", 1, 0), ("vgg-mini", 2, workers.WORKERS),
                                      ("vit", 9, 0)):
            workers.close()
            # two steps of 8 and 4 images per epoch
            train(make_model(kind, {"num_classes": 3}), tiny_task, None,
                  TrainConfig(epochs=epochs, batch_size=8))
            assert len(workers._workers) == started, (kind, epochs)

    def test_a_worker_killed_between_steps_is_named(self, tiny_task, monkeypatch):
        """SIGKILL to a worker between two steps: ``train`` raises a
        ChildProcessError naming its PID and -9, and the next call runs on
        fresh workers with the in-process bits."""
        make_batches, killed = D.make_batches, []

        def killing(*args, **kwargs):
            for i, batch in enumerate(make_batches(*args, **kwargs)):
                if i == 1 and not killed:
                    worker = workers._workers[0]
                    worker.send_signal(signal.SIGKILL)
                    worker.wait()
                    killed.append(worker.pid)
                yield batch

        cfg = TrainConfig(epochs=2, batch_size=5, seed=2)
        monkeypatch.setattr(D, "make_batches", killing)
        with pytest.raises(ChildProcessError) as excinfo:
            train(make_model("mobilenet-mini", {"num_classes": 3}), tiny_task, None, cfg)
        assert str(excinfo.value) == f"worker {killed[0]} exited with code -9"
        assert workers._workers == []
        monkeypatch.setattr(D, "make_batches", make_batches)
        runs = []
        for in_process in (False, True):
            _in_process(monkeypatch, in_process)
            model = make_model("mobilenet-mini", {"num_classes": 3})
            runs.append(_train_digest(model, train(model, tiny_task, None, cfg)))
            if not in_process:
                assert len(workers._workers) == workers.WORKERS
                assert killed[0] not in [w.pid for w in workers._workers]
        assert runs[0] == runs[1]

    def test_strict_error_in_a_half_then_a_good_run(self, tiny_task):
        """Strict mode reaches the workers: a non-finite head stops the run
        with the in-process ContractError, the pool is ended, and the next
        run starts afresh."""
        model = make_model("vgg-mini", {"num_classes": 3}, seed=1)
        model.params["head.w"].data[0, 0] = np.inf
        with pytest.raises(ContractError, match="non-finite"):
            train(model, tiny_task, None, TrainConfig(epochs=1, batch_size=8))
        assert workers._workers == []
        train(make_model("vgg-mini", {"num_classes": 3}), tiny_task, None,
              TrainConfig(epochs=1, batch_size=8))
        assert len(workers._workers) == workers.WORKERS

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_non_finite_loss_names_epoch_and_batch(self, tiny_task, monkeypatch):
        monkeypatch.setattr(T, "_STRICT", False)
        model = make_model("resnet-mini", {"num_classes": 3}, seed=0)
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0, batch 1"):
            train(model, tiny_task, None, TrainConfig(epochs=1, batch_size=8, lr=1e300))


@pytest.mark.parametrize("text, cpus", [
    ("max 100000\n", np.inf), ("100000 100000\n", 1.0), ("150000 100000\n", 1.5),
    ("200000 100000\n", 2.0), ("150000\n", np.inf), ("a b\n", np.inf), ("0 100000\n", np.inf),
    ("100000 0\n", np.inf), ("", np.inf), (None, np.inf),
])
def test_cgroup_cpu_quota_parser(text, cpus):
    assert workers._quota(text) == cpus


@pytest.mark.parametrize("text, pooled", [
    (None, True), ("max 100000", True), ("150000 100000", False), ("200000 100000", True),
])
def test_a_cpu_quota_below_two_cpus_runs_in_process(text, pooled, tmp_path, tiny_task,
                                                     monkeypatch):
    """``_cpus`` caps the affinity mask by ``cpu.max``; a missing file
    (``None``) sets no cap."""
    cpu_max = tmp_path / "cpu.max"
    if text is not None:
        cpu_max.write_text(text + "\n")
    monkeypatch.setattr(workers, "CPU_MAX", cpu_max)
    monkeypatch.setattr(workers, "MIN_STEPS", 1)
    workers.close()
    assert workers._cpus() == min(len(os.sched_getaffinity(0)), workers._quota(text))
    train(make_model("vgg-mini", {"num_classes": 3}), tiny_task, None,
          TrainConfig(epochs=1, batch_size=8))
    assert len(workers._workers) == (workers.WORKERS if pooled and workers._cpus() >= 2 else 0)


def _vm_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


@two_cpus
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc")
def test_memory_stays_flat_over_many_pooled_runs(tmp_path, monkeypatch):
    """Pooled ``train`` calls and ``evaluate`` passes on 16 px images: after
    a warm-up, the parent's traced allocations and each worker's resident
    set stop growing."""
    monkeypatch.setattr(workers, "MIN_STEPS", 1)
    monkeypatch.setattr(workers, "MIN_BATCHES", 2)
    monkeypatch.setattr(workers, "TRAINED", workers.POOLED)
    data = D.load_manifest(D.generate_synthetic(tmp_path, "m", 3, 50, image_size=16, seed=8))
    cfg = TrainConfig(epochs=1, batch_size=64)

    def round_():
        for kind in MODEL_KINDS:
            model = make_model(kind, {"num_classes": 3, "image_size": 16}, seed=1)
            train(model, data, None, cfg)
            evaluate(model, data)

    workers.close()
    tracemalloc.start()
    try:
        for _ in range(2):
            round_()
        pids = [w.pid for w in workers._workers]
        parent, rss = tracemalloc.get_traced_memory()[0], [_vm_rss_kb(p) for p in pids]
        for _ in range(4):
            round_()
        assert [w.pid for w in workers._workers] == pids
        grown = tracemalloc.get_traced_memory()[0] - parent
        rss_grown = [_vm_rss_kb(p) - r for p, r in zip(pids, rss)]
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown
    assert max(rss_grown) < 2048, rss_grown


def test_forward_bits_do_not_depend_on_the_blas_thread_count():
    """What the worker path relies on: a B=64 forward and a B=32 half step
    (its loss, correct count and every gradient, the ViT's with dropout)
    at one BLAS thread give the bytes they give at the default count, for
    every kind and dtype."""
    script = """
import hashlib
import numpy as np
from vitbench.train import MODEL_KINDS, make_model
from vitbench.workers import half_step
x = np.random.default_rng(0).random((64, 3, 32, 32))
labels = np.arange(32) % 3
for kind in MODEL_KINDS:
    for dtype in ("float32", "float64"):
        model = make_model(kind, {"num_classes": 3, "dtype": dtype,
                                  **({"dropout": 0.1} if kind == "vit" else {})}, seed=1)
        digest = hashlib.sha256(model.forward_batch(x).data.tobytes())
        half = half_step(model, x[:32].astype(dtype), labels, 64, [1, 0, 1, 0, 0])
        digest.update(repr(half).encode())
        for p in model.params.values():
            digest.update(p.grad.tobytes())
        print(kind, dtype, digest.hexdigest())
"""
    default = {k: v for k, v in _subprocess_env().items() if k not in workers._ONE_THREAD}
    outputs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=env, timeout=120, check=True).stdout
        for env in (default, {**default, **workers._ONE_THREAD})]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2 * len(MODEL_KINDS)
