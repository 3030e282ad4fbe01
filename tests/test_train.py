import struct
import weakref

import numpy as np
import pytest

from vitbench import checkpoint
from vitbench import data as D
from vitbench import tensor as T
from vitbench import train as train_module
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
            config = ViTConfig(dtype=dtype)

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

        def recording(images):
            events.append(images.dtype)
            return forward(images)

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
        model.train_mode = True
        # float64 images, as the decoders produce them
        images = np.random.default_rng(1).random((4, 3, 32, 32))
        with T.Tape() as tape:
            logits = model.forward_batch(images)
            loss = T.cross_entropy(logits, np.array([0, 1, 2, 1]))
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
        real_backward = train_module.backward

        def recording_backward(loss, tape):
            lengths.append(len(tape))
            real_backward(loss, tape)

        monkeypatch.setattr(train_module, "backward", recording_backward)
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
