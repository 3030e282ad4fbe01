"""Adam optimization, the training loop, the pretrain/fine-tune transfer
workflow, evaluation, and the comparison-report CSV."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as D
from . import workers
from .checkpoint import Checkpoint, checkpoint_of, load_params_into
from .cnn import CNN_KINDS, CnnConfig, CnnModel
from .errors import (
    ConfigurationError,
    ContractError,
    EmptyDatasetError,
    TrainingError,
    ValidationError,
    check_int,
    is_real,
)
# bench/tracer.py swaps ``backward`` and ``cross_entropy`` by name here too
from .tensor import backward, check_class_range, cross_entropy  # noqa: F401
from .vit import ViTClassifier, ViTConfig

MODEL_KINDS = ("vit",) + CNN_KINDS


def make_model(kind: str, config: dict, seed: int = 0):
    """The one model factory: ``config`` is a plain dict, and fields it
    omits take their defaults, so ``{"num_classes": n}`` suits every kind.
    A non-dict config, a key that names no field, or extents too large to
    allocate is a ConfigurationError, and so is a seed that is not an int >= 0."""
    check_int("model seed", seed, minimum=0)
    if kind == "vit":
        cls, cfg = ViTClassifier, _build_config(ViTConfig, config)
    elif kind in CNN_KINDS:
        cls, cfg = CnnModel, _build_config(CnnConfig, config, kind=kind)
    else:
        raise ConfigurationError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    try:
        return cls(cfg, seed=seed)
    # numpy refuses an oversized array with MemoryError, or with ValueError
    # when an extent passes its dimension limit
    except (MemoryError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot allocate a {kind} model for config {config}: {exc}") from exc


def _build_config(cls, config, **fixed):
    if not isinstance(config, dict):
        raise ConfigurationError(f"model config must be a dict, got {type(config).__name__}")
    names = {f.name for f in fields(cls)}
    unknown = [k for k in config if k not in names]
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} keys {unknown}")
    return cls(**{**config, **fixed})


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 75
    lr: float = 0.001
    seed: int = 0
    augment: D.AugmentConfig = field(default_factory=D.AugmentConfig)

    def __post_init__(self):
        check_int("TrainConfig epochs", self.epochs)
        check_int("TrainConfig batch_size", self.batch_size)
        check_int("TrainConfig seed", self.seed, minimum=0)
        if not (is_real(self.lr) and 0.0 < self.lr < math.inf):
            raise ConfigurationError(f"TrainConfig lr must be finite and > 0, got {self.lr!r}")
        if not isinstance(self.augment, D.AugmentConfig):
            raise ConfigurationError(
                f"TrainConfig augment must be an AugmentConfig, got {self.augment!r}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter dict.  The decays and
    ``eps`` are the module's ``ADAM_*`` constants; only ``lr`` is set."""

    def __init__(self, params: dict, lr: float = 0.001):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            m_hat = m / b1t
            v_hat = v / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class MetricsRecord:
    model: str
    dataset: str
    epoch: int
    split: str        # train | val | test
    accuracy: float
    loss: float


class ConfusionMatrix:
    """C x C counts, rows = true class, cols = predicted class."""

    def __init__(self, num_classes: int):
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def add(self, true_labels, predicted) -> None:
        """Count one (label, prediction) pair, or equal-length arrays of them."""
        check_class_range(true_labels, len(self.counts), "label")
        check_class_range(predicted, len(self.counts), "prediction")
        np.add.at(self.counts, (true_labels, predicted), 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    # binary views, class 1 is positive
    @property
    def tp(self) -> int:
        return int(self.counts[1, 1])

    @property
    def tn(self) -> int:
        return int(self.counts[0, 0])

    @property
    def fp(self) -> int:
        return int(self.counts[0, 1])

    @property
    def fn(self) -> int:
        return int(self.counts[1, 0])


def _dataset_name(manifest: D.DatasetManifest) -> str:
    for suffix in ("-train", "-val", "-test"):
        if manifest.name.endswith(suffix):
            return manifest.name[: -len(suffix)]
    return manifest.name


def _check_class_count(model, manifest: D.DatasetManifest) -> None:
    """A manifest must name as many classes as the model predicts."""
    if manifest.num_classes != model.config.num_classes:
        raise ValidationError(
            f"manifest {manifest.name!r} has {manifest.num_classes} classes, "
            f"but the {model.kind} model predicts {model.config.num_classes}")


def evaluate(model, manifest: D.DatasetManifest,
             cache: D.ImageCache | None = None,
             epoch: int = 0, split: str = "val"):
    """Deterministic inference pass -> (MetricsRecord, ConfusionMatrix).
    Batches of 64 stream in the model's dtype: one is decoded at a time.
    A long pass runs its forwards in :mod:`vitbench.workers`, same bits.
    A manifest whose class count is not the model's is a
    :class:`ValidationError`, raised before any image is decoded."""
    if not manifest.entries:
        raise EmptyDatasetError(f"cannot evaluate on empty manifest {manifest.name!r}")
    _check_class_count(model, manifest)
    cm = ConfusionMatrix(manifest.num_classes)
    total_loss = 0.0
    batches = D.make_batches(manifest, batch_size=64, shuffle=False, cache=cache,
                             dtype=model.config.dtype)
    n = 0
    results = workers.forwards(model, batches, -(-len(manifest) // 64))
    with contextlib.closing(results):   # on an error too: no reply owed outlives the pass
        for logits, labels in results:
            loss = cross_entropy(logits, labels)
            total_loss += loss.item() * len(labels)
            cm.add(labels, np.argmax(logits.data, axis=1))
            n += len(labels)
    record = MetricsRecord(
        model=model.kind, dataset=_dataset_name(manifest),
        epoch=epoch, split=split,
        accuracy=cm.accuracy, loss=total_loss / n,
    )
    return record, cm


def train(model, train_manifest: D.DatasetManifest,
          val_manifest: D.DatasetManifest | None, cfg: TrainConfig,
          stop_at_train_acc: float | None = None) -> list[MetricsRecord]:
    """Epoch loop: shuffled batches, each step's parts (a CNN's two
    halves, a ViT's whole batch: forward, cross-entropy, backward; see
    :func:`workers.training`) summed part 0 first, an Adam step, then one
    validation pass per epoch.  Part ``h`` of step ``b`` draws dropout
    from a generator seeded by ``[cfg.seed, epoch, 1, b, h]``, apart from
    the ``[seed, epoch]`` shuffle; validation draws none.  Every training
    and validation image is decoded into a fresh :class:`ImageCache`
    before the first step, and batches stream from it in the model's
    dtype.  Adam updates exactly the parameters with ``requires_grad``;
    the rest stay as they are.  A non-finite loss, or a trainable
    parameter that is not finite at the end of an epoch, is a
    :class:`TrainingError`; a training or validation manifest whose class
    count is not the model's is a :class:`ValidationError`, raised before
    any image is decoded."""
    if not train_manifest.entries:
        raise EmptyDatasetError("training manifest is empty")
    manifests = list(filter(None, (train_manifest, val_manifest)))
    for manifest in manifests:
        _check_class_count(model, manifest)
    cache = D.ImageCache()
    # decode every training and validation image once, before the first
    # step, so a bad file fails before any training; the cache holds them
    # all after one epoch anyway
    for manifest in manifests:
        for rel, _ in manifest.entries:
            cache.get(manifest.resolve(rel), model.config.dtype)
    opt = Adam({k: p for k, p in model.params.items() if p.requires_grad}, lr=cfg.lr)
    n_steps = cfg.epochs * -(-len(train_manifest) // cfg.batch_size)
    history: list[MetricsRecord] = []
    with workers.training(model, n_steps) as step:
        for epoch in range(cfg.epochs):
            batches = D.make_batches(
                train_manifest, cfg.batch_size, seed=cfg.seed, shuffle=True,
                epoch=epoch, cache=cache, augment_cfg=cfg.augment,
                dtype=model.config.dtype,
            )
            epoch_loss = 0.0
            correct = 0
            seen = 0
            for b_idx, batch in enumerate(batches):
                opt.zero_grad()
                parts = step(batch.images, batch.labels, [cfg.seed, epoch, 1, b_idx])
                loss_sum = sum(loss for loss, _ in parts)
                if not math.isfinite(loss_sum):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {b_idx}"
                    )
                opt.step()
                epoch_loss += loss_sum
                correct += sum(c for _, c in parts)
                seen += len(batch.labels)
            # once per epoch: each step's loss check covers the steps between
            for name, p in opt.params.items():
                if not np.isfinite(p.data).all():
                    raise TrainingError(
                        f"non-finite parameter {name!r} at epoch {epoch}, "
                        f"after batch {b_idx}")
            train_acc = correct / seen
            history.append(MetricsRecord(
                model=model.kind, dataset=_dataset_name(train_manifest),
                epoch=epoch, split="train",
                accuracy=train_acc, loss=epoch_loss / seen,
            ))
            if val_manifest is not None and val_manifest.entries:
                rec, _ = evaluate(model, val_manifest, cache=cache,
                                  epoch=epoch, split="val")
                history.append(rec)
            if stop_at_train_acc is not None and train_acc >= stop_at_train_acc:
                break
    return history


def pretrain(kind: str, model_config: dict,
             surrogate_manifest: D.DatasetManifest, cfg: TrainConfig) -> Checkpoint:
    """Train from random init on the surrogate task and package a checkpoint."""
    if surrogate_manifest.num_classes < 2:
        raise ConfigurationError("surrogate dataset needs at least 2 classes")
    model = make_model(kind, model_config, seed=cfg.seed)
    history = train(model, surrogate_manifest, None, cfg)
    return checkpoint_of(model, {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "source_dataset": surrogate_manifest.name,
        "adam": {"lr": cfg.lr, "beta1": ADAM_BETA1,
                 "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "final_train_loss": history[-1].loss if history else None,
    })


def fine_tune(ckpt: Checkpoint, target_manifest: D.DatasetManifest,
              cfg: TrainConfig, val_manifest: D.DatasetManifest | None = None,
              freeze_backbone: bool = False):
    """Backbone from checkpoint, fresh head sized for the target classes.
    A checkpoint whose non-head names differ from the model's backbone is
    a :class:`ValidationError` listing what is missing and what is extra.

    With ``freeze_backbone`` the backbone parameters get
    ``requires_grad=False``: the tape records only the head and only the
    head trains.  The returned model keeps that backbone frozen.
    """
    config = dict(ckpt.config)
    config["num_classes"] = target_manifest.num_classes
    model = make_model(ckpt.kind, config, seed=cfg.seed)
    fresh_head = {name: model.params[name].data for name in model.head_names()}
    load_params_into(model, {**ckpt.params, **fresh_head})
    if freeze_backbone:
        for name in model.backbone_names():
            model.params[name].requires_grad = False
    history = train(model, target_manifest, val_manifest, cfg)
    return model, history


# ---------------------------------------------------------------------------
# comparison report


CSV_HEADER = "model,dataset,epoch,split,accuracy,loss"


def _csv_order(records: list[MetricsRecord]) -> list[MetricsRecord]:
    return sorted(records, key=lambda r: (r.dataset, r.model, r.epoch, r.split))


def best_val(records: list[MetricsRecord]) -> dict[str, MetricsRecord]:
    """Best validation record per dataset.  Ties go to the first record in
    CSV row order, so the CSV footer and the summary name the same model."""
    best: dict[str, MetricsRecord] = {}
    for r in _csv_order(records):
        if r.split == "val" and (r.dataset not in best
                                 or r.accuracy > best[r.dataset].accuracy):
            best[r.dataset] = r
    return best


def emit_comparison(records: list[MetricsRecord], out_path) -> None:
    """Write the comparison CSV: accuracy as a percentage with 2 decimals,
    loss with 2 decimals, rows sorted, best-val footer per dataset."""
    lines = [CSV_HEADER]
    for r in _csv_order(records):
        lines.append(
            f"{r.model},{r.dataset},{r.epoch},{r.split},"
            f"{r.accuracy * 100.0:.2f},{r.loss:.2f}"
        )
    best = best_val(records)
    for ds in sorted(best):
        r = best[ds]
        lines.append(
            f"# best val: dataset={ds} model={r.model} "
            f"epoch={r.epoch} accuracy={r.accuracy * 100.0:.2f}"
        )
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_comparison(path) -> list[MetricsRecord]:
    """Read back a comparison CSV (footer comments ignored)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigurationError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            model, dataset, epoch, split, acc, loss = line.split(",")
            records.append(MetricsRecord(
                model=model, dataset=dataset, epoch=int(epoch), split=split,
                accuracy=float(acc) / 100.0, loss=float(loss),
            ))
    return records
