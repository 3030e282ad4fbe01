"""The benchmark's three workloads, each one closed-loop job at a time.

A job is one complete pass through a workload: set-up (data generation,
manifest load and split, model build), the timed calls into vitbench's
public API, and the output checks.  The caller repeats jobs with the same
seed, so every job of a run sees identical inputs and must produce
identical histories.

Set-up writes its data into ``job_dir`` and returns what the timed part
needs; the program sees only the PPM files and manifests there.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from vitbench import checkpoint as C
from vitbench import data as D
from vitbench import train as TR
from vitbench.cnn import CNN_KINDS, CnnConfig
from vitbench.vit import ViTConfig

BATCH = 64
LR = 0.001
AUGMENT = D.AugmentConfig(crop_pad=2, flip_p=0.5)


@dataclass(frozen=True)
class Size:
    """Dataset sizes and epoch counts of one job."""

    surrogate_per_class: int   # vit-transfer: 10-class surrogate
    pretrain_epochs: int
    target_per_class: int      # vit-transfer: 3-class target, split 40:10:50
    finetune_epochs: int
    grid_per_class: int        # cnn-compare: 3-class set, split 60:10:30
    grid_epochs: int
    heldout_per_class: int     # eval-cold: 3-class held-out set


SIZES = {
    # fine-tune and CNN training sets hold 192 images: three full B=64 steps
    "full": Size(32, 2, 160, 3, 105, 2, 400),
    "tiny": Size(4, 1, 10, 1, 10, 1, 10),
}

TARGET_SPLIT = D.SplitSpec(ratios=(0.4, 0.1, 0.5))
GRID_SPLIT = D.SplitSpec(ratios=(0.6, 0.1, 0.3))


@dataclass
class JobResult:
    setup_s: list = field(default_factory=list)
    wall_s: float = 0.0
    train_images: int = 0
    train_s: float = 0.0
    eval_images: int = 0
    eval_s: float = 0.0
    test_acc: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode("utf-8"))
    return h.hexdigest()


def _history_rows(history) -> list:
    return [(r.model, r.dataset, r.epoch, r.split, r.accuracy, r.loss) for r in history]


def _model_config(kind: str, num_classes: int) -> dict:
    if kind == "vit":
        return ViTConfig(num_classes=num_classes).to_dict()
    cfg = CnnConfig(kind=kind, num_classes=num_classes).to_dict()
    cfg.pop("kind")
    return cfg


def _params_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


def _check_eval(res: JobResult, rec, cm, n_images: int, label: str) -> None:
    res.check(cm.total == n_images,
              f"{label}: confusion total {cm.total} != {n_images} images")
    res.check(math.isfinite(rec.loss), f"{label}: non-finite loss")


def _check_history(res: JobResult, history, epochs: int, label: str) -> None:
    res.check(all(math.isfinite(r.loss) for r in history),
              f"{label}: non-finite loss in history")
    val_epochs = [r.epoch for r in history if r.split == "val"]
    res.check(val_epochs == list(range(epochs)),
              f"{label}: val rows for epochs {val_epochs}, expected {epochs}")


def vit_transfer_setup(job_dir: Path, seed: int, size: Size) -> dict:
    sur = D.load_manifest(D.generate_synthetic(
        job_dir / "surrogate", "surrogate", 10, size.surrogate_per_class,
        seed=seed * 1000 + 1, noise=0.2))
    target = D.load_manifest(D.generate_synthetic(
        job_dir / "target", "target", 3, size.target_per_class,
        seed=seed * 1000 + 2, angle_offset=0.55, noise=0.4))
    tr, va, te = D.split_dataset(target, TARGET_SPLIT)
    return {"dir": job_dir, "surrogate": sur, "train": tr, "val": va, "test": te}


def vit_transfer(state: dict, seed: int, size: Size) -> JobResult:
    """pretrain("vit") on a 10-class surrogate, checkpoint round trip,
    fine_tune on a disjoint 3-class target with val passes, evaluate on test."""
    res = JobResult()
    sur, tr, va, te = state["surrogate"], state["train"], state["val"], state["test"]
    t1 = time.perf_counter()
    cfg = TR.TrainConfig(epochs=size.pretrain_epochs, batch_size=BATCH, lr=LR, seed=seed)
    ckpt = TR.pretrain("vit", _model_config("vit", 10), sur, cfg)
    t2 = time.perf_counter()
    path = state["dir"] / "vit_surrogate.ckpt"
    C.save_checkpoint(ckpt, path)
    loaded = C.load_checkpoint(path)
    t3 = time.perf_counter()
    ft_cfg = TR.TrainConfig(epochs=size.finetune_epochs, batch_size=BATCH, lr=LR, seed=seed)
    model, history = TR.fine_tune(loaded, tr, ft_cfg, val_manifest=va)
    t4 = time.perf_counter()
    rec, cm = TR.evaluate(model, te, cache=D.ImageCache(), split="test")
    t5 = time.perf_counter()

    res.wall_s = t5 - t1
    res.train_images = size.pretrain_epochs * len(sur) + size.finetune_epochs * len(tr)
    res.train_s = (t2 - t1) + (t4 - t3)
    res.eval_images, res.eval_s = len(te), t5 - t4
    res.test_acc = [rec.accuracy]
    res.check(_params_equal(ckpt.params, loaded.params),
              "checkpoint: loaded parameters differ from saved ones")
    res.check(math.isfinite(ckpt.metadata["final_train_loss"]),
              "pretrain: non-finite final loss")
    _check_history(res, history, size.finetune_epochs, "fine_tune")
    _check_eval(res, rec, cm, len(te), "test")
    res.hashes = {
        "pretrain": _sha256(*(ckpt.params[k].tobytes() for k in sorted(ckpt.params)),
                            ckpt.metadata["final_train_loss"]),
        "fine_tune": _sha256(_history_rows(history)),
        "test": _sha256(_history_rows([rec]), cm.counts.tobytes()),
    }
    return res


def cnn_compare_setup(job_dir: Path, seed: int, size: Size) -> dict:
    full = D.load_manifest(D.generate_synthetic(
        job_dir / "grid", "grid", 3, size.grid_per_class,
        seed=seed * 1000 + 3, noise=0.3))
    tr, va, te = D.split_dataset(full, GRID_SPLIT)
    models = [TR.make_model(k, _model_config(k, 3), seed=seed) for k in CNN_KINDS]
    return {"dir": job_dir, "train": tr, "val": va, "test": te, "models": models}


def cnn_compare(state: dict, seed: int, size: Size) -> JobResult:
    """Train the three mini CNNs on one split dataset with augmentation and
    a val pass per epoch, evaluate each on test, write the comparison CSV."""
    res = JobResult()
    tr, va, te, models = state["train"], state["val"], state["test"], state["models"]
    t1 = time.perf_counter()
    cfg = TR.TrainConfig(epochs=size.grid_epochs, batch_size=BATCH, lr=LR,
                         seed=seed, augment=AUGMENT)
    records = []
    for model in models:
        ta = time.perf_counter()
        history = TR.train(model, tr, va, cfg)
        tb = time.perf_counter()
        rec, cm = TR.evaluate(model, te, cache=D.ImageCache(), split="test")
        tc = time.perf_counter()
        res.train_s += tb - ta
        res.eval_s += tc - tb
        res.test_acc.append(rec.accuracy)
        _check_history(res, history, size.grid_epochs, model.kind)
        _check_eval(res, rec, cm, len(te), f"{model.kind} test")
        res.hashes[model.kind] = _sha256(_history_rows(history + [rec]),
                                         cm.counts.tobytes())
        records.extend(history + [rec])
    csv_path = state["dir"] / "comparison.csv"
    TR.emit_comparison(records, csv_path)
    t2 = time.perf_counter()

    res.wall_s = t2 - t1
    res.train_images = len(models) * size.grid_epochs * len(tr)
    res.eval_images = len(models) * len(te)
    parsed = TR.parse_comparison(csv_path)
    val_keys = sorted((r.model, r.epoch) for r in parsed if r.split == "val")
    expected = sorted((k, e) for k in CNN_KINDS for e in range(size.grid_epochs))
    res.check(val_keys == expected,
              "comparison CSV: val rows do not match one per model x epoch")
    res.hashes["comparison.csv"] = _sha256(csv_path.read_bytes())
    return res


def eval_cold_setup(job_dir: Path, seed: int, size: Size) -> dict:
    heldout = D.load_manifest(D.generate_synthetic(
        job_dir / "heldout", "heldout", 3, size.heldout_per_class,
        seed=seed * 1000 + 4, noise=0.3))
    saved = {}
    for kind in ("vit",) + CNN_KINDS:
        model = TR.make_model(kind, _model_config(kind, 3), seed=seed)
        ckpt = C.Checkpoint(kind=kind, config=model.config.to_dict(),
                            params=C.snapshot_params(model), metadata={"seed": seed})
        C.save_checkpoint(ckpt, job_dir / f"{kind}.ckpt")
        saved[kind] = ckpt.params
    return {"dir": job_dir, "heldout": heldout, "saved": saved}


def eval_cold(state: dict, seed: int, size: Size) -> JobResult:
    """Load one OVCK checkpoint per model kind and evaluate it on a held-out
    set, decoding every image from disk on every pass."""
    res = JobResult()
    heldout, saved = state["heldout"], state["saved"]
    t1 = time.perf_counter()
    for kind, params in saved.items():
        ckpt = C.load_checkpoint(state["dir"] / f"{kind}.ckpt")
        model = TR.make_model(ckpt.kind, ckpt.config, seed=0)
        C.load_params_into(model, ckpt.params)
        tb = time.perf_counter()
        rec, cm = TR.evaluate(model, heldout, cache=D.ImageCache(), split="test")
        tc = time.perf_counter()
        res.eval_s += tc - tb
        res.test_acc.append(rec.accuracy)
        res.check(_params_equal(params, ckpt.params),
                  f"{kind} checkpoint: loaded parameters differ from saved ones")
        _check_eval(res, rec, cm, len(heldout), f"{kind} heldout")
        res.hashes[kind] = _sha256(_history_rows([rec]), cm.counts.tobytes())
    res.wall_s = time.perf_counter() - t1
    res.eval_images = len(saved) * len(heldout)
    return res


# name -> (set-up, timed job)
WORKLOADS = {
    "vit-transfer": (vit_transfer_setup, vit_transfer),
    "cnn-compare": (cnn_compare_setup, cnn_compare),
    "eval-cold": (eval_cold_setup, eval_cold),
}
