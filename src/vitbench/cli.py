"""Command-line surface: dataset generation/splitting, gradient checking,
pretraining, fine-tuning, evaluation, and the multi-model comparison run.

Configuration files are flat ``key = value`` text with bracketed section
headers (parsed with configparser); each key is one of the command's long
options, and command-line flags override file values.  Exit codes:
0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import data as D
from . import tensor as T
from .checkpoint import checkpoint_of, load_checkpoint, load_params_into, save_checkpoint
from .errors import ConfigurationError, ToolkitError, ValidationError
from .train import (
    MODEL_KINDS,
    TrainConfig,
    best_val,
    emit_comparison,
    evaluate,
    fine_tune,
    make_model,
    pretrain,
    train,
)


def _add_common(p: argparse.ArgumentParser, *, seed: bool = True, out: bool = True) -> None:
    """``--config``, and ``--seed`` and ``--out`` for the commands that read them."""
    p.add_argument("--config", type=Path, help="key=value config file with [sections]")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (no wall-clock defaults)")
    if out:
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=10, help="training epochs")
    p.add_argument("--batch-size", type=int, default=75, help="batch size")
    p.add_argument("--lr", type=float, default=0.001, help="Adam learning rate")


def _model_kinds(text: str) -> list:
    """``--models``: comma-separated kinds, each known and named once."""
    kinds = text.split(",")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown model kind {kind!r} in {text!r}; expected one of {MODEL_KINDS}")
    if len(set(kinds)) != len(kinds):
        raise argparse.ArgumentTypeError(f"a model kind is repeated in {text!r}")
    return kinds


class _FileParser(argparse.ArgumentParser):
    """Raises argparse's message instead of printing usage and exiting 2."""

    def error(self, message):
        raise ConfigurationError(message)


def _with_config_file(args: argparse.Namespace, argv: list) -> argparse.Namespace:
    """Re-parse ``argv`` behind the ``--config`` file's entries as long flags,
    so argparse checks them and a flag in argv, coming later, wins.  An
    option that is a bool in ``args`` is ``store_true``: its entry takes
    ``true`` or ``false``.  A missing file is an ``OSError``; any fault in
    the file is a :class:`ConfigurationError` naming it."""
    if not args.config:
        return args
    # values are read as written: a % is a plain character
    config = configparser.ConfigParser(interpolation=None)
    flags = []
    where = f"config file {args.config}"
    try:
        with open(args.config, encoding="utf-8") as fh:
            config.read_file(fh)
        # DEFAULT too: a file holding only [DEFAULT] is not to be dropped
        for section in config:
            for key, value in config[section].items():
                where = f"config file {args.config}, [{section}] {key}"
                flag = "--" + key.replace("_", "-")
                if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                    flags.append(f"{flag}={value}")  # so a value like -1 is no flag
                elif config[section].getboolean(key):
                    flags.append(flag)
        where = f"config file {args.config}"
        # argv[0] is the subcommand: the top-level parser has no option but -h
        return build_parser(_FileParser).parse_args([argv[0], *flags, *argv[1:]])
    except (configparser.Error, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                       seed=args.seed)


def cmd_gen_synthetic(args) -> int:
    path = D.generate_synthetic(
        args.out, args.name, args.classes, args.per_class,
        image_size=args.image_size, seed=args.seed,
        angle_offset=args.angle_offset, noise=args.noise,
    )
    print(f"wrote {path}")
    return 0


def cmd_split(args) -> int:
    manifest = D.load_manifest(args.manifest)
    spec = D.SplitSpec(ratios=(args.train_ratio, args.val_ratio, args.test_ratio),
                       seed=args.seed, stratified=not args.no_stratify)
    parts = D.split_dataset(manifest, spec)
    args.out.mkdir(parents=True, exist_ok=True)
    for part in parts:
        out = args.out / f"{part.name}.manifest"
        # entry paths are manifest-relative; re-anchor them to the output dir
        part.entries = [
            (os.path.relpath(manifest.root / rel, args.out), lab)
            for rel, lab in part.entries
        ]
        part.root = args.out
        D.save_manifest(part, out)
        print(f"wrote {out} ({len(part)} entries)")
    return 0


def cmd_gradcheck(args) -> int:
    # finite differences need float64 whatever the model default; the
    # model is built first, so make_model checks the seed
    if args.model == "vit":
        model = make_model("vit", {"num_classes": 3, "dtype": "float64"}, seed=args.seed)
        eps = 1e-4
    else:
        model = make_model(args.model, {
            "stage_widths": [4, 8], "blocks_per_stage": 1,
            "num_classes": 3, "image_size": 8, "channels": 3, "dtype": "float64",
        }, seed=args.seed)
        # relu models: check at a generic point so no preactivation sits
        # exactly on a kink, and keep eps small to avoid crossing one
        jitter = np.random.default_rng(args.seed + 100)
        for p in model.params.values():
            p.data = p.data + jitter.normal(0, 0.01, p.data.shape)
        eps = 1e-6
    cfg = model.config
    rng = np.random.default_rng(args.seed)
    image = rng.random((cfg.channels, cfg.image_size, cfg.image_size))
    label = np.array([1])

    def f():
        logits = model.forward_batch(image[None])
        return T.cross_entropy(logits, label)

    err = T.finite_diff_gradcheck(
        f, model.params, eps=eps,
        max_entries_per_param=args.entries_per_param, rng=rng,
    )
    print(f"max_rel_err={err:.3e}")
    if err >= 1e-3:
        print("gradcheck FAILED (threshold 1e-3)", file=sys.stderr)
        return 1
    return 0


def cmd_pretrain(args) -> int:
    manifest = D.load_manifest(args.manifest)
    cfg = _train_config(args)
    ckpt = pretrain(args.model, {"num_classes": manifest.num_classes}, manifest, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.model}_{manifest.name}.ckpt"
    save_checkpoint(ckpt, path)
    print(f"wrote {path}")
    return 0


def cmd_finetune(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    manifest = D.load_manifest(args.manifest)
    val = D.load_manifest(args.val_manifest) if args.val_manifest else None
    cfg = _train_config(args)
    model, history = fine_tune(ckpt, manifest, cfg, val_manifest=val,
                               freeze_backbone=args.freeze_backbone)
    args.out.mkdir(parents=True, exist_ok=True)
    out_ckpt = checkpoint_of(model, {"seed": cfg.seed, "epochs": cfg.epochs,
                                     "source_dataset": manifest.name,
                                     "fine_tuned_from": str(args.checkpoint)})
    path = args.out / f"{model.kind}_{manifest.name}_finetuned.ckpt"
    save_checkpoint(out_ckpt, path)
    for rec in history:
        print(f"epoch {rec.epoch} {rec.split}: acc={rec.accuracy:.4f} loss={rec.loss:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    manifest = D.load_manifest(args.manifest)
    model = make_model(ckpt.kind, ckpt.config, seed=0)
    load_params_into(model, ckpt.params)
    record, cm = evaluate(model, manifest)
    print(f"accuracy={record.accuracy:.4f} loss={record.loss:.4f}")
    if manifest.num_classes == 2:
        print(f"TP={cm.tp} TN={cm.tn} FP={cm.fp} FN={cm.fn}")
    return 0


def cmd_compare(args) -> int:
    """Run a model x dataset grid and emit the comparison CSV + summary.
    Every manifest is split before any training, and one whose val split
    is empty, so no model could be picked on it, is a ValidationError."""
    splits = []
    for path in args.manifests:
        manifest = D.load_manifest(path)
        tr, va, _ = D.split_dataset(manifest, D.SplitSpec(seed=args.seed))
        if not va.entries:
            raise ValidationError(f"dataset {manifest.name!r} leaves no validation images "
                                  f"after the split, so no best model can be picked")
        splits.append((tr, va))
    args.out.mkdir(parents=True, exist_ok=True)
    records = []
    for tr, va in splits:
        for kind in args.models:
            cfg = _train_config(args)
            model = make_model(kind, {"num_classes": tr.num_classes}, seed=args.seed)
            history = train(model, tr, va, cfg)
            records.extend(history)
    csv_path = args.out / "comparison.csv"
    emit_comparison(records, csv_path)
    summary_lines = [
        f"{ds}: best model {r.model} with val accuracy {r.accuracy * 100.0:.2f}%"
        for ds, r in sorted(best_val(records).items())
    ]
    summary_path = args.out / "summary.txt"
    summary_path.write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    # no abbreviated long options, so a --config key is spelled in full too:
    # a misspelt key such as "epoch" must not parse as --epochs
    parser = parser_class(
        prog="vitbench",
        description="Desk-scale ViT/CNN classification benchmark toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("gen-synthetic", help="generate a synthetic PPM dataset")
    p.add_argument("--name", default="synth", help="dataset name")
    p.add_argument("--classes", type=int, default=3, help="number of classes")
    p.add_argument("--per-class", type=int, default=50, help="images per class")
    p.add_argument("--image-size", type=int, default=32, help="square image size")
    p.add_argument("--angle-offset", type=float, default=0.0,
                   help="stripe-angle offset distinguishing task families")
    p.add_argument("--noise", type=float, default=0.15, help="pixel noise level")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = command("split", help="split a manifest into train/val/test")
    p.add_argument("manifest", type=Path)
    p.add_argument("--train-ratio", type=float, default=0.8)
    p.add_argument("--val-ratio", type=float, default=0.1)
    p.add_argument("--test-ratio", type=float, default=0.1)
    p.add_argument("--no-stratify", action="store_true", help="disable stratification")
    _add_common(p)
    p.set_defaults(fn=cmd_split)

    p = command("gradcheck", help="finite-difference gradient check")
    p.add_argument("--model", choices=MODEL_KINDS, default="vit")
    p.add_argument("--entries-per-param", type=int, default=4,
                   help="sampled entries per parameter tensor")
    _add_common(p, out=False)
    p.set_defaults(fn=cmd_gradcheck)

    p = command("pretrain", help="train from scratch on a surrogate task")
    p.add_argument("manifest", type=Path)
    p.add_argument("--model", choices=MODEL_KINDS, default="vit")
    _add_common(p)
    _add_training(p)
    p.set_defaults(fn=cmd_pretrain)

    p = command("finetune", help="fine-tune a checkpoint on a target task")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("manifest", type=Path)
    p.add_argument("--val-manifest", type=Path)
    p.add_argument("--freeze-backbone", action="store_true",
                   help="update only the classification head")
    _add_common(p)
    _add_training(p)
    p.set_defaults(fn=cmd_finetune)

    p = command("evaluate", help="evaluate a checkpoint on a manifest")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("manifest", type=Path)
    _add_common(p, seed=False, out=False)
    p.set_defaults(fn=cmd_evaluate)

    p = command("compare", help="model x dataset grid -> comparison CSV")
    p.add_argument("manifests", type=Path, nargs="+")
    p.add_argument("--models", type=_model_kinds, default=list(MODEL_KINDS),
                   help="comma-separated kinds, each once (default: all)")
    _add_common(p)
    _add_training(p)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # each Python warning printed as one "warning: <message>" line; a
    # recording catch_warnings (pytest.warns) still sees it
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *args, **kwargs: f"warning: {message}\n"
    try:
        args = _with_config_file(args, argv)
        # training and checkpoint loading report non-finite values as typed
        # errors, so numpy's floating-point warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
