import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vitbench import cli
from vitbench import data as D
from vitbench import workers
from vitbench.checkpoint import Checkpoint, load_checkpoint, save_checkpoint, snapshot_params
from vitbench.cli import build_parser, main
from vitbench.train import MetricsRecord, make_model


def run(argv):
    return main([str(a) for a in argv])


# each command's long options: exactly those its handler reads
SHARED = ("--config", "--seed", "--out")
TRAINING = ("--epochs", "--batch-size", "--lr")
OPTIONS = {
    "gen-synthetic": ("--name", "--classes", "--per-class", "--image-size",
                      "--angle-offset", "--noise", *SHARED),
    "split": ("--train-ratio", "--val-ratio", "--test-ratio", "--no-stratify", *SHARED),
    "gradcheck": ("--model", "--entries-per-param", "--config", "--seed"),
    "pretrain": ("--model", *SHARED, *TRAINING),
    "finetune": ("--val-manifest", "--freeze-backbone", *SHARED, *TRAINING),
    "evaluate": ("--config",),
    "compare": ("--models", *SHARED, *TRAINING),
}
# options each command took while no handler read them
REMOVED = {
    "gen-synthetic": TRAINING,
    "split": TRAINING,
    "gradcheck": ("--out", *TRAINING),
    "evaluate": ("--seed", "--out", "--split", *TRAINING),
}


@pytest.fixture
def manifest(tmp_path):
    return D.generate_synthetic(tmp_path / "d", "d", 2, 2, seed=1)


class TestUsage:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(["trane"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_args_exit_2(self):
        assert run([]) == 2

    @pytest.mark.parametrize("sub", OPTIONS)
    def test_help_exits_zero(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == set(OPTIONS[sub])

    @pytest.mark.parametrize("sub, flag", [(sub, flag) for sub in REMOVED
                                           for flag in REMOVED[sub]])
    def test_removed_option(self, sub, flag, tmp_path, capsys, monkeypatch):
        """An option no handler reads is a usage error, and a config file
        key naming it is an error naming the file."""
        monkeypatch.chdir(tmp_path)
        positionals = {"split": ["x.manifest"], "evaluate": ["x.ckpt", "x.manifest"]}
        argv = [sub, *positionals.get(sub, [])]
        assert run([*argv, flag, "1"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\n{flag[2:]} = 1\n")
        assert run([*argv, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file") and "run.cfg" in err and flag in err, err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_flag_exit_2(self):
        assert run(["gradcheck", "--frobnicate"]) == 2


class TestGenSynthetic:
    def test_creates_manifest(self, tmp_path, capsys):
        code = run(["gen-synthetic", "--name", "demo", "--classes", "2",
                    "--per-class", "3", "--out", tmp_path, "--seed", "4"])
        assert code == 0
        manifest = D.load_manifest(tmp_path / "demo.manifest")
        assert len(manifest) == 6

    def test_seeded_runs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run(["gen-synthetic", "--name", "demo", "--classes", "2",
                 "--per-class", "3", "--out", tmp_path / sub, "--seed", "9"])
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class TestSplit:
    def test_writes_three_manifests(self, tmp_path):
        run(["gen-synthetic", "--name", "full", "--classes", "2",
             "--per-class", "20", "--out", tmp_path / "ds", "--seed", "1"])
        code = run(["split", tmp_path / "ds" / "full.manifest",
                    "--out", tmp_path / "splits", "--seed", "2"])
        assert code == 0
        tr = D.load_manifest(tmp_path / "splits" / "full-train.manifest")
        va = D.load_manifest(tmp_path / "splits" / "full-val.manifest")
        te = D.load_manifest(tmp_path / "splits" / "full-test.manifest")
        assert (len(tr), len(va), len(te)) == (32, 4, 4)

    def test_small_class_warns_in_one_line(self, tmp_path):
        """In a fresh interpreter, as a user runs it (pytest records warnings
        instead of printing them): one line per class, no source path."""
        D.generate_synthetic(tmp_path / "ds", "tiny", 3, 2, seed=1)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "vitbench.cli", "split", str(tmp_path / "ds" / "tiny.manifest"),
             "--out", str(tmp_path / "splits")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines == [f"warning: class {c} has only 2 entries; all assigned to train"
                         for c in range(3)]
        assert not any("data.py" in line for line in lines)

    def test_non_utf8_manifest_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.manifest"
        path.write_bytes(b"#classes: a,b\n\xff\t0\n")
        assert run(["split", path, "--out", tmp_path / "splits"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGradcheck:
    def test_vit_reports_below_threshold(self, capsys):
        code = run(["gradcheck", "--model", "vit", "--seed", "1",
                    "--entries-per-param", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_rel_err=" in out
        assert float(out.split("max_rel_err=")[1].split()[0]) < 1e-3


class TestWorkflow:
    @pytest.mark.parametrize("kind", ["vit", "resnet-mini"])
    def test_pretrain_evaluate_finetune(self, kind, tmp_path, capsys):
        run(["gen-synthetic", "--name", "src", "--classes", "3",
             "--per-class", "4, ".strip(", "), "--out", tmp_path / "src", "--seed", "3"])
        code = run(["pretrain", tmp_path / "src" / "src.manifest",
                    "--model", kind, "--epochs", "1", "--batch-size", "8",
                    "--out", tmp_path / "ckpt", "--seed", "0"])
        assert code == 0
        ckpt = tmp_path / "ckpt" / f"{kind}_src.ckpt"
        assert ckpt.exists()
        saved = load_checkpoint(ckpt)
        assert saved.config["dtype"] == "float32"
        assert all(p.dtype == np.float32 for p in saved.params.values())

        code = run(["evaluate", ckpt, tmp_path / "src" / "src.manifest"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

        run(["gen-synthetic", "--name", "tgt", "--classes", "2",
             "--per-class", "4", "--out", tmp_path / "tgt", "--seed", "5",
             "--angle-offset", "0.5"])
        code = run(["finetune", ckpt, tmp_path / "tgt" / "tgt.manifest",
                    "--epochs", "1", "--batch-size", "8",
                    "--out", tmp_path / "ft", "--seed", "0",
                    "--freeze-backbone"])
        assert code == 0
        assert (tmp_path / "ft" / f"{kind}_tgt_finetuned.ckpt").exists()

    def test_evaluate_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        run(["gen-synthetic", "--name", "d", "--classes", "2", "--per-class", "2",
             "--out", tmp_path / "d", "--seed", "1"])
        # a wrong magic, and a right magic cut short inside the header
        for bad in (b"NOPE", b"OVCK\x01\x00\x05\x00"):
            (tmp_path / "bad.ckpt").write_bytes(bad)
            code = run(["evaluate", tmp_path / "bad.ckpt",
                        tmp_path / "d" / "d.manifest"])
            assert code == 1
            assert "error:" in capsys.readouterr().err


class TestBadInputs:
    """Every bad input exits 1 with an ``error:`` line, never a traceback."""

    def expect_error(self, argv, capsys, *needles):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:"), err
        for needle in needles:
            assert needle in err

    def test_evaluate_missing_checkpoint(self, tmp_path, manifest, capsys):
        self.expect_error(["evaluate", tmp_path / "missing.ckpt", manifest], capsys,
                          "missing.ckpt")

    def test_evaluate_missing_manifest(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config={"num_classes": 2},
                                   params={"a": np.zeros(1)}), ckpt)
        self.expect_error(["evaluate", ckpt, tmp_path / "missing.manifest"], capsys,
                          "missing.manifest")

    def test_evaluate_checkpoint_with_unknown_config_key(self, tmp_path, manifest, capsys):
        ckpt = tmp_path / "bogus.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config={"bogus": 1},
                                   params={"a": np.zeros(1)}), ckpt)
        self.expect_error(["evaluate", ckpt, manifest], capsys, "bogus")

    @pytest.mark.parametrize("config", [
        {"mlp_ratio": 1e300},
        {"embed_dim": 2**40, "num_heads": 1},
    ])
    def test_evaluate_checkpoint_too_large_to_build(self, tmp_path, manifest, capsys, config):
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config=config,
                                   params={"a": np.zeros(1)}), ckpt)
        self.expect_error(["evaluate", ckpt, manifest], capsys, "vit model for config")

    @pytest.mark.parametrize("mlp_ratio", [1e308, 1e-9])
    def test_evaluate_checkpoint_without_an_mlp_width(self, tmp_path, manifest, capsys,
                                                      mlp_ratio):
        ckpt = tmp_path / "mlp.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config={"mlp_ratio": mlp_ratio},
                                   params={"a": np.zeros(1)}), ckpt)
        self.expect_error(["evaluate", ckpt, manifest], capsys, "hidden width")

    def test_pretrain_to_non_finite_parameters(self, tmp_path, manifest, capsys):
        self.expect_error(["pretrain", manifest, "--epochs", "1", "--lr", "1e300",
                           "--out", tmp_path / "out"], capsys,
                          "non-finite parameter", "epoch 0")
        assert not (tmp_path / "out").exists()

    # any numpy floating-point warning fails the test, so the one error line
    # is all the command writes
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_run_writes_one_error_line(self, tmp_path, manifest, capsys):
        assert run(["pretrain", manifest, "--epochs", "1", "--lr", "1e300",
                    "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_evaluate_checkpoint_with_non_finite_parameter(self, tmp_path, manifest, capsys):
        model = make_model("vit", {"num_classes": 2})
        params = snapshot_params(model)
        params["head.b"][1] = np.nan
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config=model.config.to_dict(),
                                   params=params), ckpt)
        self.expect_error(["evaluate", ckpt, manifest], capsys, "'head.b'", "non-finite")

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_manifest_of_another_class_count(self, tmp_path, manifest, capsys, command):
        """A 3-class checkpoint on the 2-class manifest, or a 3-class target
        with that 2-class validation set: refused before any image is read."""
        three = D.generate_synthetic(tmp_path / "three", "three", 3, 2, seed=2)
        model = make_model("vit", {"num_classes": 3})
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config=model.config.to_dict(),
                                   params=snapshot_params(model)), ckpt)
        argv = {"evaluate": ["evaluate", ckpt, manifest],
                "finetune": ["finetune", ckpt, three, "--val-manifest", manifest,
                             "--epochs", "1", "--out", tmp_path / "ft"]}[command]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "'d' has 2 classes" in err and "predicts 3" in err
        assert not (tmp_path / "ft").exists()

    def test_pretrain_on_a_directory(self, tmp_path, capsys):
        self.expect_error(["pretrain", tmp_path, "--epochs", "1"], capsys)

    def test_config_without_section_header(self, tmp_path, manifest, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\n")
        self.expect_error(["pretrain", manifest, "--config", cfg], capsys, "run.cfg")

    def test_config_value_of_wrong_type(self, tmp_path, manifest, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[train]\nepochs = x\n")
        self.expect_error(["pretrain", manifest, "--config", cfg], capsys,
                          "run.cfg", "epochs")

    def test_missing_config_file(self, tmp_path, manifest, capsys):
        self.expect_error(["pretrain", manifest, "--config", tmp_path / "typo.cfg",
                           "--epochs", "1", "--out", tmp_path / "out"], capsys, "typo.cfg")
        assert not (tmp_path / "out").exists()

    # a key that names no option of the command: an attribute argparse sets
    # itself, a positional argument, a misspelling (also under [DEFAULT]),
    # and a value outside the option's choices
    @pytest.mark.parametrize("entry, needle", [
        ("[run]\nfn = x", "--fn"),
        ("[run]\nmanifest = {other}", "--manifest"),
        ("[run]\nepoch = 3", "--epoch"),
        ("[DEFAULT]\nepoch = 3", "--epoch"),
        ("[run]\nmodel = bogus", "--model"),
    ], ids=["fn", "manifest", "epoch", "epoch-in-default", "model"])
    def test_config_entry_that_is_no_valid_option(self, tmp_path, manifest, capsys,
                                                  entry, needle):
        other = D.generate_synthetic(tmp_path / "o", "o", 2, 2, seed=2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry.format(other=other) + "\n")
        self.expect_error(["pretrain", manifest, "--config", cfg, "--epochs", "1",
                           "--batch-size", "4", "--out", tmp_path / "out"], capsys,
                          "config file", "run.cfg", needle)
        assert not (tmp_path / "out").exists()

    def test_config_store_true_entry_that_is_no_boolean(self, tmp_path, manifest, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nfreeze-backbone = maybe\n")
        self.expect_error(["finetune", tmp_path / "m.ckpt", manifest, "--config", cfg],
                          capsys, "run.cfg", "freeze-backbone", "maybe")

    # each argv ends in the bad option and its value
    @pytest.mark.parametrize("argv", [
        ["gen-synthetic", "--seed", "-1"],
        ["split", "{manifest}", "--seed", "-1"],
        ["pretrain", "{manifest}", "--epochs", "1", "--seed", "-1"],
        ["gen-synthetic", "--noise", "-1"],
        ["gen-synthetic", "--image-size", "-3"],
        ["gen-synthetic", "--angle-offset", "nan"],
        ["gen-synthetic", "--angle-offset", "inf"],
        ["gen-synthetic", "--angle-offset", "-1"],
        ["gen-synthetic", "--classes", "-1"],
        ["gen-synthetic", "--per-class", "0"],
    ])
    def test_negative_seed(self, tmp_path, manifest, capsys, argv):
        argv = [a.format(manifest=manifest) for a in argv]
        name = argv[-2][2:].replace("-", "_")
        minimum = ">= 1" if name in ("classes", "image_size", "per_class") else ">= 0"
        self.expect_error([*argv, "--out", tmp_path / "out"], capsys, name, minimum)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entries", ["0", "-1"])
    def test_gradcheck_needs_one_entry_per_parameter(self, capsys, entries):
        self.expect_error(["gradcheck", "--model", "resnet-mini",
                           "--entries-per-param", entries], capsys, "entries per parameter")

    @pytest.mark.parametrize("model", ["vit", "resnet-mini"])
    def test_gradcheck_negative_seed(self, capsys, model):
        assert run(["gradcheck", "--model", model, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "seed" in err and ">= 0" in err

    def test_checkpoint_on_images_of_another_size(self, tmp_path, manifest, capsys):
        model = make_model("resnet-mini", {"num_classes": 2, "image_size": 32})
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind=model.kind, config=model.config.to_dict(),
                                   params=snapshot_params(model)), ckpt)
        small = D.generate_synthetic(tmp_path / "small", "small", 2, 2, image_size=20)
        self.expect_error(["evaluate", ckpt, small], capsys, "(B, 3, 32, 32)")
        self.expect_error(["finetune", ckpt, small, "--epochs", "1", "--out", tmp_path / "ft"],
                          capsys, "(B, 3, 32, 32)")

    def test_manifest_of_mixed_image_sizes(self, tmp_path, manifest, capsys):
        D.generate_synthetic(tmp_path / "d" / "small", "small", 2, 1, image_size=20)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("small/class0_0000.ppm\t0\n")
        self.expect_error(["pretrain", manifest, "--epochs", "1", "--out", tmp_path / "out"],
                          capsys, "has shape", "its batch started with shape")

    def test_odd_image_after_the_first_batch(self, tmp_path, capsys, monkeypatch):
        """Batches stream, so the 70th image's other size is found after
        the first batch of 64 has been handed on to run forward (in a
        worker process when there is a second CPU)."""
        data = D.generate_synthetic(tmp_path / "d", "d", 3, 30, seed=1)
        rel = D.load_manifest(data).entries[69][0]
        D.generate_synthetic(tmp_path / "small", "small", 1, 1, image_size=20)
        (tmp_path / "d" / rel).write_bytes((tmp_path / "small" / "class0_0000.ppm").read_bytes())
        model = make_model("vit", {"num_classes": 3})
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind=model.kind, config=model.config.to_dict(),
                                   params=snapshot_params(model)), ckpt)
        yielded = []
        make_batches = D.make_batches

        def counting(*args, **kwargs):
            for batch in make_batches(*args, **kwargs):
                yielded.append(len(batch.labels))
                yield batch

        monkeypatch.setattr(D, "make_batches", counting)
        assert run(["evaluate", ckpt, data]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:"), err
        assert rel in err and "has shape (3, 20, 20)" in err
        assert yielded == [64]


@pytest.mark.skipif(workers._cpus() < 2, reason="the worker path needs a second CPU")
def test_pretrain_with_a_killed_worker_prints_one_error(tmp_path, capsys, monkeypatch):
    """A training worker killed between two steps: one ``error:`` line
    naming it, exit 1."""
    data = D.generate_synthetic(tmp_path / "d", "d", 3, 4, seed=1)
    monkeypatch.setattr(workers, "MIN_STEPS", 1)
    make_batches, killed = D.make_batches, []

    def killing(*args, **kwargs):
        for i, batch in enumerate(make_batches(*args, **kwargs)):
            if i == 1:
                worker = workers._workers[0]
                worker.send_signal(signal.SIGKILL)
                worker.wait()
                killed.append(worker.pid)
            yield batch

    monkeypatch.setattr(D, "make_batches", killing)
    assert run(["pretrain", data, "--model", "vgg-mini", "--epochs", "1", "--batch-size", "8",
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: worker {killed[0]} exited with code -9\n"


class TestCompare:
    def test_summary_and_csv_footer_agree_on_a_tie(self, tmp_path, monkeypatch):
        def tied_train(model, tr, va, cfg):
            return [MetricsRecord(model.kind, "d", 0, "val", 0.8, 0.5)]

        monkeypatch.setattr(cli, "train", tied_train)
        run(["gen-synthetic", "--name", "d", "--classes", "2", "--per-class", "10",
             "--out", tmp_path / "d", "--seed", "1"])
        code = run(["compare", tmp_path / "d" / "d.manifest",
                    "--models", "vit,vgg-mini", "--out", tmp_path / "out"])
        assert code == 0
        footer = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[-1]
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert footer.startswith("# best val: dataset=d model=vgg-mini ")
        assert summary.startswith("d: best model vgg-mini ")

    def test_dataset_without_val_images_refused_before_any_training(
            self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train", lambda model, *args: trained.append(model) or [])
        good = D.generate_synthetic(tmp_path / "good", "good", 2, 10, seed=1)
        # two images a class all go to train
        small = D.generate_synthetic(tmp_path / "small", "small", 3, 2, seed=1)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="all assigned to train"):
            assert run(["compare", good, small, "--models", "vit", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'small' leaves no validation images"), err
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("models, needle", [
        ("", "unknown model kind ''"),
        ("vit,vit", "repeated"),
        ("vit,bogus", "unknown model kind 'bogus'"),
    ], ids=["empty", "repeated", "unknown"])
    def test_models_checked_before_any_training(self, models, needle, tmp_path, manifest,
                                                capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train", lambda model, *args: trained.append(model) or [])
        out = tmp_path / "out"
        assert run(["compare", manifest, "--models", models, "--out", out]) == 2
        assert needle in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[compare]\nmodels = {models}\n")
        assert run(["compare", manifest, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file") and "run.cfg" in err and needle in err, err
        assert trained == [] and not out.exists()


class TestConfigFile:
    def test_file_values_fill_unpassed_flags(self, tmp_path, manifest, monkeypatch):
        seen = []

        def fake_pretrain(kind, model_config, data, cfg):
            seen.append(cfg)
            return Checkpoint(kind=kind, config=model_config, params={})

        monkeypatch.setattr(cli, "pretrain", fake_pretrain)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[train]\nepochs = 3\nbatch-size = 8\n")
        assert run(["pretrain", manifest, "--config", cfg, "--batch-size", "16",
                    "--out", tmp_path / "out"]) == 0
        assert seen[0].epochs == 3        # from file
        assert seen[0].batch_size == 16   # flag wins

    @pytest.mark.parametrize("value, frozen", [("true", True), ("false", False)])
    def test_store_true_entry_takes_a_boolean(self, tmp_path, manifest, monkeypatch,
                                              value, frozen):
        models = []
        real_fine_tune = cli.fine_tune

        def spy_fine_tune(*args, **kwargs):
            model, history = real_fine_tune(*args, **kwargs)
            models.append(model)
            return model, history

        monkeypatch.setattr(cli, "fine_tune", spy_fine_tune)
        model = make_model("vit", {"num_classes": 2})
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(kind="vit", config=model.config.to_dict(),
                                   params=snapshot_params(model)), ckpt)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[finetune]\nfreeze_backbone = {value}\n")
        assert run(["finetune", ckpt, manifest, "--config", cfg, "--epochs", "1",
                    "--batch-size", "4", "--out", tmp_path / "out"]) == 0
        (tuned,) = models
        assert {tuned.params[n].requires_grad for n in tuned.backbone_names()} == {not frozen}

    def test_percent_sign_is_read_as_written(self, tmp_path, manifest, monkeypatch):
        monkeypatch.setattr(cli, "pretrain", lambda kind, model_config, data, cfg: Checkpoint(
            kind=kind, config=model_config, params={}))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nout = 100%\n")
        monkeypatch.chdir(tmp_path)
        assert run(["pretrain", manifest, "--config", cfg]) == 0
        assert (tmp_path / "100%" / "vit_d.ckpt").exists()

    def test_abbreviated_flag_is_a_usage_error(self, tmp_path, capsys):
        # allow_abbrev=False also keeps a file key such as epoch from reading as --epochs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[train]\nepochs = 3\n")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["pretrain", "x.manifest", "--config", str(cfg),
                                       "--epoch", "7"])
        assert exc.value.code == 2
        assert run(["pretrain", "x.manifest", "--config", cfg, "--epoch", "7"]) == 2
        assert "--epoch" in capsys.readouterr().err
