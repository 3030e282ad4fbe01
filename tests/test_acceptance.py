"""End-to-end acceptance suite.

Each test covers one release criterion and records a single
``[acceptance] <name>: PASS/FAIL`` line; the lines are echoed in an
"acceptance criteria" section at the end of the pytest run so the log
always shows the verdict per criterion.

Criteria:
- gradient-check-suite: finite-difference check of the full desk ViT and
  tiny configs of all three CNN kinds, max relative error < 1e-3, under
  two minutes total.
- attention-softmax-invariants: >= 1000 randomized softmax slices and
  attention rows each sum to 1 within 1e-6; multi-head attention matches
  a naive per-row loop oracle within 1e-10.
- patch-round-trip: partition/unpartition is bit-exact over >= 200
  randomized image and patch sizes.
- overfit-small-dataset: the desk ViT reaches 100% train accuracy on a
  seeded 64-sample 3-class set within 200 epochs (Adam, lr 0.001,
  batch <= 64) in under five minutes; each CNN kind reaches >= 95%.
- transfer-beats-scratch: fine-tuning from a surrogate-task checkpoint
  beats random-init training on a disjoint 3-class target (50 samples
  per class) by >= 10 percentage points mean final validation accuracy
  over 3 seeds, and reaches its best validation accuracy in fewer
  epochs on average.
- metric-oracle: evaluate-style accuracy equals a brute-force confusion
  count exactly on 1000 random prediction sets, and the worked binary
  case TP=90 TN=85 FP=10 FN=15 gives 0.875 exactly.
- comparison-pipeline-determinism: the compare command over all four
  model kinds and two synthetic datasets emits the comparison CSV with
  ten per-epoch validation rows per model/dataset cell, byte-identical
  across two runs with the same seed.
- split-15000: a 15000-entry manifest at 80:10:10 splits into exactly
  12000/1500/1500 with disjointness and exact union.
"""

import time

import numpy as np
import pytest

import conftest

from vitbench import data as D
from vitbench import tensor as T
from vitbench.cli import main as cli_main
from vitbench.cnn import CnnConfig, CnnModel
from vitbench.tensor import Tensor
from vitbench.train import (
    ConfusionMatrix,
    TrainConfig,
    fine_tune,
    make_model,
    parse_comparison,
    pretrain,
    train,
)
from vitbench.vit import (
    ViTClassifier,
    ViTConfig,
    multi_head_attention,
    partition_and_flatten,
    unpartition,
)

CNN_TINY = {"stage_widths": [4, 8], "blocks_per_stage": 1,
            "num_classes": 3, "image_size": 8, "channels": 3}


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[acceptance] {name}: {status}{suffix}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{name}: {detail}"


class TestGradientCheckSuite:
    def test_desk_vit_and_tiny_cnns(self):
        start = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(0)

        vit = ViTClassifier(ViTConfig(num_classes=3, dtype="float64"), seed=0)
        image = rng.random((3, 32, 32))
        label = np.array([1])

        def f_vit():
            return T.cross_entropy(vit.forward_batch(image[None]), label)

        worst = max(worst, T.finite_diff_gradcheck(
            f_vit, vit.params.values(), eps=1e-4,
            max_entries_per_param=4, rng=np.random.default_rng(1)))

        for kind in ("vgg-mini", "resnet-mini", "mobilenet-mini"):
            model = CnnModel(CnnConfig(kind=kind, **CNN_TINY, dtype="float64"), seed=0)
            # check at a generic point: jitter away from exact-zero biases
            # so no relu preactivation sits on its kink
            jr = np.random.default_rng(100)
            for p in model.params.values():
                p.data = p.data + jr.normal(0, 0.01, p.data.shape)
            x = rng.random((1, 3, 8, 8))

            def f_cnn():
                return T.cross_entropy(model.forward_batch(x), label)

            worst = max(worst, T.finite_diff_gradcheck(
                f_cnn, model.params.values(), eps=1e-6,
                max_entries_per_param=6, rng=np.random.default_rng(2)))

        elapsed = time.perf_counter() - start
        report("gradient-check-suite", worst < 1e-3 and elapsed < 120.0,
               f"max_rel_err={worst:.3e}, {elapsed:.1f}s")


def naive_mha(x: np.ndarray, blk: dict, num_heads: int) -> np.ndarray:
    """Per-row, per-key loop reference for multi-head attention."""
    t, d = x.shape
    dh = d // num_heads
    q = x @ blk["attn.wq"].data + blk["attn.bq"].data
    k = x @ blk["attn.wk"].data + blk["attn.bk"].data
    v = x @ blk["attn.wv"].data + blk["attn.bv"].data
    concat = np.zeros((t, d))
    for h in range(num_heads):
        qi = q[:, h * dh:(h + 1) * dh]
        ki = k[:, h * dh:(h + 1) * dh]
        vi = v[:, h * dh:(h + 1) * dh]
        for r in range(t):
            scores = np.array([qi[r] @ ki[s] for s in range(t)]) / np.sqrt(dh)
            e = np.exp(scores - scores.max())
            a = e / e.sum()
            row = np.zeros(dh)
            for s in range(t):
                row += a[s] * vi[s]
            concat[r, h * dh:(h + 1) * dh] = row
    return concat @ blk["attn.wo"].data + blk["attn.bo"].data


class TestAttentionSoftmaxInvariants:
    def test_row_stochastic_and_loop_oracle(self):
        rng = np.random.default_rng(7)
        slice_count = 0
        worst_sum = 0.0
        for _ in range(1000):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(2, 9))
            x = rng.normal(0, 3, (rows, cols))
            if rng.random() < 0.5:
                x = x + rng.choice([-1e3, 1e3])
            s = T.softmax(Tensor(x), axis=1)
            sums = s.data.sum(axis=1)
            worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
            slice_count += rows

        model = ViTClassifier(ViTConfig(num_classes=3, dtype="float64"), seed=3)
        blk = model.block_params("blocks.0.")
        for p in blk.values():
            p.data = rng.normal(0, 0.2, p.data.shape)
        attn_rows = 0
        worst_mha = 0.0
        while attn_rows < 1000:
            x = rng.normal(0, 1, (model.config.seq_len, model.config.embed_dim))
            out, weights = multi_head_attention(
                Tensor(x), blk, model.config.num_heads, return_weights=True)
            for w in weights:
                sums = w.data.sum(axis=1)
                worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
                attn_rows += w.shape[0]
            worst_mha = max(worst_mha, float(np.max(np.abs(
                out.data - naive_mha(x, blk, model.config.num_heads)))))

        ok = slice_count >= 1000 and attn_rows >= 1000
        ok = ok and worst_sum < 1e-6 and worst_mha < 1e-10
        report("attention-softmax-invariants", ok,
               f"{slice_count} slices + {attn_rows} attention rows, "
               f"row-sum err {worst_sum:.1e}, oracle err {worst_mha:.1e}")


class TestPatchRoundTrip:
    def test_bit_exact_200_cases(self):
        rng = np.random.default_rng(11)
        cases = 0
        ok = True
        while cases < 200:
            p = int(rng.integers(1, 9))
            h = p * int(rng.integers(1, 6))
            w = p * int(rng.integers(1, 6))
            c = int(rng.integers(1, 5))
            img = rng.random((c, h, w))
            back = unpartition(partition_and_flatten(img, p), p, c, h, w)
            ok = ok and np.array_equal(back, img)
            cases += 1
        report("patch-round-trip", ok, f"{cases} randomized cases bit-exact")


@pytest.fixture(scope="module")
def overfit_task(tmp_path_factory):
    """Seeded 64-sample 3-class synthetic dataset."""
    root = tmp_path_factory.mktemp("overfit")
    path = D.generate_synthetic(root, "memorize", 3, 22, seed=0)
    manifest = D.load_manifest(path)
    manifest.entries = manifest.entries[:64]
    return manifest


class TestOverfitSmallDataset:
    def test_vit_memorizes_within_200_epochs(self, overfit_task):
        start = time.perf_counter()
        model = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=0)
        cfg = TrainConfig(epochs=200, batch_size=64, lr=0.001, seed=0)
        hist = train(model, overfit_task, None, cfg, stop_at_train_acc=1.0)
        elapsed = time.perf_counter() - start
        best = max(h.accuracy for h in hist if h.split == "train")
        report("overfit-small-dataset [vit]",
               best == 1.0 and elapsed < 300.0,
               f"100% at epoch {hist[-1].epoch}, {elapsed:.1f}s")

    @pytest.mark.parametrize("kind", ["vgg-mini", "resnet-mini", "mobilenet-mini"])
    def test_cnn_reaches_95_percent(self, overfit_task, kind):
        model = make_model(kind, {"num_classes": 3}, seed=0)
        cfg = TrainConfig(epochs=200, batch_size=64, lr=0.001, seed=0)
        hist = train(model, overfit_task, None, cfg, stop_at_train_acc=0.95)
        best = max(h.accuracy for h in hist if h.split == "train")
        report(f"overfit-small-dataset [{kind}]", best >= 0.95,
               f"train acc {best:.3f} at epoch {hist[-1].epoch}")


@pytest.fixture(scope="module")
def transfer_tasks(tmp_path_factory):
    """Surrogate 10-class task plus a disjoint 3-class target task."""
    root = tmp_path_factory.mktemp("transfer")
    surrogate = D.load_manifest(D.generate_synthetic(
        root / "src", "surrogate", 10, 60, seed=0, angle_offset=0.0, noise=0.2))
    target_train = D.load_manifest(D.generate_synthetic(
        root / "tgt", "target", 3, 50, seed=1, angle_offset=0.55, noise=0.4))
    target_val = D.load_manifest(D.generate_synthetic(
        root / "tgt-val", "target-val", 3, 20, seed=2, angle_offset=0.55, noise=0.4))
    return surrogate, target_train, target_val


def _epoch_of_best_val(history):
    vals = [h for h in history if h.split == "val"]
    best = max(h.accuracy for h in vals)
    return next(h.epoch for h in vals if h.accuracy == best), best


class TestTransferBeatsScratch:
    def test_margin_and_speed_over_3_seeds(self, transfer_tasks):
        surrogate, target_train, target_val = transfer_tasks
        ckpt = pretrain("vit", ViTConfig(num_classes=10).to_dict(), surrogate,
                        TrainConfig(epochs=15, batch_size=64, lr=0.001, seed=0))
        ft_final, sc_final = [], []
        ft_best_epoch, sc_best_epoch = [], []
        for seed in (0, 1, 2):
            cfg = TrainConfig(epochs=8, batch_size=64, lr=0.001, seed=seed)
            _, ft_hist = fine_tune(ckpt, target_train, cfg, val_manifest=target_val)
            scratch = make_model("vit", ViTConfig(num_classes=3).to_dict(), seed=seed)
            sc_hist = train(scratch, target_train, target_val, cfg)
            ft_final.append([h for h in ft_hist if h.split == "val"][-1].accuracy)
            sc_final.append([h for h in sc_hist if h.split == "val"][-1].accuracy)
            ft_best_epoch.append(_epoch_of_best_val(ft_hist)[0])
            sc_best_epoch.append(_epoch_of_best_val(sc_hist)[0])
        margin = float(np.mean(ft_final) - np.mean(sc_final))
        faster = float(np.mean(ft_best_epoch)) < float(np.mean(sc_best_epoch))
        report("transfer-beats-scratch", margin >= 0.10 and faster,
               f"margin {margin * 100:.1f} points, best-val epoch "
               f"{np.mean(ft_best_epoch):.1f} vs {np.mean(sc_best_epoch):.1f}")


class TestMetricOracle:
    def test_brute_force_equality_1000_sets(self):
        rng = np.random.default_rng(17)
        ok = True
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 200))
            labels = rng.integers(0, k, size=n)
            preds = rng.integers(0, k, size=n)
            cm = ConfusionMatrix(k)
            for lab, pred in zip(labels, preds):
                cm.add(int(lab), int(pred))
            correct = sum(1 for lab, pred in zip(labels, preds) if lab == pred)
            ok = ok and cm.accuracy == correct / n and cm.total == n

        cm = ConfusionMatrix(2)
        cm.counts[1, 1] = 90
        cm.counts[0, 0] = 85
        cm.counts[0, 1] = 10
        cm.counts[1, 0] = 15
        ok = ok and (cm.tp, cm.tn, cm.fp, cm.fn) == (90, 85, 10, 15)
        ok = ok and cm.accuracy == 0.875
        report("metric-oracle", ok,
               "1000 random sets exact; TP=90 TN=85 FP=10 FN=15 -> 0.875")


class TestComparisonPipelineDeterminism:
    def test_two_seeded_runs_byte_identical(self, tmp_path):
        for name, offset in (("taska", 0.0), ("taskb", 0.7)):
            code = cli_main(["gen-synthetic", "--name", name, "--classes", "3",
                             "--per-class", "10", "--out", str(tmp_path / name),
                             "--seed", "5", "--angle-offset", str(offset)])
            assert code == 0
        manifests = [str(tmp_path / n / f"{n}.manifest") for n in ("taska", "taskb")]
        for run in ("run1", "run2"):
            code = cli_main(["compare", *manifests,
                             "--out", str(tmp_path / run), "--seed", "0",
                             "--epochs", "10", "--batch-size", "12"])
            assert code == 0
        b1 = (tmp_path / "run1" / "comparison.csv").read_bytes()
        b2 = (tmp_path / "run2" / "comparison.csv").read_bytes()
        identical = b1 == b2
        identical = identical and (
            (tmp_path / "run1" / "summary.txt").read_bytes()
            == (tmp_path / "run2" / "summary.txt").read_bytes())

        records = parse_comparison(tmp_path / "run1" / "comparison.csv")
        kinds = {"vit", "vgg-mini", "resnet-mini", "mobilenet-mini"}
        datasets = {r.dataset for r in records}
        shape_ok = {r.model for r in records} == kinds and len(datasets) == 2
        for ds in datasets:
            for kind in kinds:
                val_epochs = sorted(r.epoch for r in records
                                    if r.dataset == ds and r.model == kind
                                    and r.split == "val")
                shape_ok = shape_ok and val_epochs == list(range(10))
        report("comparison-pipeline-determinism", identical and shape_ok,
               "4 kinds x 2 datasets, 10 val rows each, byte-identical reruns")


class TestSplit15000:
    def test_exact_sizes_disjoint_union(self):
        entries = [(f"img_{i:05d}.ppm", i % 3) for i in range(15000)]
        manifest = D.DatasetManifest(name="big", class_names=["a", "b", "c"],
                                     entries=entries)
        tr, va, te = D.split_dataset(manifest, D.SplitSpec(seed=0))
        sizes = (len(tr), len(va), len(te))
        s_tr = {e[0] for e in tr.entries}
        s_va = {e[0] for e in va.entries}
        s_te = {e[0] for e in te.entries}
        disjoint = not (s_tr & s_va or s_tr & s_te or s_va & s_te)
        union_ok = (s_tr | s_va | s_te) == {e[0] for e in entries}
        report("split-15000", sizes == (12000, 1500, 1500) and disjoint and union_ok,
               f"sizes {sizes}, disjoint={disjoint}, union exact={union_ok}")
