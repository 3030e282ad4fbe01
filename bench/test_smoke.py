"""Smoke test of the benchmark at tiny size.

Run from the repository root:  python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import TENSOR_OPS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every per-layer metric the traced run prints, named as in the README table
TRACED_NAMES = (
    [f"tensor.{op}.{kind}" for op in TENSOR_OPS
     for kind in ("calls_per_step", "self_ms_per_step")]
    + ["tensor.backward_ms_per_step", "tensor.tape_entries_per_step",
       "tensor.matmul.gflop_per_step", "tensor.matmul.gflop_per_s",
       "tensor.conv2d.gflop_per_step", "tensor.conv2d.gflop_per_s",
       "vit.forward_ms_per_batch", "vit.forward_logits.calls_per_batch",
       "vit.multi_head_attention.ms_per_batch",
       "cnn.vgg-mini.forward_ms_per_batch", "cnn.resnet-mini.forward_ms_per_batch",
       "cnn.mobilenet-mini.forward_ms_per_batch", "cnn.residual_block.ms_per_batch",
       "cnn.depthwise_separable.ms_per_batch",
       "data.make_batches.ms_per_epoch", "data.load_image.calls",
       "data.load_image.ms_per_image", "data.image_cache.hit_ratio",
       "data.augment.ms_per_epoch", "data.generate_synthetic.ms", "data.split_dataset.ms",
       "train.steps", "train.step_ms.p50", "train.step_ms.p90",
       "train.forward_ms_per_step", "train.loss_ms_per_step", "train.backward_ms_per_step",
       "train.adam_ms_per_step", "train.zero_grad_ms_per_step", "train.step_coverage_pct",
       "train.data_wait_share", "train.evaluate.ms_per_image", "train.confusion_add.calls",
       "train.emit_comparison.ms",
       "checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes",
       "trace.spans", "trace.overhead_pct"]
)
UNTRACED_NAMES = ["setup_s", "wall_s", "img_per_s", "eval_img_per_s", "peak_rss_mb",
                  "test_acc_pct", "error_rate", "jobs"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)


def test_spec_matches_the_runner():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    for name in TRACED_NAMES if trace else UNTRACED_NAMES:
        assert name in printed, name
    for name, m in result["metrics"].items():
        assert printed[name] == m["unit"]
    assert any(line.startswith("provenance ") for line in lines)
    assert any(line.startswith("history_sha256 ") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eval-cold", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
