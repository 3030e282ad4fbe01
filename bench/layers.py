"""Per-layer metrics derived from the spans of a traced run.

Self time is a span's duration minus the time its direct children cover.
Spans are stored in call order, so a span's descendants are the contiguous
run of later spans that start before it ends.

A *step* is one iteration of the workload's closed loop: a training step,
from the start of ``Adam.zero_grad`` to the end of ``Adam.step``, where the
workload trains; one ``evaluate`` batch, from the start of
``forward_batch`` to the end of its ``cross_entropy``, on eval-cold.
Per-step figures average over *full* steps, the ones whose batch has the
largest size seen (B=64 at full size), so counts such as the tape length
are exact.
"""

from __future__ import annotations

import numpy as np

from tracer import TENSOR_OPS, Tracer


class _Spans:
    def __init__(self, tr: Tracer):
        self.ids = {name: i for i, name in enumerate(tr.names)}
        self.nid = np.frombuffer(tr.name_id, dtype=np.int32).copy()
        self.start = np.frombuffer(tr.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tr.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).copy()
        self.values = tr.values
        self.dur = self.end - self.start
        inner = self.parent >= 0
        child = np.bincount(self.parent[inner], weights=self.dur[inner],
                            minlength=len(self.dur))
        self.self_t = self.dur - child

    def of(self, name: str) -> np.ndarray:
        """Indices of every span with this name."""
        return np.flatnonzero(self.nid == self.ids.get(name, -1))

    def is_(self, name: str) -> np.ndarray:
        return self.nid == self.ids.get(name, -1)

    def subtree_end(self, i: int) -> int:
        """One past the last descendant of span i."""
        return int(np.searchsorted(self.start, self.end[i], side="left"))

    def within(self, roots) -> np.ndarray:
        """Mask of every span inside (and including) the given spans."""
        mask = np.zeros(len(self.dur), dtype=bool)
        for i in roots:
            mask[i:self.subtree_end(i)] = True
        return mask


def _mean(x) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _steps(s: _Spans):
    """(first span, one past last span, duration, batch size) per step."""
    forward = s.of("model.forward_batch")
    zero = s.of("train.adam.zero_grad")
    steps = []
    if len(zero):
        for z, st in zip(zero, s.of("train.adam.step")):
            hi = s.subtree_end(st)
            fb = forward[(forward > z) & (forward < hi)]
            batch = s.values[fb[0]][1] if len(fb) else 0
            steps.append((z, hi, s.end[st] - s.start[z], batch))
    else:
        loss = s.of("tensor.cross_entropy")
        for fb in forward:
            after = loss[loss > fb]
            if not len(after):
                continue
            ce = after[0]
            steps.append((fb, s.subtree_end(ce), s.end[ce] - s.start[fb], s.values[fb][1]))
    return steps


def per_layer(tr: Tracer, jobs: int) -> dict:
    """name -> (value, unit) for every per-layer metric of the traced jobs."""
    from vitbench.cnn import CNN_KINDS

    s = _Spans(tr)
    out: dict[str, tuple] = {}
    steps = _steps(s)
    full_b = max((b for *_, b in steps), default=0)
    full = [st for st in steps if st[3] == full_b]
    n_full = len(full)
    in_step = np.zeros(len(s.dur), dtype=bool)
    for lo, hi, _, _ in full:
        in_step[lo:hi] = True

    def per_step(x: float) -> float:
        return _ratio(x, n_full)

    # tensor
    for op in TENSOR_OPS:
        m = s.is_("tensor." + op) & in_step
        out[f"tensor.{op}.calls_per_step"] = (per_step(m.sum()), "count")
        out[f"tensor.{op}.self_ms_per_step"] = (per_step(s.self_t[m].sum() * 1e3), "ms")
    bw = s.is_("tensor.backward") & in_step
    out["tensor.backward_ms_per_step"] = (per_step(s.dur[bw].sum() * 1e3), "ms")
    out["tensor.tape_entries_per_step"] = (
        per_step(sum(s.values[i] for i in np.flatnonzero(bw))), "count")
    for op in ("matmul", "conv2d"):
        m = np.flatnonzero(s.is_("tensor." + op) & in_step)
        flops = float(sum(s.values[i] for i in m))
        out[f"tensor.{op}.gflop_per_step"] = (per_step(flops) / 1e9, "GFLOP")
        out[f"tensor.{op}.gflop_per_s"] = (_ratio(flops / 1e9, s.self_t[m].sum()), "GFLOP/s")

    # vit and cnn: full-size forward batches of each model kind
    forward = s.of("model.forward_batch")
    by_kind = {}
    for i in forward:
        kind, batch = s.values[i]
        if batch == full_b:
            by_kind.setdefault(kind, []).append(i)
    vit_fb = by_kind.get("vit", [])
    vit_in = s.within(vit_fb)
    out["vit.forward_ms_per_batch"] = (_mean(s.dur[vit_fb]) * 1e3, "ms")
    out["vit.forward_logits.calls_per_batch"] = (
        _ratio((s.is_("vit.forward_logits") & vit_in).sum(), len(vit_fb)), "count")
    out["vit.multi_head_attention.ms_per_batch"] = (
        _ratio(s.dur[s.is_("vit.multi_head_attention") & vit_in].sum() * 1e3, len(vit_fb)), "ms")
    for kind in CNN_KINDS:
        out[f"cnn.{kind}.forward_ms_per_batch"] = (_mean(s.dur[by_kind.get(kind, [])]) * 1e3, "ms")
    for block, kind in (("residual_block", "resnet-mini"), ("depthwise_separable", "mobilenet-mini")):
        roots = by_kind.get(kind, [])
        m = s.is_("cnn." + block) & s.within(roots)
        out[f"cnn.{block}.ms_per_batch"] = (_ratio(s.dur[m].sum() * 1e3, len(roots)), "ms")

    # data
    train_spans = s.of("train.train")
    batches = s.of("data.make_batches")
    train_batches = batches[np.isin(s.parent[batches], train_spans)]
    loads = s.of("data.load_image")
    out["data.make_batches.ms_per_epoch"] = (_mean(s.dur[batches]) * 1e3, "ms")
    out["data.load_image.calls"] = (_ratio(len(loads), jobs), "count")
    out["data.load_image.ms_per_image"] = (_mean(s.dur[loads]) * 1e3, "ms")
    out["data.image_cache.hit_ratio"] = (
        1.0 - _ratio(len(loads), len(s.of("data.image_cache.get"))), "ratio")
    out["data.augment.ms_per_epoch"] = (
        _ratio(s.dur[s.of("data.augment")].sum() * 1e3, len(train_batches)), "ms")
    out["data.generate_synthetic.ms"] = (_mean(s.dur[s.of("data.generate_synthetic")]) * 1e3, "ms")
    out["data.split_dataset.ms"] = (_mean(s.dur[s.of("data.split_dataset")]) * 1e3, "ms")

    # train
    step_ms = np.array([d for _, _, d, _ in full]) * 1e3
    out["train.steps"] = (float(n_full), "count")
    out["train.step_ms.p50"] = (float(np.percentile(step_ms, 50)) if n_full else 0.0, "ms")
    out["train.step_ms.p90"] = (float(np.percentile(step_ms, 90)) if n_full else 0.0, "ms")
    phases = {
        "forward": "model.forward_batch", "loss": "tensor.cross_entropy",
        "backward": "tensor.backward", "adam": "train.adam.step",
        "zero_grad": "train.adam.zero_grad",
    }
    covered = 0.0
    for phase, name in phases.items():
        t = s.dur[s.is_(name) & in_step].sum()
        covered += t
        out[f"train.{phase}_ms_per_step"] = (per_step(t * 1e3), "ms")
    out["train.step_coverage_pct"] = (_ratio(covered, step_ms.sum() / 1e3) * 100.0, "%")
    out["train.data_wait_share"] = (
        _ratio(s.dur[train_batches].sum(), s.dur[train_spans].sum()), "ratio")
    evals = s.of("train.evaluate")
    out["train.evaluate.ms_per_image"] = (
        _ratio(s.dur[evals].sum() * 1e3, sum(s.values[i] for i in evals)), "ms")
    out["train.confusion_add.calls"] = (_ratio(len(s.of("train.confusion_add")), jobs), "count")
    out["train.emit_comparison.ms"] = (_mean(s.dur[s.of("train.emit_comparison")]) * 1e3, "ms")

    # checkpoint
    saves = s.of("checkpoint.save")
    out["checkpoint.save_ms"] = (_mean(s.dur[saves]) * 1e3, "ms")
    out["checkpoint.load_ms"] = (_mean(s.dur[s.of("checkpoint.load")]) * 1e3, "ms")
    out["checkpoint.bytes"] = (_mean([s.values[i] for i in saves]), "bytes")

    out["trace.spans"] = (_ratio(len(s.dur), jobs), "count")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}
