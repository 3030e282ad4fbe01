"""Span tracer for the traced benchmark run.

The tracer swaps public functions and methods of the vitbench modules for
wrappers that record one span per call: a name, a start and end time, and
the index of the enclosing span.  Spans live in flat arrays while the run
goes on and are written out once, when it ends.  Nothing inside
``src/vitbench`` is changed; the swap is undone on exit.

A few spans also carry one value taken from the call (the FLOPs a matmul
or conv2d computes from its shapes, the batch a model forward sees, the
tape length backward replays, the bytes a checkpoint takes, the images an
evaluate pass scores).
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager


def _matmul_flops(args, kwargs, out):
    (m, k), (_, n) = args[0].shape, args[1].shape
    return 2.0 * m * k * n


def _conv2d_flops(args, kwargs, out):
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    _, ck, kh, kw = kernel.shape
    return 2.0 * out.data.size * ck * kh * kw


def _forward_batch_info(args, kwargs, out):
    model, images = args[0], args[1]
    return (model.kind, len(images))


def _tape_length(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["tape"])


def _checkpoint_bytes(args, kwargs, out):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _evaluated_images(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["manifest"])


# the tensor ops the per-layer report breaks time down by
TENSOR_OPS = (
    "matmul", "conv2d", "softmax", "layer_norm", "gelu", "relu", "add", "sub",
    "mul", "pow_scalar", "reshape", "transpose", "slice_axis", "concat",
    "stack", "tsum", "max_pool2d", "cross_entropy",
)


def targets():
    """(owner, attribute, span name, value function) for every traced call.

    ``vitbench.train`` imported ``backward`` and ``cross_entropy`` by name,
    so those two are swapped there as well as in ``vitbench.tensor``.
    """
    from vitbench import checkpoint as C
    from vitbench import cnn, data as D, tensor as T, train as TR, vit

    values = {"matmul": _matmul_flops, "conv2d": _conv2d_flops}
    out = [(T, op, "tensor." + op, values.get(op)) for op in TENSOR_OPS]
    out += [
        (T, "backward", "tensor.backward", _tape_length),
        (TR, "backward", "tensor.backward", _tape_length),
        (TR, "cross_entropy", "tensor.cross_entropy", None),
        (vit.ViTClassifier, "forward_batch", "model.forward_batch", _forward_batch_info),
        (cnn.CnnModel, "forward_batch", "model.forward_batch", _forward_batch_info),
        (vit.ViTClassifier, "forward_logits", "vit.forward_logits", None),
        (vit, "multi_head_attention", "vit.multi_head_attention", None),
        (vit, "embed_patches", "vit.embed_patches", None),
        (vit, "add_positional", "vit.add_positional", None),
        (cnn, "residual_block", "cnn.residual_block", None),
        (cnn, "depthwise_separable", "cnn.depthwise_separable", None),
        (D, "make_batches", "data.make_batches", None),
        (D, "load_image", "data.load_image", None),
        (D, "augment", "data.augment", None),
        (D.ImageCache, "get", "data.image_cache.get", None),
        (D, "generate_synthetic", "data.generate_synthetic", None),
        (D, "split_dataset", "data.split_dataset", None),
        (TR, "train", "train.train", None),
        (TR, "evaluate", "train.evaluate", _evaluated_images),
        (TR.Adam, "zero_grad", "train.adam.zero_grad", None),
        (TR.Adam, "step", "train.adam.step", None),
        (TR.ConfusionMatrix, "add", "train.confusion_add", None),
        (TR, "emit_comparison", "train.emit_comparison", None),
        (C, "save_checkpoint", "checkpoint.save", _checkpoint_bytes),
        (C, "load_checkpoint", "checkpoint.load", None),
    ]
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, object] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, value_fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, values, clock = self._stack, self.values, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value_fn is not None:
                values[idx] = value_fn(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, value_fn in targets():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, value_fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def save(self, path) -> None:
        """Write every span as numpy arrays: name, start, end, parent."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
