"""Model forwards and training half-steps in two worker processes, one BLAS
thread each: a small GEMM cannot pay for a second BLAS thread, but two
one-thread processes use a second core.  A worker first gets ``("model",
model, strict, np.geterr())``, then requests ``("forward", images)`` or
``("half", trainable values, images, labels, n, seeds)``; a reply is the
result or the exception, and the warnings.  Every request kind is one
module-level function that the in-process path calls too."""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import queue
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import tensor as T
from .cnn import CnnModel
from .vit import ViTClassifier

POOLED = (ViTClassifier, CnnModel)   # a worker can rebuild only what make_model builds
# a worker's first forward of a pass is slow: in passes shorter than this the
# pool lost to the in-process loop on some model kind (README)
MIN_BATCHES = 16
# only these models' steps run as halves, in workers for `train` calls of at
# least MIN_STEPS steps: the ViT's halves gained nothing there, and split in
# process they cost vit-transfer a fifth of its speed (README)
TRAINED = (CnnModel,)
MIN_STEPS = 3
WORKERS = 2   # the only pool size measured
IN_FLIGHT = 2   # forwards sent to a worker ahead of the reply read next
CPU_MAX = Path("/sys/fs/cgroup/cpu.max")
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
# glibc malloc keeps what a worker frees: requests below 32 MB (its largest
# threshold) come from the heap, and the heap is not trimmed, so a step's
# temporaries reuse the last step's pages instead of faulting in fresh ones
_KEEP_FREED = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
_workers: list[subprocess.Popen] = []   # started on first use, ended at exit
_registries: dict[str, dict] = {}   # per file: which re-issued warnings were shown
_training = None   # the model of the pooled training call under way


def _quota(text: str | None) -> float:
    """CPUs a cgroup v2 ``cpu.max`` (``"<quota> <period>"`` or ``"max
    <period>"``) allows; unlimited when absent, ``max`` or malformed."""
    try:
        quota, period = text.split()
        cpus = int(quota) / int(period)
    except (AttributeError, ValueError, ZeroDivisionError):
        return math.inf
    return cpus if cpus > 0 else math.inf


def _cpus() -> float:
    """CPUs this process may use: its affinity mask, capped by its cgroup's quota."""
    try:
        text = CPU_MAX.read_text()
    except OSError:
        text = None
    mask = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(mask, _quota(text))


def _start() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", "from vitbench.workers import _serve; _serve()"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            # first on sys.path under -c, not the caller's cwd
                            cwd=Path(__file__).resolve().parents[1],
                            env={**os.environ, **_ONE_THREAD, **_KEEP_FREED})


def _exited(worker: subprocess.Popen) -> ChildProcessError:
    return ChildProcessError(f"worker {worker.pid} exited with code {worker.wait()}")


def _send(worker: subprocess.Popen, message) -> None:
    try:
        pickle.dump(message, worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        worker.stdin.flush()
    except BrokenPipeError:
        raise _exited(worker) from None


def _receive(worker: subprocess.Popen):
    try:
        reply, caught = pickle.load(worker.stdout)
    except EOFError:
        raise _exited(worker) from None
    for message, category, filename, lineno in caught:   # through the caller's filters
        warnings.warn_explicit(message, category, filename, lineno,
                               registry=_registries.setdefault(filename, {}))
    if isinstance(reply, BaseException):
        raise reply
    return reply


def _load(worker: subprocess.Popen, model) -> None:
    _send(worker, ("model", model, T._STRICT, np.geterr()))


@contextlib.contextmanager
def _pool():
    """The running pool; an error kills it, since a reply still owed would
    reach the next request: the next use starts afresh."""
    while len(_workers) < WORKERS:
        _workers.append(_start())
    try:
        yield _workers
    except BaseException:
        close(kill=True)
        raise


def forward(model, images) -> np.ndarray:
    """One forward request: the logits of ``images``, no dropout."""
    return model.forward_batch(images).data


def forwards(model, batches, n_batches: int):
    """Yield ``(logits, labels)`` for each of ``batches``, in order, one pass at
    a time: batch *i* from worker *i* mod WORKERS, or all from here with one
    CPU, a model no worker can rebuild, or fewer than MIN_BATCHES batches
    outside a pooled :func:`training` call of this model."""
    if (_cpus() < WORKERS or type(model) not in POOLED
            or n_batches < MIN_BATCHES and model is not _training):
        yield from ((T.Tensor(forward(model, b.images)), b.labels) for b in batches)
        return
    pending = []   # (worker, labels), oldest first
    with _pool() as pool:
        for i, batch in enumerate(batches):
            worker = pool[i % WORKERS]
            if i < WORKERS:
                _load(worker, model)
            _send(worker, ("forward", batch.images))
            pending.append((worker, batch.labels))
            if len(pending) == IN_FLIGHT * WORKERS:
                worker, labels = pending.pop(0)
                yield T.Tensor(_receive(worker)), labels
        while pending:
            worker, labels = pending.pop(0)
            yield T.Tensor(_receive(worker)), labels


def half_step(model, images, labels, n: int, seeds) -> tuple[float, int]:
    """One part, a half or the whole, of an ``n``-image training step: the
    forward, with dropout drawn from ``default_rng(seeds)``, the
    cross-entropy and the backward, whose gradients, scaled to the whole
    batch's mean, are added into the trainable parameters' ``grad``.
    Returns the part's loss sum and correct count; a non-finite loss skips
    the backward."""
    with T.Tape() as tape:
        logits = model.forward_batch(images, np.random.default_rng(seeds))
        loss = T.cross_entropy(logits, labels)
    loss_sum = loss.item() * len(labels)
    if math.isfinite(loss_sum):
        T.backward(loss, tape, len(labels) / n)
    return loss_sum, int((np.argmax(logits.data, axis=1) == labels).sum())


def _trainable(model) -> list:
    return [p for p in model.params.values() if p.requires_grad]


def _half(model, values, images, labels, n: int, seeds) -> tuple:
    """A half step on the worker's copy of the model, with the trainable
    ``values`` copied in and its own gradients only; replies with them."""
    trainable = _trainable(model)
    for p, value in zip(trainable, values):
        np.copyto(p.data, value)
        p.zero_grad()
    return *half_step(model, images, labels, n, seeds), [p.grad for p in trainable]


@contextlib.contextmanager
def training(model, n_steps: int):
    """The step function of one ``train`` call of ``n_steps`` steps:
    ``step(images, labels, seeds)`` runs :func:`half_step` on each part of
    the batch with ``[*seeds, part]``, adds the gradients into the
    trainable parameters' ``grad`` part 0 first, and returns each part's
    (loss sum, correct count).  A model of a TRAINED type splits every
    batch into halves of ⌈n/2⌉ and ⌊n/2⌋ images (one for one image), and
    runs them in the workers, with the model sent once, when the call has
    at least MIN_STEPS steps and two CPUs are free, and so do the call's
    validation passes; anywhere else the halves run in turn here, with the
    same bits.  Any other model, which never runs in a worker, takes each
    batch whole."""
    global _training
    split = type(model) in TRAINED
    pooled = split and _cpus() >= WORKERS and n_steps >= MIN_STEPS
    trainable = _trainable(model)
    loaded = []   # the pool whose workers hold the model

    def step(images, labels, seeds) -> list:
        n = len(labels)
        h = -(-n // 2) if split else n
        parts = [s for s in (slice(0, h), slice(h, n)) if s.start < s.stop]
        if not pooled:
            return [half_step(model, images[s], labels[s], n, [*seeds, i])
                    for i, s in enumerate(parts)]
        with _pool() as pool:
            if loaded != pool:
                for worker in pool:
                    _load(worker, model)
                loaded[:] = pool
            values = [p.data for p in trainable]
            for i, s in enumerate(parts):
                _send(pool[i], ("half", values, images[s], labels[s], n, [*seeds, i]))
            replies = [_receive(pool[i]) for i in range(len(parts))]
        for _, _, grads in replies:
            for p, g in zip(trainable, grads):
                p.accumulate_grad(g)
        return [(loss_sum, correct) for loss_sum, correct, _ in replies]

    _training = model if pooled else None
    try:
        yield step
    finally:
        _training = None


@atexit.register
def close(kill: bool = False) -> None:
    """End every worker: each exits at the end of its input, or is killed."""
    while _workers:
        worker = _workers.pop()
        if kill:
            worker.kill()
        with contextlib.suppress(BrokenPipeError):   # a request cut short by the kill
            worker.stdin.close()
        worker.stdout.close()
        worker.wait()


_REQUESTS = {"forward": forward, "half": _half}


def _serve() -> None:
    replies = open(os.dup(1), "wb", buffering=0)
    os.dup2(2, 1)   # prints go to stderr; stdout carries only replies
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent ends a worker by EOF
    outbox = queue.Queue()

    def write():
        # a large reply waits here, not where the parent's next batch is read
        with contextlib.suppress(BrokenPipeError):   # the parent is gone
            while (data := outbox.get()) is not None:
                view = memoryview(data)
                while view:
                    view = view[replies.write(view):]

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    while True:
        try:
            kind, *args = pickle.load(sys.stdin.buffer)
        except (EOFError, pickle.UnpicklingError):   # a closed or cut-off input
            break
        if kind == "model":
            model, strict, errstate = args
            T.set_strict(strict)
            np.seterr(**errstate)
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")   # the parent's filters choose
            try:
                reply = _REQUESTS[kind](model, *args)
            except Exception as exc:
                reply = exc
        caught = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        outbox.put(pickle.dumps((reply, caught), protocol=pickle.HIGHEST_PROTOCOL))
    outbox.put(None)
    writer.join()
