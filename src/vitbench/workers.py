"""Model forwards in two worker processes, one BLAS thread each: a small GEMM
cannot pay for a second BLAS thread, but two one-thread forwards use a second
core.  A pass pickles ``(model, strict, np.geterr())`` to each worker, then one
batch per forward; a reply is the logits or the exception, and the warnings."""

from __future__ import annotations

import atexit
import contextlib
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
WORKERS = 2   # the only pool size measured
IN_FLIGHT = 2   # forwards sent to a worker ahead of the reply read next
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
_workers: list[subprocess.Popen] = []   # started on first use, ended at exit
_registries: dict[str, dict] = {}   # per file: which re-issued warnings were shown


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _start() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", "from vitbench.workers import _serve; _serve()"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            # first on sys.path under -c, not the caller's cwd
                            cwd=Path(__file__).resolve().parents[1],
                            env={**os.environ, **_ONE_THREAD})


def _exited(worker: subprocess.Popen) -> ChildProcessError:
    return ChildProcessError(f"evaluation worker {worker.pid} exited with code {worker.wait()}")


def _send(worker: subprocess.Popen, message) -> None:
    try:
        pickle.dump(message, worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        worker.stdin.flush()
    except BrokenPipeError:
        raise _exited(worker) from None


def _receive(worker: subprocess.Popen, labels) -> tuple:
    try:
        reply, caught = pickle.load(worker.stdout)
    except EOFError:
        raise _exited(worker) from None
    for message, category, filename, lineno in caught:   # through the caller's filters
        warnings.warn_explicit(message, category, filename, lineno,
                               registry=_registries.setdefault(filename, {}))
    if isinstance(reply, BaseException):
        raise reply
    return T.Tensor(reply), labels


def forwards(model, batches, n_batches: int):
    """Yield ``(logits, labels)`` for each of ``batches``, in order, one pass at
    a time: batch *i* from worker *i* mod WORKERS, or all from here with one
    CPU, a model no worker can rebuild, or fewer than MIN_BATCHES batches."""
    if _cpus() < WORKERS or n_batches < MIN_BATCHES or type(model) not in POOLED:
        yield from ((model.forward_batch(b.images), b.labels) for b in batches)
        return
    while len(_workers) < WORKERS:
        _workers.append(_start())
    pending = []   # (worker, labels), oldest first
    try:
        for i, batch in enumerate(batches):
            worker = _workers[i % WORKERS]
            if i < WORKERS:
                _send(worker, (model, T._STRICT, np.geterr()))
            _send(worker, batch.images)
            pending.append((worker, batch.labels))
            if len(pending) == IN_FLIGHT * WORKERS:
                yield _receive(*pending.pop(0))
        while pending:
            yield _receive(*pending.pop(0))
    except BaseException:
        close(kill=True)   # a reply still owed would reach the next pass: start afresh
        raise


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
            request = pickle.load(sys.stdin.buffer)
        except (EOFError, pickle.UnpicklingError):   # a closed or cut-off input
            break
        if isinstance(request, tuple):
            model, strict, errstate = request
            T.set_strict(strict)
            np.seterr(**errstate)
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")   # the parent's filters choose
            try:
                reply = model.forward_batch(request).data
            except Exception as exc:
                reply = exc
        caught = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        outbox.put(pickle.dumps((reply, caught), protocol=pickle.HIGHEST_PROTOCOL))
    outbox.put(None)
    writer.join()
