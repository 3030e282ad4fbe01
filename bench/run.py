"""vitbench benchmark: three closed-loop workloads over vitbench's public API.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload vit-transfer --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0 --out results.json

One run repeats its workload's job (set-up, timed calls, output checks) with
the same seed until the next job would end past ``--seconds``; the caller
issues its next call only after the previous one returns.  ``--trace 0``
reports the end-to-end metrics with nothing wrapped; ``--trace 1``
alternates untraced and traced jobs, and reports the per-layer metrics of
the traced ones and the tracing overhead.  ``--workload all`` runs every workload in a fresh
process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a run
writes stays under the checkout: generated data in ``.bench_tmp/`` (removed
when the run ends), the history hashes of earlier runs in ``.bench_state/``,
and the spans of a traced run in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
from tracer import TENSOR_OPS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOAD_NAMES = ("vit-transfer", "cnn-compare", "eval-cold")
TRAINING = ("vit-transfer", "cnn-compare")
SETUPS_PER_JOB = 3

# The metrics the last output line carries; BENCHMARK.json lists the same.
# Every per-layer time listed here is non-zero on every workload; the ones
# that are zero where a layer does not run are printed but not listed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "img_per_s": "img/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "tensor.tape_entries_per_step",
    *(f"tensor.{op}.calls_per_step" for op in TENSOR_OPS),
    *(f"tensor.{op}.self_ms_per_step" for op in (
        "matmul", "add", "mul", "reshape", "tsum", "cross_entropy")),
    "tensor.matmul.gflop_per_step",
    "tensor.matmul.gflop_per_s",
    "tensor.conv2d.gflop_per_step",
    "vit.forward_logits.calls_per_batch",
    "data.make_batches.ms_per_epoch",
    "data.load_image.calls",
    "data.load_image.ms_per_image",
    "data.image_cache.hit_ratio",
    "data.generate_synthetic.ms",
    "train.steps",
    "train.step_ms.p50",
    "train.step_ms.p90",
    "train.forward_ms_per_step",
    "train.loss_ms_per_step",
    "train.step_coverage_pct",
    "train.evaluate.ms_per_image",
    "train.confusion_add.calls",
    "checkpoint.bytes",
    "trace.spans",
    "trace.overhead_pct",
)


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_vitbench():
    """Import vitbench from the checkout's own ``src``, nowhere else."""
    if not (SRC / "vitbench" / "__init__.py").is_file():
        _fail(f"no vitbench sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import vitbench

    if Path(vitbench.__file__).resolve().parent != (SRC / "vitbench").resolve():
        _fail(f"imported vitbench from {vitbench.__file__}, not from {SRC}")


def _blas_threads() -> int:
    """OpenBLAS thread count of the numpy wheel's bundled library, or -1."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return -1
    fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def _git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vitbench").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_fingerprint(),
    }


def _check_history_record(key: str, digest: str) -> str | None:
    """Compare a run's history hash with the last run of the same seed and
    sources in this checkout; record it when new.  Returns a mismatch note."""
    state = ROOT / ".bench_state" / "history_sha256.json"
    known = json.loads(state.read_text()) if state.is_file() else {}
    if key in known:
        if known[key] != digest:
            return f"history_sha256 {digest} differs from an earlier run's {known[key]}"
        return None
    known[key] = digest
    state.parent.mkdir(exist_ok=True)
    tmp = state.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, state)
    return None


def _job_line(i: int, res, traced: bool) -> str:
    parts = [f"job {i}{' (traced)' if traced else ''}:",
             "setup_s=" + ",".join(f"{t:.4f}" for t in res.setup_s), f"wall_s={res.wall_s:.4f}"]
    if res.train_s:
        parts.append(f"train_img_per_s={res.train_images / res.train_s:.2f}")
    parts.append(f"eval_img_per_s={res.eval_images / res.eval_s:.2f}")
    parts.append(f"test_acc_pct={100.0 * statistics.mean(res.test_acc):.2f}")
    if res.failures:
        parts.append("FAILED: " + "; ".join(res.failures))
    return " ".join(parts)


def _eval_rate(jobs) -> float:
    return sum(r.eval_images for r in jobs) / sum(r.eval_s for r in jobs)


def _rate(workload: str, jobs) -> float:
    """The workload's closed-loop images per second over all the given jobs:
    training images on the training workloads, evaluated ones on eval-cold."""
    if workload in TRAINING:
        return sum(r.train_images for r in jobs) / sum(r.train_s for r in jobs)
    return _eval_rate(jobs)


def _job(setup_fn, job_fn, job_dir: Path, seed: int, size):
    """Set up SETUPS_PER_JOB times, each into a fresh directory, then run the
    timed part on the last set-up.  Only one set-up's data is kept at once."""
    times = []
    for k in range(SETUPS_PER_JOB):
        if k:
            shutil.rmtree(job_dir)
        t0 = time.perf_counter()
        state = setup_fn(job_dir, seed, size)
        times.append(time.perf_counter() - t0)
    res = job_fn(state, seed, size)
    res.setup_s = times
    return res


def run_workload(args) -> int:
    from workloads import SIZES, WORKLOADS

    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    (setup_fn, job_fn), size = WORKLOADS[args.workload], SIZES[args.size]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    tracer = Tracer() if args.trace else None
    min_jobs = 2 if args.trace else 1
    done, attempted, notes = [], 0, []
    t_start = time.perf_counter()
    try:
        while True:
            # traced and untraced jobs alternate, so that the overhead
            # compares jobs run under the same machine conditions
            traced = tracer is not None and attempted % 2 == 1
            job_dir = run_dir / f"job{attempted}"
            res = None
            with tracer.installed() if traced else contextlib.nullcontext():
                try:
                    res = _job(setup_fn, job_fn, job_dir, args.seed, size)
                except Exception:
                    traceback.print_exc()
            shutil.rmtree(job_dir, ignore_errors=True)
            attempted += 1
            if res is not None:
                print(_job_line(attempted - 1, res, traced), flush=True)
                if not res.failures:
                    done.append((res, traced))
            elapsed = time.perf_counter() - t_start
            if attempted >= min_jobs and elapsed * (attempted + 1) / attempted > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    failed = attempted - len(done)
    untraced = [r for r, t in done if not t]
    traced_runs = [r for r, t in done if t]
    if not untraced or (tracer is not None and not traced_runs):
        print(f"bench: no successful {'untraced and traced ' if tracer else ''}job "
              f"among {attempted}", file=sys.stderr)
        return 1

    digests = {json.dumps(r.hashes, sort_keys=True) for r, _ in done}
    if len(digests) > 1:
        notes.append("jobs with the same seed produced different histories")
    for part, h in done[0][0].hashes.items():
        print(f"history_sha256[{part}] {h}")
    digest = hashlib.sha256(min(digests).encode()).hexdigest()
    key = f"{args.workload}|{args.size}|seed={args.seed}|src={prov['source_sha256']}"
    mismatch = _check_history_record(key, digest)
    if mismatch:
        notes.append(mismatch)
    print(f"history_sha256 {digest}", flush=True)

    first = untraced[0]
    report = {
        "setup_s": (statistics.median(t for r in untraced for t in r.setup_s), "s"),
        "wall_s": (statistics.median(r.wall_s for r in untraced), "s"),
        "img_per_s": (_rate(args.workload, untraced), "img/s"),
        "eval_img_per_s": (_eval_rate(untraced), "img/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_acc_pct": (100.0 * statistics.mean(first.test_acc), "%"),
        "error_rate": (failed / attempted, "ratio"),
        "jobs": (float(len(untraced)), "count"),
    }
    if args.workload in TRAINING:
        report["train_img_per_s"] = report["img_per_s"]
    wanted = END_TO_END
    if tracer is not None:
        report = layers.per_layer(tracer, len(traced_runs))
        overhead = _rate(args.workload, untraced) / _rate(args.workload, traced_runs) - 1.0
        report["trace.overhead_pct"] = (overhead * 100.0, "%")
        report["trace.jobs"] = (float(len(traced_runs)), "count")
        wanted = {name: report[name][1] for name in PER_LAYER}
        tracer.save(ROOT / ".bench_out" / f"spans-{args.workload}.npz")

    for name, (value, unit) in report.items():
        print(f"metric {name} {value!r} {unit}")
    for note in notes:
        print(f"bench: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": report[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }
    if args.out:
        full = dict(result, provenance=prov, history_sha256=digest, notes=notes,
                    all_metrics={k: {"value": v, "unit": u} for k, (v, u) in report.items()})
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints one table, writes --out."""
    results, status = {}, 0
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for name in WORKLOAD_NAMES:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size, "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0 or not out.is_file():
                status = 1
                continue
            results[name] = json.loads(out.read_text())
    with contextlib.suppress(OSError):
        tmp_root.rmdir()
    print(f"{'metric':40s} {'unit':8s} " + " ".join(f"{n:>14s}" for n in WORKLOAD_NAMES))
    names = []
    for res in results.values():
        names += [n for n in res["all_metrics"] if n not in names]
    for name in names:
        cells, unit = [], ""
        for w in WORKLOAD_NAMES:
            m = results.get(w, {}).get("all_metrics", {}).get(name)
            unit = m["unit"] if m else unit
            cells.append(f"{m['value']:14.6g}" if m else f"{'-':>14s}")
        print(f"{name:40s} {unit:8s} " + " ".join(cells))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True))
    summary = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()) or 1,
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long; jobs that would end later are not started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="job size; tiny is for the smoke test")
    p.add_argument("--out", help="also write the full result (provenance, every metric) here")
    args = p.parse_args(argv)
    _import_vitbench()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
