"""Checkpoint container and OVCK binary format.

Layout: magic ``OVCK``, u16 LE version, u32 LE metadata length + UTF-8
JSON metadata (model kind, config, seed, epochs, source dataset, adam
hyperparameters), u32 LE parameter count, then per parameter a u16 LE
name length + name bytes + u32 LE blob length + TNSR blob.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .tensor import tnsr_decode, tnsr_encode

_MAGIC = b"OVCK"
_VERSION = 1


@dataclass
class Checkpoint:
    kind: str                      # "vit" or a cnn kind
    config: dict                   # model config as plain values
    params: dict                   # name -> np.ndarray
    metadata: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write an OVCK file atomically: a temp file beside ``path``, then a rename.

    A write that fails partway leaves an existing file at ``path`` as it
    was and removes the temp file.
    """
    path = Path(path)
    meta = dict(ckpt.metadata)
    meta["kind"] = ckpt.kind
    meta["config"] = ckpt.config
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<H", _VERSION))
            fh.write(struct.pack("<I", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(ckpt.params)))
            for name in sorted(ckpt.params):
                blob = tnsr_encode(ckpt.params[name])
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read an OVCK file.  Malformed content, or a parameter holding a
    non-finite value, raises :class:`FormatError`."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:4]!r}")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"truncated checkpoint: {len(data)} bytes, needs {off + n}")
        off += n
        return data[off - n:off]

    (version,) = struct.unpack("<H", take(2))
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(take(meta_len).decode("utf-8"))
        if not isinstance(meta, dict) or not {"kind", "config"} <= meta.keys():
            raise FormatError("checkpoint metadata lacks 'kind' or 'config'")
        (count,) = struct.unpack("<I", take(4))
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            (blob_len,) = struct.unpack("<I", take(4))
            params[name] = tnsr_decode(take(blob_len))
            if not np.isfinite(params[name]).all():
                raise FormatError(f"checkpoint parameter {name!r} holds non-finite values")
    # text that is not UTF-8, metadata that is not JSON, or JSON nested
    # deeper than the parser's recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"malformed checkpoint: {exc}") from exc
    if off != len(data):
        raise FormatError(f"{len(data) - off} bytes after the last checkpoint parameter")
    kind = meta.pop("kind")
    config = meta.pop("config")
    return Checkpoint(kind=kind, config=config, params=params, metadata=meta)


def snapshot_params(model) -> dict:
    """Copy a model's parameter values into plain arrays."""
    return {name: t.data.copy() for name, t in model.params.items()}


def checkpoint_of(model, metadata: dict) -> Checkpoint:
    """Package a model: its kind, its config as plain values and a copy of
    its parameters, with ``metadata``."""
    return Checkpoint(kind=model.kind, config=model.config.to_dict(),
                      params=snapshot_params(model), metadata=metadata)


def load_params_into(model, params: dict) -> None:
    """Load arrays into every parameter of a model.  The name sets must
    match exactly, and each array must have its parameter's shape; any
    mismatch is a :class:`ValidationError`."""
    expected = set(model.params)
    got = set(params)
    if expected != got:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValidationError(
            f"parameter name mismatch: missing {missing}, extra {extra}"
        )
    for name, dst in model.params.items():
        src = np.asarray(params[name])
        if src.shape != dst.data.shape:
            raise ValidationError(
                f"parameter {name!r}: checkpoint shape {src.shape} "
                f"vs model shape {dst.data.shape}"
            )
        dst.data = src.astype(dst.data.dtype).copy()
