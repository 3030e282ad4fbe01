"""Dataset manifests, image decoding, augmentation, the train/val/test
split, deterministic batching, and synthetic dataset generation.

A manifest is a line-oriented UTF-8 text file: comment-style header lines
(``#classes: a,b,c`` is mandatory, ``#name:`` / ``#note:`` optional),
then one ``relative/path<TAB>label_id`` entry per line.  A label id is
ASCII decimal digits and a class name is non-empty.  No entry path
appears twice.  Entry paths are resolved relative to the manifest's
directory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyDatasetError,
    FormatError,
    RangeError,
    ValidationError,
    check_int,
    is_real,
)
from .tensor import tnsr_decode


@dataclass
class DatasetManifest:
    name: str
    class_names: list
    entries: list  # (relative path str, label id) pairs
    source_note: str = ""
    root: Path = field(default_factory=Path)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, rel_path: str) -> Path:
        return self.root / rel_path

    def labels(self) -> np.ndarray:
        return np.array([lab for _, lab in self.entries], dtype=np.int64)

    def validate(self) -> None:
        if not self.class_names:
            raise ValidationError("manifest has no class names")
        if len(set(self.class_names)) != len(self.class_names):
            raise ValidationError("class names are not unique")
        c = self.num_classes
        for path, lab in self.entries:
            if not 0 <= lab < c:
                raise ValidationError(f"entry {path!r} has label {lab} outside [0, {c})")
        missing = [p for p, _ in self.entries if not self.resolve(p).exists()]
        if missing:
            shown = ", ".join(missing[:10])
            raise ValidationError(f"{len(missing)} entry files missing, e.g.: {shown}")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    class_names = None
    name = path.stem
    note = ""
    entries = []
    lines_of: dict[str, int] = {}  # entry path -> the line that named it
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#classes:"):
            class_names = [c.strip() for c in line[len("#classes:"):].split(",")]
            if "" in class_names:
                raise FormatError(f"{path}:{lineno}: empty class name in {line!r}")
        elif line.startswith("#name:"):
            name = line[len("#name:"):].strip()
        elif line.startswith("#note:"):
            note = line[len("#note:"):].strip()
        elif line.startswith("#"):
            continue
        else:
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 'path<TAB>label'")
            # int() would also take "0_1", " +1 " and non-ASCII digits
            if not (parts[1].isascii() and parts[1].isdigit()):
                raise FormatError(f"{path}:{lineno}: label {parts[1]!r} is not a decimal integer")
            if parts[0] in lines_of:
                raise FormatError(f"{path}:{lineno}: entry path {parts[0]!r} repeats "
                                  f"line {lines_of[parts[0]]}")
            lines_of[parts[0]] = lineno
            entries.append((parts[0], int(parts[1])))
    if class_names is None:
        raise FormatError(f"{path}: missing '#classes:' header")
    manifest = DatasetManifest(
        name=name, class_names=class_names, entries=entries,
        source_note=note, root=path.parent,
    )
    manifest.validate()
    return manifest


def save_manifest(manifest: DatasetManifest, path) -> None:
    path = Path(path)
    lines = [f"#classes: {','.join(manifest.class_names)}"]
    lines.append(f"#name: {manifest.name}")
    if manifest.source_note:
        lines.append(f"#note: {manifest.source_note}")
    for rel, lab in manifest.entries:
        lines.append(f"{rel}\t{lab}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# image decode/encode


def _parse_pnm_header(data: bytes, magic: bytes):
    if data[:2] != magic:
        raise FormatError(f"bad magic {data[:2]!r}, expected {magic!r}")
    # header tokens may be separated by whitespace and '#' comments
    tokens = []
    i = 2
    while len(tokens) < 3:
        if i >= len(data):
            raise FormatError("truncated header")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            if not data[i:j].isdigit():
                raise FormatError(f"non-numeric header token {data[i:j]!r}")
            tokens.append(int(data[i:j]))
            i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if w == 0 or h == 0:
        raise FormatError(f"image has a zero extent: {w}x{h}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    return w, h, i


# binary PNM formats: magic and channel count
_PNM = {"ppm": (b"P6", 3), "pgm": (b"P5", 1)}


def decode_image(data: bytes, fmt: str, dtype=np.float64) -> np.ndarray:
    """Decode bytes to a channels x H x W image in [0, 1] of ``dtype``.
    A float32 decode holds the same bits as a float64 decode cast to
    float32."""
    if fmt in _PNM:
        magic, c = _PNM[fmt]
        w, h, off = _parse_pnm_header(data, magic)
        need = w * h * c
        raw = data[off:off + need]
        if len(raw) < need:
            raise FormatError(f"truncated {fmt.upper()} payload: {len(raw)} of {need} bytes")
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, c)
        # one correctly rounded divide; for every byte value its float32
        # result equals the float64 quotient rounded to float32
        return np.divide(arr.transpose(2, 0, 1), 255, dtype=dtype)
    if fmt == "tnsr":
        arr = tnsr_decode(data)
        if arr.ndim != 3:
            raise FormatError(f"TNSR image must be rank 3, got rank {arr.ndim}")
        if 0 in arr.shape:
            raise FormatError(f"TNSR image has a zero extent: {arr.shape}")
        if not np.isfinite(arr).all():
            raise RangeError("TNSR image holds non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise RangeError(
                f"TNSR image values outside [0,1]: min {arr.min()}, max {arr.max()}"
            )
        return arr.astype(dtype)
    raise FormatError(f"unknown image format {fmt!r}")


def encode_ppm(img: np.ndarray) -> bytes:
    c, h, w = img.shape
    if c != 3:
        raise FormatError(f"PPM needs 3 channels, got {c}")
    raw = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + raw.transpose(1, 2, 0).tobytes()


_EXT_FORMATS = {".ppm": "ppm", ".pgm": "pgm", ".tnsr": "tnsr"}


def load_image(path, dtype=np.float64) -> np.ndarray:
    path = Path(path)
    fmt = _EXT_FORMATS.get(path.suffix.lower())
    if fmt is None:
        raise FormatError(f"unsupported image extension {path.suffix!r}")
    return decode_image(path.read_bytes(), fmt, dtype)


# ---------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentConfig:
    crop_pad: int = 0           # zero-pad then random-crop back to size
    flip_p: float = 0.0         # probability of horizontal flip
    rotate: bool = False        # random quarter-turn rotation

    def __post_init__(self):
        check_int("AugmentConfig crop_pad", self.crop_pad, minimum=0)
        if not (is_real(self.flip_p) and 0.0 <= self.flip_p <= 1.0):
            raise ConfigurationError(
                f"AugmentConfig flip_p must be in [0, 1], got {self.flip_p!r}")
        if not isinstance(self.rotate, bool):
            raise ConfigurationError(f"AugmentConfig rotate must be a bool, got {self.rotate!r}")

    @property
    def enabled(self) -> bool:
        return self.crop_pad > 0 or self.flip_p > 0 or self.rotate


def horizontal_flip(img: np.ndarray) -> np.ndarray:
    return img[:, :, ::-1].copy()


def rotate_quarter(img: np.ndarray, turns: int) -> np.ndarray:
    return np.rot90(img, k=turns % 4, axes=(1, 2)).copy()


def _overlap(shift: int, n: int) -> tuple[slice, slice]:
    """``(dst, src)`` over ``[0, n)`` with ``dst[i]`` taking ``src[i + shift]``."""
    lo = min(n, max(0, -shift))
    hi = max(lo, min(n, n - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def random_crop(img: np.ndarray, pad: int, rng: np.random.Generator) -> np.ndarray:
    """``img`` zero-padded by ``pad`` on both image axes, then cropped back
    to its size at offsets ``dy``, ``dx`` drawn from [0, 2·pad] in that
    order; only the window's overlap with ``img`` is copied, no pad is built."""
    c, h, w = img.shape
    dy = int(rng.integers(0, 2 * pad + 1))
    dx = int(rng.integers(0, 2 * pad + 1))
    (y_out, y_in), (x_out, x_in) = _overlap(dy - pad, h), _overlap(dx - pad, w)
    out = np.zeros(img.shape, img.dtype)
    out[:, y_out, x_out] = img[:, y_in, x_in]
    return out


def augment(img: np.ndarray, ops: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply the enabled ops; shape-preserving and fully rng-determined."""
    out = img
    if ops.crop_pad > 0:
        out = random_crop(out, ops.crop_pad, rng)
    if ops.flip_p > 0 and rng.random() < ops.flip_p:
        out = horizontal_flip(out)
    if ops.rotate:
        out = rotate_quarter(out, int(rng.integers(0, 4)))
    return out


# ---------------------------------------------------------------------------
# splitting and batching


@dataclass
class SplitSpec:
    ratios: tuple = (0.8, 0.1, 0.1)
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        r = self.ratios
        # each ratio in [0, 1] also keeps the sum clear of overflow
        if not (isinstance(r, (tuple, list)) and len(r) == 3
                and all(is_real(x) and 0.0 <= x <= 1.0 for x in r)
                and abs(sum(r) - 1.0) <= 1e-9):
            raise ConfigurationError(
                f"split ratios {r!r} must be three reals in [0, 1] that sum to 1")
        check_int("SplitSpec seed", self.seed, minimum=0)
        if not isinstance(self.stratified, bool):
            raise ConfigurationError(
                f"SplitSpec stratified must be a bool, got {self.stratified!r}")


def _allocate(indices, ratios):
    """Floor-allocate val and test; remainders go to train."""
    n = len(indices)
    n_val = math.floor(n * ratios[1])
    n_test = math.floor(n * ratios[2])
    n_train = n - n_val - n_test
    return (
        indices[:n_train],
        indices[n_train:n_train + n_val],
        indices[n_train + n_val:],
    )


def split_dataset(manifest: DatasetManifest, spec: SplitSpec):
    """Deterministic (optionally stratified) split into train/val/test manifests."""
    rng = np.random.default_rng(spec.seed)
    n = len(manifest.entries)
    train_idx, val_idx, test_idx = [], [], []
    if spec.stratified:
        labels = manifest.labels()
        for cls in range(manifest.num_classes):
            cls_idx = np.flatnonzero(labels == cls)
            rng.shuffle(cls_idx)
            if 0 < len(cls_idx) < 3:
                warnings.warn(
                    f"class {cls} has only {len(cls_idx)} entries; "
                    "all assigned to train"
                )
                train_idx.extend(cls_idx.tolist())
                continue
            tr, va, te = _allocate(cls_idx.tolist(), spec.ratios)
            train_idx.extend(tr)
            val_idx.extend(va)
            test_idx.extend(te)
    else:
        order = np.arange(n)
        rng.shuffle(order)
        train_idx, val_idx, test_idx = _allocate(order.tolist(), spec.ratios)

    def make(split_name, idxs):
        idxs = sorted(idxs)
        return DatasetManifest(
            name=f"{manifest.name}-{split_name}",
            class_names=list(manifest.class_names),
            entries=[manifest.entries[i] for i in idxs],
            source_note=manifest.source_note,
            root=manifest.root,
        )

    return make("train", train_idx), make("val", val_idx), make("test", test_idx)


@dataclass
class Batch:
    images: np.ndarray  # B x channels x H x W
    labels: np.ndarray  # B class ids


class ImageCache:
    """Decoded images keyed by (path, dtype), each decoded once through
    :func:`load_image`.  A cached array is shared: :func:`make_batches`
    copies it into its batch array, and no caller may write to it."""

    def __init__(self):
        self._cache: dict[tuple[Path, np.dtype], np.ndarray] = {}

    def get(self, path: Path, dtype=np.float64) -> np.ndarray:
        key = (Path(path), np.dtype(dtype))
        if key not in self._cache:
            self._cache[key] = load_image(path, dtype)
        return self._cache[key]


def make_batches(
    manifest: DatasetManifest,
    batch_size: int,
    seed: int = 0,
    shuffle: bool = True,
    epoch: int = 0,
    cache: ImageCache | None = None,
    augment_cfg: AugmentConfig | None = None,
    dtype=np.float64,
) -> Iterator[Batch]:
    """Deterministic batches, decoded one batch at a time as they are
    iterated; the final partial batch is kept.

    ``batch_size`` and an empty manifest are checked here, when the call
    is made.  The returned generator then decodes each batch into one
    fresh (B, C, H, W) array of ``dtype``, so a pass holds one batch, not
    all of them.  Without a ``cache`` every image is decoded from disk.
    An image whose shape differs from its batch's first is a
    :class:`FormatError`, raised when that batch is reached."""
    check_int("batch_size", batch_size)
    if not manifest.entries:
        raise EmptyDatasetError(f"manifest {manifest.name!r} has no entries")
    load = cache.get if cache is not None else load_image
    order = np.arange(len(manifest.entries))
    rng = np.random.default_rng([seed, epoch])
    if shuffle:
        rng.shuffle(order)
    augmenting = augment_cfg is not None and augment_cfg.enabled

    def stream():
        for start in range(0, len(order), batch_size):
            idxs = order[start:start + batch_size]
            images = None
            for k, i in enumerate(idxs):
                path = manifest.resolve(manifest.entries[i][0])
                img = load(path, dtype)
                if augmenting:
                    img = augment(img, augment_cfg, rng)
                if images is None:
                    images = np.empty((len(idxs),) + img.shape, dtype)
                elif img.shape != images.shape[1:]:
                    raise FormatError(f"image {path} has shape {img.shape}, but its "
                                      f"batch started with shape {images.shape[1:]}")
                images[k] = img
            labels = np.array([manifest.entries[i][1] for i in idxs], dtype=np.int64)
            yield Batch(images, labels)

    return stream()


# ---------------------------------------------------------------------------
# synthetic datasets


def _class_image(
    cls: int,
    num_classes: int,
    size: int,
    rng: np.random.Generator,
    angle_offset: float = 0.0,
    noise: float = 0.15,
) -> np.ndarray:
    """Oriented sinusoidal stripes with a class-dependent angle, frequency
    and color tint, plus per-image jitter and pixel noise."""
    angle = angle_offset + math.pi * cls / num_classes
    freq = 2.0 + 1.5 * (cls % 3)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    yy, xx = np.mgrid[0:size, 0:size] / size
    wave = 0.5 + 0.5 * np.sin(
        2.0 * math.pi * freq * (xx * math.cos(angle) + yy * math.sin(angle)) + phase
    )
    tint_rng = np.random.default_rng(cls * 7919 + int(angle_offset * 1000))
    tint = 0.35 + 0.65 * tint_rng.random(3)
    img = wave[None, :, :] * tint[:, None, None]
    img = img + rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(
    out_dir,
    name: str,
    num_classes: int,
    per_class: int,
    image_size: int = 32,
    seed: int = 0,
    angle_offset: float = 0.0,
    noise: float = 0.15,
) -> Path:
    """Write a synthetic PPM dataset + manifest; byte-identical per seed.

    Returns the manifest path.  ``angle_offset`` shifts the whole class
    family so two generated datasets form disjoint tasks.  An
    ``image_size`` too large to allocate is a :class:`ConfigurationError`.
    """
    check_int("num_classes", num_classes)
    check_int("per_class", per_class)
    check_int("image_size", image_size)
    check_int("seed", seed, minimum=0)
    if not (is_real(noise) and 0.0 <= noise < math.inf):
        raise ConfigurationError(f"noise must be finite and >= 0, got {noise!r}")
    # the tint seed is int(angle_offset * 1000), so the product must be finite
    if not (is_real(angle_offset) and 0.0 <= angle_offset * 1000 < math.inf):
        raise ConfigurationError(
            f"angle_offset must be >= 0 and finite times 1000, got {angle_offset!r}")
    out_dir = Path(out_dir)
    rng = np.random.default_rng(seed)
    entries = []
    for cls in range(num_classes):
        for i in range(per_class):
            try:
                img = _class_image(cls, num_classes, image_size, rng,
                                   angle_offset=angle_offset, noise=noise)
            # numpy refuses an oversized array with MemoryError, or with
            # ValueError when its byte count passes the address range
            except (MemoryError, ValueError) as exc:
                raise ConfigurationError(
                    f"cannot allocate images of image_size {image_size}: {exc}") from exc
            if not entries:  # made only once an image could be drawn
                out_dir.mkdir(parents=True, exist_ok=True)
            rel = f"class{cls}_{i:04d}.ppm"
            (out_dir / rel).write_bytes(encode_ppm(img))
            entries.append((rel, cls))
    manifest = DatasetManifest(
        name=name,
        class_names=[f"class{c}" for c in range(num_classes)],
        entries=entries,
        source_note=f"synthetic stripes seed={seed} offset={angle_offset}",
        root=out_dir,
    )
    manifest_path = out_dir / f"{name}.manifest"
    save_manifest(manifest, manifest_path)
    return manifest_path
