"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays in row-major order.  Every differentiable operation
records itself on the currently active :class:`Tape`; calling
``backward(loss, tape)`` replays the records in reverse and accumulates
gradients additively into the participating tensors.

Forward operations never mutate their inputs.  When strict mode is enabled
(see :func:`set_strict`) every operation checks its output for NaN/Inf.

Precision follows the data: a tensor keeps float32 or float64 values as
given, every op computes in its inputs' dtype, and the constants an op
makes take its operand's dtype, so a float32 model stays float32 forward
and backward.
"""

from __future__ import annotations

import io
import math
import struct
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    FormatError,
    LabelError,
    check_int,
)

# the compute dtypes a model config may name
DTYPES = ("float32", "float64")

# tanh-approximation GELU constant sqrt(2/pi); documented so independent
# implementations agree bit-for-bit per dtype
GELU_C = 0.7978845608
GELU_A = 0.044715

_STRICT = False
_ACTIVE_TAPE: Optional["Tape"] = None


def check_dtype(owner: str, value) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` names one of
    :data:`DTYPES`."""
    if not isinstance(value, str) or value not in DTYPES:
        raise ConfigurationError(f"{owner} dtype must be one of {DTYPES}, got {value!r}")


def set_strict(flag: bool) -> None:
    """Enable/disable finiteness checking after every operation."""
    global _STRICT
    _STRICT = bool(flag)


class Tensor:
    """A dense n-dimensional array with optional gradient support."""

    __slots__ = ("data", "requires_grad", "_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        # float32/float64 keep their precision; ints, bools and Python
        # scalars become float64
        if data.dtype != np.float32 and data.dtype != np.float64:
            data = data.astype(np.float64)
        self.data = data
        self.requires_grad = requires_grad
        self._grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._grad

    def zero_grad(self) -> None:
        self._grad = np.zeros_like(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        # += would cast a float64 gradient into a float32 buffer unseen
        if g.dtype != self.data.dtype:
            raise ContractError(
                f"gradient dtype {g.dtype} does not match value dtype {self.data.dtype}"
            )
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad += g

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Model:
    """The protocol every classifier shares with training and transfer.

    A model has ``params`` (name -> Tensor), a ``kind``, a ``config`` with
    ``channels``, ``image_size``, ``dtype`` and ``to_dict()``,
    ``forward_batch(images) -> logits`` and a ``train_mode`` flag that
    ``train`` sets.  Parameters named ``head.*`` form the classification
    head; fine-tuning replaces them and keeps the backbone.
    """

    train_mode = False
    params: dict

    def as_batch(self, images) -> np.ndarray:
        """``images`` cast to ``config.dtype``; :class:`ConfigurationError`
        unless they are (B, channels, image_size, image_size)."""
        cfg = self.config
        images = np.asarray(images, cfg.dtype)
        if images.ndim != 4 or images.shape[1:] != (cfg.channels, cfg.image_size, cfg.image_size):
            raise ConfigurationError(
                f"image batch shape {images.shape} does not match config "
                f"(B, {cfg.channels}, {cfg.image_size}, {cfg.image_size})"
            )
        return images

    def head_names(self) -> list[str]:
        return [k for k in self.params if k.startswith("head.")]

    def backbone_names(self) -> list[str]:
        return [k for k in self.params if not k.startswith("head.")]


class _TapeEntry:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor], backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed operations, replayed in reverse by backward.

    Entries are appended in execution order, which is topological by
    construction.  A tape belongs to one training step at a time; use it as
    a context manager to make it the recording target.
    """

    def __init__(self):
        self._entries: list[_TapeEntry] = []
        # requires-grad inputs no entry produced, keyed by id, in first-use order
        self._leaves: dict[int, Tensor] = {}
        self._produced: set[int] = set()
        self._prev: Optional["Tape"] = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        self._prev = None
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn) -> None:
        for t in inputs:
            if t.requires_grad and id(t) not in self._produced:
                self._leaves[id(t)] = t
        self._produced.add(id(output))
        self._entries.append(_TapeEntry(output, inputs, backward_fn))


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep over the tape, accumulating gradients additively.

    Each tape node is visited exactly once.  Intermediate gradients live in
    a scratch table and are dropped; only the tape's leaves (requires-grad
    inputs no entry produced) get gradient buffers, so running backward
    twice without zeroing doubles every gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    scratch: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # every leaf ends up with a gradient buffer, even if the loss never
    # reaches it
    for t in tape._leaves.values():
        if t._grad is None:
            t.zero_grad()
    for entry in reversed(tape._entries):
        g_out = scratch.pop(id(entry.output), None)
        if g_out is None:
            continue
        for t, g in entry.backward_fn(g_out):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in scratch:
                scratch[key] = scratch[key] + g
            else:
                scratch[key] = g
    for key, t in tape._leaves.items():
        g = scratch.pop(key, None)
        if g is not None:
            t.accumulate_grad(g)


def _finish(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Common tail of every op: strict check + tape recording."""
    if _STRICT and not np.all(np.isfinite(out.data)):
        raise ContractError("non-finite value produced in strict mode")
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bw(g):
        return [(a, _unbroadcast(g, a.shape) if a.requires_grad else None),
                (b, _unbroadcast(g, b.shape) if b.requires_grad else None)]

    return _finish(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def bw(g):
        return [(a, _unbroadcast(g, a.shape) if a.requires_grad else None),
                (b, _unbroadcast(-g, b.shape) if b.requires_grad else None)]

    return _finish(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bw(g):
        # a constant operand (a dropout mask, a pooling scale) gets none
        return [(a, _unbroadcast(g * b.data, a.shape) if a.requires_grad else None),
                (b, _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)]

    return _finish(out, (a, b), bw)


def pow_scalar(a: Tensor, p: float) -> Tensor:
    out = Tensor(a.data ** p)

    def bw(g):
        return [(a, g * p * a.data ** (p - 1.0))]

    return _finish(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        return [(a, g.reshape(a.shape))]

    return _finish(out, (a,), bw)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute axes: output axis ``i`` is input axis ``axes[i]``."""
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose axes {tuple(axes)} do not permute shape {a.shape}")
    out = Tensor(a.data.transpose(axes))
    inverse = np.argsort(axes)

    def bw(g):
        return [(a, g.transpose(inverse))]

    return _finish(out, (a,), bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(a.data[idx].copy())

    def bw(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return [(a, full)]

    return _finish(out, (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def bw(g):
        grads = []
        offset = 0
        for p, n in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + n)
            grads.append((p, g[tuple(idx)]))
            offset += n
        return grads

    return _finish(out, tuple(parts), bw)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.stack([p.data for p in parts], axis=axis))

    def bw(g):
        slices = np.moveaxis(g, axis, 0)
        return [(p, slices[i].reshape(p.shape)) for i, p in enumerate(parts)]

    return _finish(out, tuple(parts), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.shape).copy())]
        g2 = g if keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(g2, a.shape).copy())]

    return _finish(out, (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.shape} x {b.shape}"
        )
    out = Tensor(a.data @ b.data)

    def bw(g):
        return [(a, g @ b.data.T if a.requires_grad else None),
                (b, a.data.T @ g if b.requires_grad else None)]

    return _finish(out, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for 2-D ``x`` and a bias ``b`` of one entry per column,
    as one op.

    The bias is added in place into the GEMM's fresh output, the same
    arithmetic as ``add(matmul(x, w), b)``, so the bits are the same.
    """
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise DimensionError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    def bw(g):
        return [(x, g @ w.data.T if x.requires_grad else None),
                (w, x.data.T @ g if w.requires_grad else None),
                (b, g.sum(axis=0) if b.requires_grad else None)]

    return _finish(out, (x, w, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention ``softmax(q kᵀ · scale) v`` as one op.

    ``q``, ``k`` and ``v`` are heads-first (…, T, d_h).  Returns the output
    tensor and the (…, T, T) attention weights ``a``, the array the
    backward keeps.  With ``s = q kᵀ · scale`` and output gradient ``g``
    the backward is ``dv = aᵀ g``, ``ds = a·(da − Σ da·a)·scale`` where
    ``da = g vᵀ``, then ``dq = ds k`` and ``dk = dsᵀ q``.
    """
    if q.ndim < 2 or k.shape != q.shape or v.shape[:-1] != k.shape[:-1]:
        raise DimensionError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    # a constant of the operands' dtype, as ``mul`` by a scalar tensor would use
    scale = q.data.dtype.type(scale)
    s = np.matmul(q.data, k.data.swapaxes(-1, -2))
    s *= scale
    a = _softmax(s, -1, out=s)
    out = Tensor(np.matmul(a, v.data))

    def bw(g):
        dq = dk = dv = None
        if v.requires_grad:
            dv = np.matmul(a.swapaxes(-1, -2), g)
        if q.requires_grad or k.requires_grad:
            ds = _softmax_grad(a, np.matmul(g, v.data.swapaxes(-1, -2)), -1)
            ds *= scale
            if q.requires_grad:
                dq = np.matmul(ds, k.data)
            if k.requires_grad:
                dk = np.matmul(ds.swapaxes(-1, -2), q.data)
        return [(q, dq), (k, dk), (v, dv)]

    return _finish(out, (q, k, v), bw), a


# ---------------------------------------------------------------------------
# activations and normalization


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def bw(g):
        return [(a, g * (a.data > 0.0))]

    return _finish(out, (a,), bw)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    # u = GELU_C * (x + GELU_A * x*x*x), then t = tanh(u), in one buffer;
    # x*x*x, not x ** 3: numpy's float power is an order of magnitude slower
    t = x * x
    t *= x
    t *= GELU_A
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    y = np.add(t, 1.0)
    y *= 0.5 * x
    out = Tensor(y)

    def bw(g):
        # d = 0.5 * (1 + t) + 0.5 * x * (1 - t*t) * du, with
        # du = GELU_C * (1 + 3 * GELU_A * x*x)
        du = x * x
        du *= 3.0 * GELU_A
        du += 1.0
        du *= GELU_C
        d = np.multiply(t, t)
        np.subtract(1.0, d, out=d)
        d *= 0.5 * x
        d *= du
        np.add(t, 1.0, out=du)
        du *= 0.5
        d += du
        return [(a, g * d)]

    return _finish(out, (a,), bw)


def _softmax(s: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax of ``s`` along ``axis``, written into ``out`` (may be ``s``)."""
    out = np.subtract(s, s.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax with output ``y`` and output gradient ``g``."""
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {a.shape}")
    y = _softmax(a.data, axis)
    out = Tensor(y)

    def bw(g):
        return [(a, _softmax_grad(y, g, axis))]

    return _finish(out, (a,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Standardize over the last axis, then affine gamma/beta.

    One fused op: with ``s = sqrt(var + LAYER_NORM_EPS)`` and
    ``xhat = (x - mean) / s`` the input gradient is
    ``(gx - mean(gx) - xhat * mean(gx * xhat)) / s`` where ``gx = g * gamma``.
    """
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise DimensionError(
            f"layer_norm: last extent {x.shape[-1]} vs gamma {gamma.shape} beta {beta.shape}"
        )
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    y = xc * xc
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat = np.multiply(xc, inv, out=xc)
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)

    def bw(g):
        gx = g * gamma.data
        t = gx * xhat
        m = t.mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= np.multiply(xhat, m, out=t)
        gx *= inv
        return [
            (x, gx),
            (gamma, _unbroadcast(np.multiply(g, xhat, out=t), gamma.shape)),
            (beta, _unbroadcast(g, beta.shape)),
        ]

    return _finish(out, (x, gamma, beta), bw)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return a
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(mask.astype(a.data.dtype, copy=False)))


# ---------------------------------------------------------------------------
# loss


def check_class_range(values, c: int, what: str = "label") -> None:
    """Raise :class:`LabelError` naming the first of ``values`` (a scalar or
    array of class indices) outside [0, c), and its index."""
    values = np.atleast_1d(values)
    bad = np.flatnonzero((values < 0) | (values >= c))
    if bad.size:
        i = int(bad[0])
        raise LabelError(f"{what} {values[i]} at index {i} outside [0, {c})")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], fused for stability."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"cross_entropy: logits {logits.shape} vs labels {labels.shape}"
        )
    n, c = logits.shape
    check_class_range(labels, c)
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    out = Tensor(np.mean(lse - z[np.arange(n), labels]))
    probs = np.exp(z - lse[:, None])

    def bw(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return [(logits, d * (float(g) / n))]

    return _finish(out, (logits,), bw)


# ---------------------------------------------------------------------------
# convolution and pooling


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Padded (B, C, Hp, Wp) -> contiguous patch columns (B, C, kh, kw, Ho, Wo)."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return np.ascontiguousarray(win[:, :, ::sh, ::sw].transpose(0, 1, 4, 5, 2, 3))


def _int_pair(name: str, value, minimum: int) -> tuple:
    """``value``, an int or a pair of ints, as a pair; raise
    :class:`ConfigurationError` unless each is an int >= ``minimum``."""
    pair = value if isinstance(value, (tuple, list)) else (value, value)
    if len(pair) != 2:
        raise ConfigurationError(f"{name} must be an integer or a pair of integers, got {value!r}")
    for v in pair:
        check_int(name, v, minimum)
    return tuple(pair)


def _conv2d_input_grad(g: np.ndarray, kernel: np.ndarray, x_shape, stride, padding,
                       groups: int) -> np.ndarray:
    """conv2d's ``dx`` from its output gradient ``g``, as per-tap GEMMs on
    wide rows, one stride phase of the padded input at a time.

    Tap (i, j) reaches only the phase ``dxp[:, :, a::sh, c::sw]`` with
    (a, c) = (i % sh, j % sw).  Laid out flat in rows of the phase width Wq,
    its contribution is one contiguous run of n = (Ho-1)*Wq + Wo elements per
    channel at offset (i//sh)*Wq + j//sw, so ``g`` padded with zero columns
    to width Wq ("wide rows") turns the tap into one GEMM and one add.  The
    zero columns carry the run across each row's end.  At stride 1 the one
    phase is ``dxp`` itself.
    """
    b, cin, h, w = x_shape
    cout, cg, kh, kw = kernel.shape
    _, _, ho, wo = g.shape
    (sh, sw), (ph, pw) = stride, padding
    og = cout // groups
    dxp = np.zeros((b, cin, h + 2 * ph, w + 2 * pw), g.dtype)
    # per tap, the (G, Og, Cg) kernel slice, contiguous so its transpose
    # goes to BLAS
    taps = np.ascontiguousarray(kernel.reshape(groups, og, cg, kh, kw).transpose(3, 4, 0, 1, 2))
    wide = {}  # phase width -> g on rows of that width, (B, G, Og, Ho*Wq)
    for a in range(min(sh, kh)):
        for c in range(min(sw, kw)):
            phase = dxp[:, :, a::sh, c::sw]
            hq, wq = phase.shape[2:]
            if wq not in wide:
                gw = g
                if wq != wo:
                    gw = np.zeros((b, cout, ho, wq), g.dtype)
                    gw[..., :wo] = g
                wide[wq] = gw.reshape(b, groups, og, ho * wq)
            gw = wide[wq]
            n = (ho - 1) * wq + wo
            if sh == sw == 1:
                acc = dxp.reshape(b, groups, cg, hq * wq)
            else:
                acc = np.zeros((b, groups, cg, hq * wq), g.dtype)
            prod = np.empty((b, groups, cg, n), g.dtype)
            for i in range(a, kh, sh):
                for j in range(c, kw, sw):
                    o = (i // sh) * wq + j // sw
                    np.matmul(taps[i, j].swapaxes(-1, -2), gw[..., :n], out=prod)
                    acc[..., o : o + n] += prod
            if sh > 1 or sw > 1:
                phase[...] = acc.reshape(b, cin, hq, wq)
    if ph or pw:
        return dxp[:, :, ph : ph + h, pw : pw + w]
    return dxp


def conv2d(
    x: Tensor,
    kernel: Tensor,
    stride=(1, 1),
    padding=(0, 0),
    groups: int = 1,
) -> Tensor:
    """Strided zero-padded cross-correlation (no kernel flip), with groups.

    ``stride`` (each >= 1) and ``padding`` (each >= 0) are ints or pairs of
    ints; anything else is a :class:`ConfigurationError`.  The forward and
    the kernel gradient are one batched GEMM each over the im2col columns:
    the columns are viewed as (B, G, Cg*kh*kw, Ho*Wo) and the kernel as
    (G, Og, Cg*kh*kw), so plain, grouped and depthwise convolution share
    the code.  The input gradient is per-tap GEMMs on wide rows, one stride
    phase at a time (see :func:`_conv2d_input_grad`), with no column buffer.
    """
    stride = _int_pair("conv2d stride", stride, 1)
    padding = _int_pair("conv2d padding", padding, 0)
    check_int("conv2d groups", groups)
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    b, cin, h, w = x.shape
    cout, ck, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    if cin % groups or cout % groups:
        raise ConfigurationError(
            f"groups={groups} must divide Cin={cin} and Cout={cout}"
        )
    if ck != cin // groups:
        raise DimensionError(
            f"kernel channels {ck} do not match Cin/groups = {cin}//{groups}"
        )
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ConfigurationError(
            f"non-positive conv output extent {ho}x{wo} for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x.data
    cols = _im2col(xp, kh, kw, sh, sw)
    c4 = cols.reshape(b, groups, ck * kh * kw, ho * wo)
    k3 = kernel.data.reshape(groups, cout // groups, ck * kh * kw)
    # (B, G, Og, Ho*Wo) is already NCHW once G and Og merge
    out = Tensor(np.matmul(k3, c4).reshape(b, cout, ho, wo))

    def bw(g):
        # backward drops gradients of inputs that need none (the images
        # entering the first conv), so they are not computed
        dx = dk = None
        if x.requires_grad:
            dx = _conv2d_input_grad(g, kernel.data, x.shape, stride, padding, groups)
        if kernel.requires_grad:
            g4 = g.reshape(b, groups, cout // groups, ho * wo)
            dk = np.matmul(g4, c4.swapaxes(-1, -2)).sum(axis=0).reshape(kernel.shape)
        return [(x, dx), (kernel, dk)]

    return _finish(out, (x, kernel), bw)


def max_pool2d(x: Tensor, k: int = 2) -> Tensor:
    """k x k max pooling with stride k; extents must divide evenly.

    Works on the k*k strided taps ``x[:, :, i::k, j::k]``: the forward is a
    running ``np.maximum`` over them, and the backward writes each tap's
    share of the gradient into its own strided slice of ``dx``.
    """
    if x.ndim != 4:
        raise DimensionError(f"max_pool2d expects a 4-d input, got {x.shape}")
    if k < 1:
        raise ConfigurationError(f"max_pool2d: window {k} must be >= 1")
    h, w = x.shape[2:]
    if h % k or w % k:
        raise ConfigurationError(f"max_pool2d: extents {h}x{w} not divisible by {k}")
    slices = [(slice(None), slice(None), slice(i, None, k), slice(j, None, k))
              for i in range(k) for j in range(k)]
    y = x.data[slices[0]].copy()
    for s in slices[1:]:
        np.maximum(y, x.data[s], out=y)
    out = Tensor(y)

    def bw(g):
        masks = [x.data[s] == y for s in slices]
        # split the gradient among ties so the sum is preserved
        count = masks[0].astype(g.dtype)
        for m in masks[1:]:
            count += m
        share = g / count
        # the taps tile x, so every element of dx is written exactly once;
        # share's dtype, so an upcast reaches accumulate_grad's check
        dx = np.empty(x.shape, share.dtype)
        for s, m in zip(slices, masks):
            np.multiply(m, share, out=dx[s])
        return [(x, dx)]

    return _finish(out, (x,), bw)


def global_avg_pool(x: Tensor) -> Tensor:
    """B x C x H x W -> B x C spatial mean."""
    b, c, h, w = x.shape
    return mul(tsum(tsum(x, axis=3), axis=2), Tensor(np.array(1.0 / (h * w), x.data.dtype)))


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_gradcheck(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
    max_entries_per_param: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must be a deterministic zero-argument closure over ``params``
    (tensors, or a dict of named tensors) returning a scalar Tensor.  When
    ``max_entries_per_param`` is given, that many entries per parameter (at
    least one) are sampled (seeded via ``rng``) instead of sweeping every
    entry.  Every parameter must be float64: float32 rounding swamps a
    central difference.
    """
    if not 0.0 < eps <= 1e-2:
        raise ConfigurationError(f"eps {eps} outside (0, 1e-2]")
    if max_entries_per_param is not None:
        check_int("gradcheck entries per parameter", max_entries_per_param)
    named = dict(params) if isinstance(params, dict) else dict(enumerate(params))
    for name, p in named.items():
        if p.data.dtype != np.float64:
            raise ContractError(
                f"gradcheck parameter {name!r} is {p.data.dtype}; it needs float64")
    params = list(named.values())
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    if rng is None:
        rng = np.random.default_rng(0)
    max_err = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idxs = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            idxs = range(n)
        an_flat = an.reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            num = (hi - lo) / (2.0 * eps)
            denom = max(abs(num), abs(an_flat[i]), 1e-8)
            max_err = max(max_err, abs(num - an_flat[i]) / denom)
    return max_err


# ---------------------------------------------------------------------------
# TNSR serialization

_TNSR_MAGIC = b"TNSR"
# dtype code -> on-disk scalar type
_TNSR_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def tnsr_encode(arr: np.ndarray) -> bytes:
    """Serialize an array: magic, version, dtype code, rank, u64 extents, scalars."""
    arr = np.asarray(arr)
    code = 1 if arr.dtype == np.float32 else 2
    buf = io.BytesIO()
    buf.write(_TNSR_MAGIC)
    buf.write(struct.pack("<BBB", 1, code, arr.ndim))
    for ext in arr.shape:
        buf.write(struct.pack("<Q", ext))
    buf.write(arr.astype(_TNSR_DTYPES[code]).tobytes(order="C"))
    return buf.getvalue()


def tnsr_decode(data: bytes) -> np.ndarray:
    if len(data) < 7 or data[:4] != _TNSR_MAGIC:
        raise FormatError("bad TNSR magic")
    version, code, rank = struct.unpack("<BBB", data[4:7])
    if version != 1:
        raise FormatError(f"unsupported TNSR version {version}")
    dtype = _TNSR_DTYPES.get(code)
    if dtype is None:
        raise FormatError(f"unknown TNSR dtype code {code}")
    off = 7
    if len(data) < off + 8 * rank:
        raise FormatError("truncated TNSR header")
    shape = struct.unpack(f"<{rank}Q", data[off : off + 8 * rank]) if rank else ()
    off += 8 * rank
    # math.prod on Python ints cannot wrap the way an int64 product can
    count = math.prod(shape)
    if len(data) != off + count * dtype.itemsize:
        raise FormatError(
            f"TNSR payload length {len(data) - off} does not match shape {shape}"
        )
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=off)
    try:
        # an empty payload still fails here on extents numpy cannot hold
        # (over 2^63, a product over its size limit, or too many axes)
        arr = arr.reshape(shape)
    except ValueError as exc:
        raise FormatError(f"TNSR shape {shape} is not representable: {exc}") from exc
    # a writable copy in native byte order
    return arr.astype(dtype.newbyteorder("="))
