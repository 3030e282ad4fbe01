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
import itertools
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
    ``forward_batch(images, rng=None) -> logits``, which draws dropout from
    the generator ``rng`` when one is given.  Parameters named ``head.*``
    form the classification head; fine-tuning replaces them and keeps the
    backbone.
    """

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

    def add_param(self, name: str, values: np.ndarray) -> None:
        """Register ``values``, drawn in float64, as the trainable parameter
        ``name``, cast to ``config.dtype``."""
        self.params[name] = Tensor(values.astype(self.config.dtype), requires_grad=True)

    def block_params(self, prefix: str) -> dict:
        """The parameters named ``prefix + key``, keyed by ``key``."""
        return {k[len(prefix):]: v for k, v in self.params.items() if k.startswith(prefix)}

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


def backward(loss: Tensor, tape: Tape, grad: float = 1.0) -> None:
    """Reverse sweep over the tape, accumulating gradients additively.

    The sweep starts from ``grad``, the loss's own gradient: a part of a
    batch passes its share of the batch mean.  Each tape node is visited
    exactly once.  Intermediate gradients live in a scratch table and are
    dropped; only the tape's leaves (requires-grad inputs no entry
    produced) get gradient buffers, so running backward twice without
    zeroing doubles every gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    scratch: dict[int, np.ndarray] = {id(loss): np.full_like(loss.data, grad)}
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
    """``x @ w + b`` for a (…, D_in) ``x`` and a (D_out,) bias, as one op
    returning (…, D_out).

    The leading axes fold into the rows of one 2-D GEMM, and the bias is
    added in place into its fresh output: the same arithmetic, so the same
    bits, as ``add(matmul(x_rows, w), b)`` reshaped back.
    """
    if (x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise DimensionError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    rows = x.data.reshape(-1, w.shape[0])
    y = rows @ w.data
    y += b.data
    out = Tensor(y.reshape(*x.shape[:-1], w.shape[1]))

    def bw(g):
        g = g.reshape(y.shape)
        return [(x, (g @ w.data.T).reshape(x.shape) if x.requires_grad else None),
                (w, rows.T @ g if w.requires_grad else None),
                (b, g.sum(axis=0) if b.requires_grad else None)]

    return _finish(out, (x, w, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention on (…, T, D) inputs, as one op.

    Head ``i`` owns columns ``[i·d_h, (i+1)·d_h)`` of each input, split off
    as views, and computes ``softmax(q kᵀ · scale) v`` with ``scale = 1/√d_h``.
    Returns the (…, T, D) output and the (…, h, T, T) weights ``a`` the
    backward keeps: per head ``dv = aᵀ g``, ``ds = a·(da − Σ da·a)·scale``
    with ``da = g vᵀ``, then ``dq = ds k`` and ``dk = dsᵀ q``.
    """
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    *lead, t, d = q.shape
    check_int("attention num_heads", num_heads)
    if d % num_heads:
        raise ConfigurationError(f"embed dim {d} not divisible by {num_heads} heads")
    split = (*lead, t, num_heads, d // num_heads)

    def heads(x: np.ndarray) -> np.ndarray:  # (…, T, D) -> (…, h, T, d_h)
        return x.reshape(split).swapaxes(-2, -3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.swapaxes(-2, -3).reshape(q.shape)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scale = q.data.dtype.type(1 / math.sqrt(split[-1]))
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= scale
    a = _softmax(s, -1, out=s)
    out = Tensor(merge(np.matmul(a, vh)))

    def bw(g):
        g = heads(g)
        dq = dk = dv = None
        if v.requires_grad:
            dv = merge(np.matmul(a.swapaxes(-1, -2), g))
        if q.requires_grad or k.requires_grad:
            ds = _softmax_grad(a, np.matmul(g, vh.swapaxes(-1, -2)), -1)
            ds *= scale
            if q.requires_grad:
                dq = merge(np.matmul(ds, kh))
            if k.requires_grad:
                dk = merge(np.matmul(ds.swapaxes(-1, -2), qh))
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


def _int_pair(name: str, value, minimum: int) -> tuple:
    """``value``, an int or a pair of ints, as a pair; raise
    :class:`ConfigurationError` unless each is an int >= ``minimum``."""
    pair = value if isinstance(value, (tuple, list)) else (value, value)
    if len(pair) != 2:
        raise ConfigurationError(f"{name} must be an integer or a pair of integers, got {value!r}")
    for v in pair:
        check_int(name, v, minimum)
    return tuple(pair)


# conv2d works in blocks of whole images of about this many output pixels.
# Unblocked, a (65536 x 144) @ (144 x 16) float32 GEMM at 2 OpenBLAS threads
# grows the resident set by about 27 MB beyond its output (the library's
# packing buffers); at 1 thread by 0.3 MB, in 4,096-row blocks by about 2 MB
# at the same speed.
CONV_ROWS = 4096


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride=(1, 1), padding=(0, 0),
           groups: int = 1) -> Tensor:
    """Strided zero-padded cross-correlation (no kernel flip), with groups,
    plus a (Cout,) ``bias``; ``stride`` (each >= 1) and ``padding`` (each
    >= 0) are ints or pairs of ints, anything else a :class:`ConfigurationError`.

    The output is (B, Cout, Ho, Wo) stored channels-last (NHWC), so the next
    conv's NHWC view of it is free; ``x`` may come in any layout.  The padded
    input is gathered, per block of :data:`CONV_ROWS`, into columns
    (pixels, G, kh·kw·Cg) for one GEMM with the kernel as (G, kh·kw·Cg, Og),
    then dropped; the backward pads each block again for ``colsᵀ @ g``, and
    each stride phase of ``dx`` is one GEMM of ``g``, framed and gathered the
    same way, with the phase's taps flipped.  Depthwise convolution (Cg = Og = 1)
    is kh·kw broadcast multiply-adds over (B, Ho, Wo, C) on the padded input's
    stride phases, and its ``dk`` one ``einsum`` per tap.
    """
    stride = _int_pair("conv2d stride", stride, 1)
    padding = _int_pair("conv2d padding", padding, 0)
    check_int("conv2d groups", groups)
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    b, cin, h, w = x.shape
    cout, cg, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    if cin % groups or cout % groups:
        raise ConfigurationError(
            f"groups={groups} must divide Cin={cin} and Cout={cout}"
        )
    if cg != cin // groups:
        raise DimensionError(
            f"kernel channels {cg} do not match Cin/groups = {cin}//{groups}"
        )
    if bias.shape != (cout,):
        raise DimensionError(f"conv2d bias shape {bias.shape} is not (Cout,) = ({cout},)")
    hp, wp = h + 2 * ph, w + 2 * pw
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ConfigurationError(
            f"non-positive conv output extent {ho}x{wo} for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    og, kk = cout // groups, kh * kw * cg
    xn, x_frame = x.data.transpose(0, 2, 3, 1), (-ph, -pw, hp, wp)
    nb = max(1, CONV_ROWS // (ho * wo))
    blocks = [slice(i, min(i + nb, b)) for i in range(0, b, nb)]
    phases = [(a, c) for a in range(min(sh, kh)) for c in range(min(sw, kw))]

    def window(a: np.ndarray, i: int, j: int) -> np.ndarray:
        """Tap (i, j)'s (B, Ho, Wo, C) window of its stride phase ``a``."""
        return a[:, i // sh:i // sh + ho, j // sw:j // sw + wo]

    def rows(a: np.ndarray, n: int) -> np.ndarray:
        """The NHWC ``a`` as (G, pixels, n), for a batched GEMM per group."""
        return a.reshape(-1, groups, n).swapaxes(0, 1)

    def framed(a: np.ndarray, r0: int, c0: int, fh: int, fw: int) -> np.ndarray:
        """The NHWC ``a``'s (fh, fw) frame from row r0, column c0, zero outside ``a``."""
        if (r0, c0, fh, fw) == (0, 0, *a.shape[1:3]):
            return a
        out = np.empty((a.shape[0], fh, fw, a.shape[3]), a.dtype)
        a = a[:, max(r0, 0):max(r0 + fh, 0), max(c0, 0):max(c0 + fw, 0)]  # cropped
        (t, l), (n, m) = (max(-r0, 0), max(-c0, 0)), a.shape[1:3]
        out[:, :t] = out[:, t + n:] = out[:, t:t + n, :l] = out[:, t:t + n, l + m:] = 0
        out[:, t:t + n, l:l + m] = a
        return out

    def windows(a: np.ndarray, wh=kh, ww=kw, st=stride) -> np.ndarray:
        """The NHWC ``a``'s wh x ww windows at stride ``st``, (B, Ho, Wo, G, wh, ww, C/G)."""
        win = np.lib.stride_tricks.sliding_window_view(a, (wh, ww), (1, 2))[:, ::st[0], ::st[1]]
        return win.reshape(*win.shape[:3], groups, -1, wh, ww).transpose(0, 1, 2, 3, 5, 6, 4)

    y = np.empty((b, ho, wo, cout), np.result_type(x.data, kernel.data))
    depthwise = cg == og == 1
    xp = framed(xn, *x_frame)  # the forward's; no backward keeps it
    if depthwise:
        xq = {p: np.ascontiguousarray(xp[:, p[0]::sh, p[1]::sw]) for p in phases}
        # each tap's kernel row repeated to (kh, kw, Wo, C), so a multiply
        # runs on whole (Wo, C) rows instead of C values at a time
        k_taps = np.repeat(kernel.data.reshape(cout, kh, kw).transpose(1, 2, 0)[:, :, None], wo, 2)
        tmp = np.empty((nb, ho, wo, cout), y.dtype)
        for blk in blocks:
            yb, t = y[blk], tmp[:blk.stop - blk.start]
            np.multiply(window(xq[0, 0], 0, 0)[blk], k_taps[0, 0], out=yb)
            for i, j in np.ndindex(kh, kw):
                if i or j:
                    yb += np.multiply(window(xq[i % sh, j % sw], i, j)[blk], k_taps[i, j], out=t)
    else:
        # (G, kh·kw·Cg, Og), rows in the columns' (i, j, c) order
        k3 = kernel.data.reshape(groups, og, cg, kh, kw).transpose(0, 3, 4, 2, 1)
        k3 = np.ascontiguousarray(k3).reshape(groups, kk, og)
        win = windows(xp)
        # a block's columns (a copy, but for 1x1 at stride 1) live for its GEMM, taped or not
        for blk in blocks:
            np.matmul(rows(win[blk], kk), k3, out=rows(y[blk], og))
    # in place, the same bits as a broadcast add after; tiled to whole (Wo, Cout) rows
    y_rows = y.reshape(b * ho, wo * cout)
    y_rows += np.tile(bias.data, wo)
    out = Tensor(y.transpose(0, 3, 1, 2))

    def bw(g):
        # an input that needs no gradient (the images entering the first conv) gets none
        dx = dk = db = None
        gn = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
        if x.requires_grad and depthwise:
            dxp = np.zeros((b, hp, wp, cin), gn.dtype)
            part = np.empty((nb, ho, wo, cin), gn.dtype)
            dx = dxp[:, ph:ph + h, pw:pw + w].transpose(0, 3, 1, 2)  # a view, filled below
        elif x.requires_grad:
            # stride phase (i0::sh, j0::sw) of dx (zero if no tap reaches it) is g correlated
            # with its flipped taps (G, nu, nv, Og, Cg), from g's row (ph + i0) // sh + 1 - nu on
            dxn = (np.zeros if sh > kh or sw > kw else np.empty)((b, h, w, cin), gn.dtype)
            dx, k5 = dxn.transpose(0, 3, 1, 2), kernel.data.reshape(groups, og, cg, kh, kw)
            k_flip = {((a - ph) % sh, (c - pw) % sw): np.ascontiguousarray(
                k5[..., a::sh, c::sw][..., ::-1, ::-1].transpose(0, 3, 4, 1, 2))
                for a, c in phases if (a - ph) % sh < h and (c - pw) % sw < w}
        dks = []
        # blocks outermost, so a block's g stays in cache from its dk GEMM through its dx
        for blk in blocks:
            if kernel.requires_grad and not depthwise:
                dks.append(np.matmul(rows(windows(framed(xn[blk], *x_frame)), kk).swapaxes(1, 2),
                                     rows(gn[blk], og)))
            if x.requires_grad and depthwise:
                p = part[:blk.stop - blk.start]
                for a, c in phases:
                    for i, j in itertools.product(range(a, kh, sh), range(c, kw, sw)):
                        np.multiply(gn[blk], k_taps[i, j], out=p)
                        window(dxp[:, a::sh, c::sw], i, j)[blk] += p
            elif x.requires_grad:
                for (i0, j0), kf in k_flip.items():
                    d, (nu, nv) = dxn[blk, i0::sh, j0::sw], kf.shape[1:3]
                    fr = framed(gn[blk], (ph + i0) // sh + 1 - nu, (pw + j0) // sw + 1 - nv,
                                d.shape[1] + nu - 1, d.shape[2] + nv - 1)
                    d[...] = np.matmul(rows(windows(fr, nu, nv, (1, 1)), nu * nv * og),
                                       kf.reshape(groups, -1, cg)).swapaxes(0, 1).reshape(d.shape)
        if kernel.requires_grad and depthwise:
            dk = np.stack([np.einsum("bhwc,bhwc->c", gn, window(xq[i % sh, j % sw], i, j))
                           for i, j in np.ndindex(kh, kw)], axis=1).reshape(kernel.shape)
        elif kernel.requires_grad:
            dk = sum(dks).reshape(groups, kh, kw, cg, og).transpose(0, 4, 3, 1, 2)
            dk = dk.reshape(kernel.shape)
        if bias.requires_grad:
            db = _unbroadcast(g, (1, cout, 1, 1)).reshape(cout)
        return [(x, dx), (kernel, dk), (bias, db)]

    return _finish(out, (x, kernel, bias), bw)


def max_pool2d(x: Tensor, k: int = 2) -> Tensor:
    """k x k max pooling with stride k; extents must divide evenly.

    Works on the k*k strided taps ``x[:, :, i::k, j::k]``: the forward is a
    running ``np.maximum`` over them, and the backward writes each tap's
    share of the gradient into its own strided slice of ``dx``.  The output
    and ``dx`` keep the memory order of ``x`` (channels-last after a conv).
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
    y = x.data[slices[0]].copy(order="K")
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
        dx = np.empty_like(x.data, dtype=share.dtype)
        for s, m in zip(slices, masks):
            np.multiply(m, share, out=dx[s])
        return [(x, dx)]

    return _finish(out, (x,), bw)


def global_avg_pool(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C) spatial mean, as one op; the backward spreads
    the gradient over H x W in the memory order of ``x``."""
    if x.ndim != 4:
        raise DimensionError(f"global_avg_pool expects a 4-d input, got {x.shape}")
    scale = x.data.dtype.type(1.0 / (x.shape[2] * x.shape[3]))
    out = Tensor(x.data.sum(axis=(2, 3)) * scale)

    def bw(g):
        dx = np.empty_like(x.data, dtype=g.dtype)  # g's dtype: see max_pool2d
        dx[...] = (g * scale)[:, :, None, None]
        return [(x, dx)]

    return _finish(out, (x,), bw)


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
