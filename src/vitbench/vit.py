"""Vision transformer classifier: patch partition, embedding, encoder, head.

The forward path follows the classic recipe: split the image into square
patches, flatten and project them, prepend a class token, add learned
positional embeddings, run a stack of pre-norm transformer encoder blocks,
and read the class token through a linear head.  The model runs
batch-first: a B x C x H x W batch takes one pass, with the residual
stream as one B x T x D tensor whose weight projections are 2-D linear
ops over all B*T rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError, check_int, is_real
from .tensor import Model, Tensor


@dataclass
class ViTConfig:
    image_size: int = 32
    channels: int = 3
    patch_size: int = 8
    embed_dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    mlp_ratio: float = 2.0
    num_classes: int = 3
    dropout: float = 0.0
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("image_size", "channels", "patch_size", "embed_dim",
                     "num_heads", "num_classes"):
            check_int(f"ViT {name}", getattr(self, name))
        check_int("ViT num_layers", self.num_layers, minimum=0)
        if not (is_real(self.mlp_ratio) and 0.0 < self.mlp_ratio < math.inf):
            raise ConfigurationError(
                f"ViT mlp_ratio must be finite and > 0, got {self.mlp_ratio!r}")
        if not (is_real(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ConfigurationError(f"ViT dropout must be in [0, 1), got {self.dropout!r}")
        T.check_dtype("ViT", self.dtype)
        if self.image_size % self.patch_size:
            raise ConfigurationError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def seq_len(self) -> int:
        # class token at row 0
        return self.num_patches + 1

    @property
    def mlp_hidden(self) -> int:
        return round(self.mlp_ratio * self.embed_dim)

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    def to_dict(self) -> dict:
        return asdict(self)


def partition_and_flatten(image: np.ndarray, patch_size: int) -> np.ndarray:
    """(…, C, H, W) images -> (…, N, P*P*C) patch matrices, row-major over the grid.

    Leading dims pass through, so a B x C x H x W batch partitions in one
    reshape/transpose.  Within a patch the flattening order is (channel,
    row, col); the transform is lossless, see :func:`unpartition`.
    """
    *lead, c, h, w = image.shape
    p = patch_size
    if h % p or w % p:
        raise ConfigurationError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    n = len(lead)
    # (…, C, gh, p, gw, p) -> (…, gh, gw, C, p, p)
    patches = image.reshape(*lead, c, gh, p, gw, p).transpose(
        *range(n), n + 1, n + 3, n, n + 2, n + 4)
    return patches.reshape(*lead, gh * gw, c * p * p).copy()


def unpartition(patches: np.ndarray, patch_size: int, channels: int, h: int, w: int) -> np.ndarray:
    """Exact inverse of :func:`partition_and_flatten`."""
    p = patch_size
    gh, gw = h // p, w // p
    arr = patches.reshape(gh, gw, channels, p, p).transpose(2, 0, 3, 1, 4)
    return arr.reshape(channels, h, w).copy()


def embed_patches(patches: Tensor, w_proj: Tensor, bias: Tensor) -> Tensor:
    """Affine projection of flattened patches into the embedding dimension."""
    if patches.shape[1] != w_proj.shape[0]:
        raise DimensionError(
            f"patch width {patches.shape[1]} does not match projection rows {w_proj.shape[0]}"
        )
    return T.linear(patches, w_proj, bias)


def add_positional(embeddings: Tensor, cls_token: Tensor, pos_table: Tensor) -> Tensor:
    """Prepend the class token to each (…, N, D) sequence, then add the
    positional table elementwise."""
    *lead, n, d = embeddings.shape
    if pos_table.shape[0] != n + 1:
        raise ConfigurationError(
            f"positional table has {pos_table.shape[0]} rows, expected {n + 1}"
        )
    # adding the class token to zeros broadcasts it over the leading dims
    cls = T.add(Tensor(np.zeros((*lead, 1, d), embeddings.data.dtype)), cls_token)
    seq = T.concat([cls, embeddings], axis=-2)
    return T.add(seq, pos_table)


def multi_head_attention(x: Tensor, block: dict, num_heads: int, return_weights: bool = False):
    """Scaled dot-product attention over num_heads subspaces of width D/h.

    ``x`` is (…, T, D).  The q/k/v/o projections are :func:`tensor.linear`
    ops over all rows; q, k and v are reshaped heads-first to
    (…, h, T, D/h), and one :func:`tensor.attention` op per call computes
    the scores, the softmax and the weighted values of every head.  With
    ``return_weights`` the (…, T, T) attention weights of each head come
    back as a list of h tensors: views of the weights the attention op
    keeps for its backward, not recorded on the tape.
    """
    *lead, t, d = x.shape
    if d % num_heads:
        raise ConfigurationError(f"embed dim {d} not divisible by {num_heads} heads")
    h, dh = num_heads, d // num_heads
    n = len(lead)
    rows = T.reshape(x, (-1, d))

    # swaps the T and h axes, so it is its own inverse
    heads_first = (*range(n), n + 1, n, n + 2)

    def project(name: str) -> Tensor:
        y = T.linear(rows, block["attn.w" + name], block["attn.b" + name])
        return T.transpose(T.reshape(y, (*lead, t, h, dh)), heads_first)

    q, k, v = (project(name) for name in "qkv")
    heads, a = T.attention(q, k, v, 1.0 / np.sqrt(dh))
    heads = T.reshape(T.transpose(heads, heads_first), (-1, d))
    out = T.reshape(T.linear(heads, block["attn.wo"], block["attn.bo"]), x.shape)
    if return_weights:
        return out, [Tensor(a[(slice(None),) * n + (i,)]) for i in range(h)]
    return out


def _mlp(x: Tensor, block: dict) -> Tensor:
    """Two-layer GELU MLP on a (…, T, D) stream, as 2-D linear ops over all rows."""
    rows = T.reshape(x, (-1, x.shape[-1]))
    h = T.gelu(T.linear(rows, block["mlp.w1"], block["mlp.b1"]))
    return T.reshape(T.linear(h, block["mlp.w2"], block["mlp.b2"]), x.shape)


class ViTClassifier(Model):
    """Patch embedder + positional table + encoder blocks + linear head.

    Parameters live in ``self.params`` keyed by dotted names; the name set
    is a deterministic function of the config.  They are drawn in float64,
    then cast to ``config.dtype``, the dtype the model computes in.
    """

    kind = "vit"

    def __init__(self, config: ViTConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._drop_rng = np.random.default_rng(seed + 1)
        rng = np.random.default_rng(seed)
        d = config.embed_dim

        def normal(*shape):
            return Tensor(rng.normal(0.0, 0.02, size=shape).astype(config.dtype),
                          requires_grad=True)

        def zeros(*shape):
            return Tensor(np.zeros(shape, config.dtype), requires_grad=True)

        def ones(*shape):
            return Tensor(np.ones(shape, config.dtype), requires_grad=True)

        p = self.params
        p["patch_proj.w"] = normal(config.patch_dim, d)
        p["patch_proj.b"] = zeros(d)
        p["cls_token"] = zeros(d)
        p["pos_table"] = normal(config.seq_len, d)
        hidden = config.mlp_hidden
        for i in range(config.num_layers):
            pre = f"blocks.{i}."
            p[pre + "norm1.gamma"] = ones(d)
            p[pre + "norm1.beta"] = zeros(d)
            for nm in ("wq", "wk", "wv", "wo"):
                p[pre + "attn." + nm] = normal(d, d)
            for nm in ("bq", "bk", "bv", "bo"):
                p[pre + "attn." + nm] = zeros(d)
            p[pre + "norm2.gamma"] = ones(d)
            p[pre + "norm2.beta"] = zeros(d)
            p[pre + "mlp.w1"] = normal(d, hidden)
            p[pre + "mlp.b1"] = zeros(hidden)
            p[pre + "mlp.w2"] = normal(hidden, d)
            p[pre + "mlp.b2"] = zeros(d)
        p["final_norm.gamma"] = ones(d)
        p["final_norm.beta"] = zeros(d)
        p["head.w"] = normal(d, config.num_classes)
        p["head.b"] = zeros(config.num_classes)

    def block_params(self, i: int) -> dict:
        pre = f"blocks.{i}."
        return {k[len(pre):]: v for k, v in self.params.items() if k.startswith(pre)}

    def _blocks(self, seq: Tensor) -> Tensor:
        """The encoder blocks on a (…, T, D) stream, before the final norm."""
        x = seq
        for i in range(self.config.num_layers):
            blk = self.block_params(i)
            attn_in = T.layer_norm(x, blk["norm1.gamma"], blk["norm1.beta"])
            x = T.add(x, self._maybe_drop(multi_head_attention(attn_in, blk, self.config.num_heads)))
            mlp_in = T.layer_norm(x, blk["norm2.gamma"], blk["norm2.beta"])
            x = T.add(x, self._maybe_drop(_mlp(mlp_in, blk)))
        return x

    def _final_norm(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.params["final_norm.gamma"], self.params["final_norm.beta"])

    def _maybe_drop(self, x: Tensor) -> Tensor:
        if self.train_mode and self.config.dropout > 0.0:
            return T.dropout(x, self.config.dropout, self._drop_rng)
        return x

    def forward_batch(self, images: np.ndarray) -> Tensor:
        """B x C x H x W batch -> B x num_classes logits, in one batched pass."""
        cfg = self.config
        images = self.as_batch(images)
        patches = Tensor(partition_and_flatten(images, cfg.patch_size).reshape(-1, cfg.patch_dim))
        emb = embed_patches(patches, self.params["patch_proj.w"], self.params["patch_proj.b"])
        emb = T.reshape(emb, (len(images), cfg.num_patches, cfg.embed_dim))
        seq = add_positional(emb, self.params["cls_token"], self.params["pos_table"])
        # the final norm and the head read only the class-token rows
        x = self._blocks(seq)
        cls = self._final_norm(T.reshape(T.slice_axis(x, 1, 0, 1), (len(images), cfg.embed_dim)))
        return T.linear(cls, self.params["head.w"], self.params["head.b"])

    def forward_logits(self, image: np.ndarray) -> Tensor:
        """C x H x W image -> num_classes logits, through :meth:`forward_batch`."""
        return T.reshape(self.forward_batch(np.asarray(image)[None]),
                         (self.config.num_classes,))
