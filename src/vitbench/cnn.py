"""Desk-scale CNN baselines: plain conv stacks, residual blocks, and
depthwise-separable stacks (miniature vgg / resnet / mobilenet analogues).

No batch normalization anywhere: plain conv+relu keeps the models
mode-free and easy to gradient-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, check_int
from .tensor import Model, Tensor

CNN_KINDS = ("vgg-mini", "resnet-mini", "mobilenet-mini")


@dataclass
class CnnConfig:
    kind: str = "vgg-mini"
    stage_widths: list = field(default_factory=lambda: [16, 32, 64])
    blocks_per_stage: int = 2
    num_classes: int = 3
    image_size: int = 32
    channels: int = 3
    dtype: str = "float32"

    def __post_init__(self):
        if self.kind not in CNN_KINDS:
            raise ConfigurationError(
                f"unknown cnn kind {self.kind!r}; expected one of {CNN_KINDS}"
            )
        for name in ("blocks_per_stage", "num_classes", "image_size", "channels"):
            check_int(f"CNN {name}", getattr(self, name))
        if not isinstance(self.stage_widths, list) or not self.stage_widths:
            raise ConfigurationError(
                f"stage_widths must be a non-empty list, got {self.stage_widths!r}")
        for i, w in enumerate(self.stage_widths):
            check_int(f"stage_widths[{i}]", w)
        T.check_dtype("CNN", self.dtype)
        if self.image_size % (2 ** len(self.stage_widths)):
            raise ConfigurationError(
                f"image_size {self.image_size} not divisible by "
                f"2^{len(self.stage_widths)} for the stride schedule"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "stage_widths": list(self.stage_widths)}


def residual_block(x: Tensor, params: dict, stride: int = 1) -> Tensor:
    """relu(conv2(relu(conv1(x))) + shortcut(x)).

    The shortcut is the identity when shape is preserved, otherwise a
    strided 1x1 projection (params then carry "proj.w"/"proj.b").
    """
    h = T.relu(T.conv2d(x, params["conv1.w"], params["conv1.b"], stride=stride, padding=1))
    h = T.conv2d(h, params["conv2.w"], params["conv2.b"], padding=1)
    if "proj.w" in params:
        sc = T.conv2d(x, params["proj.w"], params["proj.b"], stride=stride)
    else:
        sc = x
    return T.relu(T.add(h, sc))


def depthwise_separable(x: Tensor, params: dict, stride: int = 1) -> Tensor:
    """relu(pointwise(relu(depthwise(x)))); depthwise groups = Cin."""
    cin = x.shape[1]
    h = T.relu(T.conv2d(x, params["dw.w"], params["dw.b"], stride=stride, padding=1, groups=cin))
    return T.relu(T.conv2d(h, params["pw.w"], params["pw.b"]))


class CnnModel(Model):
    """A built CNN with named parameters and a batched forward pass.

    Parameters are drawn in float64, then cast to ``config.dtype``, the
    dtype the model computes in.
    """

    def __init__(self, config: CnnConfig, seed: int = 0):
        self.config = config
        self.kind = config.kind
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)

        def conv(name, cout, cin, k=3):
            # He-scaled (fan-in = Cin*Kh*Kw): keeps relu preactivations well
            # away from the kink through deep stacks
            sigma = np.sqrt(2.0 / (cin * k * k))
            self.add_param(name + ".w", rng.normal(0.0, sigma, (cout, cin, k, k)))
            self.add_param(name + ".b", np.zeros(cout))

        widths = config.stage_widths
        vgg = config.kind == "vgg-mini"
        cin = config.channels
        if not vgg:
            conv("stem", widths[0], cin)
            cin = widths[0]
        for s, w in enumerate(widths):
            for j in range(config.blocks_per_stage):
                pre = f"stages.{s}.{j}"
                if vgg:
                    conv(pre, w, cin)
                elif config.kind == "resnet-mini":
                    conv(pre + ".conv1", w, cin)
                    conv(pre + ".conv2", w, w)
                    # the first block of a stage has stride 2, so it projects
                    if j == 0 or cin != w:
                        conv(pre + ".proj", w, cin, k=1)
                else:
                    conv(pre + ".dw", cin, 1)
                    conv(pre + ".pw", w, cin, k=1)
                cin = w
        # vgg-mini flattens its last feature map; the others pool it to a vector
        spatial = config.image_size // 2 ** len(widths) if vgg else 1
        head_in = widths[-1] * spatial * spatial
        self.add_param("head.w", rng.normal(0.0, 0.02, (head_in, config.num_classes)))
        self.add_param("head.b", np.zeros(config.num_classes))

    def forward_batch(self, images: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        """B x C x H x W batch -> logits; ``rng`` goes unread (no dropout)."""
        cfg = self.config
        p = self.params
        vgg = cfg.kind == "vgg-mini"
        x = Tensor(self.as_batch(images))
        if not vgg:
            x = T.relu(T.conv2d(x, p["stem.w"], p["stem.b"], padding=1))
        for s in range(len(cfg.stage_widths)):
            for j in range(cfg.blocks_per_stage):
                blk = self.block_params(f"stages.{s}.{j}.")
                stride = 2 if j == 0 else 1
                if vgg:
                    x = T.relu(T.conv2d(x, blk["w"], blk["b"], padding=1))
                elif cfg.kind == "resnet-mini":
                    x = residual_block(x, blk, stride=stride)
                else:
                    x = depthwise_separable(x, blk, stride=stride)
            if vgg:
                x = T.max_pool2d(x, 2)
        feat = T.reshape(x, (x.shape[0], -1)) if vgg else T.global_avg_pool(x)
        return T.linear(feat, p["head.w"], p["head.b"])
