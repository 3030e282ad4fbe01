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


def _conv(x: Tensor, w: Tensor, b: Tensor, stride=1, padding=1, groups=1) -> Tensor:
    y = T.conv2d(x, w, stride=stride, padding=padding, groups=groups)
    return T.add(y, T.reshape(b, (1, b.shape[0], 1, 1)))


def residual_block(x: Tensor, params: dict, stride: int = 1) -> Tensor:
    """relu(conv2(relu(conv1(x))) + shortcut(x)).

    The shortcut is the identity when shape is preserved, otherwise a
    strided 1x1 projection (params then carry "proj.w"/"proj.b").
    """
    h = T.relu(_conv(x, params["conv1.w"], params["conv1.b"], stride=stride, padding=1))
    h = _conv(h, params["conv2.w"], params["conv2.b"], stride=1, padding=1)
    if "proj.w" in params:
        sc = _conv(x, params["proj.w"], params["proj.b"], stride=stride, padding=0)
    else:
        sc = x
    return T.relu(T.add(h, sc))


def depthwise_separable(x: Tensor, params: dict, stride: int = 1) -> Tensor:
    """relu(pointwise(relu(depthwise(x)))); depthwise groups = Cin."""
    cin = x.shape[1]
    h = T.relu(
        _conv(x, params["dw.w"], params["dw.b"], stride=stride, padding=1, groups=cin)
    )
    return T.relu(_conv(h, params["pw.w"], params["pw.b"], stride=1, padding=0))


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

        def normal(*shape):
            # He-scaled for conv kernels (fan-in = Cin*Kh*Kw), small-normal
            # for the linear head; keeps relu preactivations well away from
            # the kink through deep stacks
            if len(shape) == 4:
                fan_in = shape[1] * shape[2] * shape[3]
                sigma = np.sqrt(2.0 / fan_in)
            else:
                sigma = 0.02
            return Tensor(rng.normal(0.0, sigma, size=shape).astype(config.dtype),
                          requires_grad=True)

        def zeros(*shape):
            return Tensor(np.zeros(shape, config.dtype), requires_grad=True)

        p = self.params

        def conv(name, cout, cin, k=3):
            p[name + ".w"] = normal(cout, cin, k, k)
            p[name + ".b"] = zeros(cout)

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
        p["head.w"] = normal(widths[-1] * spatial * spatial, config.num_classes)
        p["head.b"] = zeros(config.num_classes)

    def block_params(self, stage: int, j: int) -> dict:
        pre = f"stages.{stage}.{j}."
        return {k[len(pre):]: v for k, v in self.params.items() if k.startswith(pre)}

    def forward_batch(self, images: np.ndarray) -> Tensor:
        cfg = self.config
        p = self.params
        vgg = cfg.kind == "vgg-mini"
        x = Tensor(self.as_batch(images))
        if not vgg:
            x = T.relu(_conv(x, p["stem.w"], p["stem.b"]))
        for s in range(len(cfg.stage_widths)):
            for j in range(cfg.blocks_per_stage):
                blk = self.block_params(s, j)
                stride = 2 if j == 0 else 1
                if vgg:
                    x = T.relu(_conv(x, blk["w"], blk["b"]))
                elif cfg.kind == "resnet-mini":
                    x = residual_block(x, blk, stride=stride)
                else:
                    x = depthwise_separable(x, blk, stride=stride)
            if vgg:
                x = T.max_pool2d(x, 2)
        feat = T.reshape(x, (x.shape[0], -1)) if vgg else T.global_avg_pool(x)
        return T.linear(feat, p["head.w"], p["head.b"])
