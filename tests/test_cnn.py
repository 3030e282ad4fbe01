import numpy as np
import pytest

from vitbench import tensor as T
from vitbench.cnn import (
    CnnConfig,
    CnnModel,
    depthwise_separable,
    residual_block,
)
from vitbench.errors import ConfigurationError
from vitbench.tensor import Tensor

TINY = {"stage_widths": [4, 8], "blocks_per_stage": 1,
        "num_classes": 3, "image_size": 8, "channels": 3}


def conv_params(cout, cin, k):
    return cout * cin * k * k + cout


def expected_param_count(cfg: CnnConfig) -> int:
    """Closed-form layer-size accounting, independent of the builder."""
    widths = cfg.stage_widths
    nb = cfg.blocks_per_stage
    total = 0
    if cfg.kind == "vgg-mini":
        cin = cfg.channels
        for w in widths:
            for _ in range(nb):
                total += conv_params(w, cin, 3)
                cin = w
        spatial = cfg.image_size // (2 ** len(widths))
        total += widths[-1] * spatial * spatial * cfg.num_classes + cfg.num_classes
    elif cfg.kind == "resnet-mini":
        total += conv_params(widths[0], cfg.channels, 3)
        cin = widths[0]
        for w in widths:
            for j in range(nb):
                stride = 2 if j == 0 else 1
                total += conv_params(w, cin, 3) + conv_params(w, w, 3)
                if stride != 1 or cin != w:
                    total += conv_params(w, cin, 1)
                cin = w
        total += widths[-1] * cfg.num_classes + cfg.num_classes
    else:
        total += conv_params(widths[0], cfg.channels, 3)
        cin = widths[0]
        for w in widths:
            for _ in range(nb):
                total += conv_params(cin, 1, 3)  # depthwise: one 3x3 per channel
                total += conv_params(w, cin, 1)  # pointwise
                cin = w
        total += widths[-1] * cfg.num_classes + cfg.num_classes
    return total


class TestBuildModel:
    @pytest.mark.parametrize("kind", ["vgg-mini", "resnet-mini", "mobilenet-mini"])
    def test_forward_shape(self, kind):
        model = CnnModel(CnnConfig(kind=kind, num_classes=5))
        rng = np.random.default_rng(0)
        logits = model.forward_batch(rng.random((2, 3, 32, 32)))
        assert logits.shape == (2, 5)

    @pytest.mark.parametrize("kind", ["vgg-mini", "resnet-mini", "mobilenet-mini"])
    def test_parameter_count_matches_accounting(self, kind):
        cfg = CnnConfig(kind=kind)
        model = CnnModel(cfg)
        actual = sum(p.size for p in model.params.values())
        assert actual == expected_param_count(cfg)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="alexnet"):
            CnnConfig(kind="alexnet")

    def test_indivisible_image_size(self):
        with pytest.raises(ConfigurationError):
            CnnConfig(image_size=20, stage_widths=[8, 16, 32])

    @pytest.mark.parametrize("kind", ["vgg-mini", "resnet-mini", "mobilenet-mini"])
    def test_forward_deterministic(self, kind):
        model = CnnModel(CnnConfig(kind=kind), seed=1)
        rng = np.random.default_rng(1)
        x = rng.random((1, 3, 32, 32))
        a = model.forward_batch(x).data
        b = model.forward_batch(x).data
        assert np.array_equal(a, b)


def zero_res_params(cin, cout, proj):
    params = {
        "conv1.w": Tensor(np.zeros((cout, cin, 3, 3)), requires_grad=True),
        "conv1.b": Tensor(np.zeros(cout), requires_grad=True),
        "conv2.w": Tensor(np.zeros((cout, cout, 3, 3)), requires_grad=True),
        "conv2.b": Tensor(np.zeros(cout), requires_grad=True),
    }
    if proj:
        params["proj.w"] = Tensor(np.zeros((cout, cin, 1, 1)), requires_grad=True)
        params["proj.b"] = Tensor(np.zeros(cout), requires_grad=True)
    return params


class TestResidualBlock:
    def test_zero_branch_identity_shortcut(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 6, 6))
        y = residual_block(Tensor(x), zero_res_params(4, 4, proj=False), stride=1)
        assert np.array_equal(y.data, np.maximum(x, 0.0))

    def test_stride1_preserves_extents(self):
        rng = np.random.default_rng(3)
        params = zero_res_params(4, 4, proj=False)
        for p in params.values():
            p.data = rng.normal(0, 0.1, p.data.shape)
        y = residual_block(Tensor(rng.random((2, 4, 6, 6))), params, stride=1)
        assert y.shape == (2, 4, 6, 6)

    def test_strided_projection_shape(self):
        rng = np.random.default_rng(4)
        params = zero_res_params(4, 8, proj=True)
        for p in params.values():
            p.data = rng.normal(0, 0.1, p.data.shape)
        y = residual_block(Tensor(rng.random((1, 4, 6, 6))), params, stride=2)
        assert y.shape == (1, 8, 3, 3)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        params = zero_res_params(4, 4, proj=False)
        for p in params.values():
            p.data = rng.normal(0, 0.3, p.data.shape)
        x = rng.random((1, 4, 6, 6))
        w = rng.random((1, 4, 6, 6))

        def f():
            return T.tsum(T.mul(residual_block(Tensor(x), params, stride=1), Tensor(w)))

        err = T.finite_diff_gradcheck(f, params.values(), eps=1e-6,
                                      max_entries_per_param=8)
        assert err < 1e-3


def ds_params(cin, cout, rng=None):
    params = {
        "dw.w": Tensor(np.zeros((cin, 1, 3, 3)), requires_grad=True),
        "dw.b": Tensor(np.zeros(cin), requires_grad=True),
        "pw.w": Tensor(np.zeros((cout, cin, 1, 1)), requires_grad=True),
        "pw.b": Tensor(np.zeros(cout), requires_grad=True),
    }
    if rng is not None:
        for p in params.values():
            p.data = rng.normal(0, 0.3, p.data.shape)
    return params


class TestDepthwiseSeparable:
    def test_delta_kernel_identity(self):
        cin = 3
        params = ds_params(cin, cin)
        params["dw.w"].data[:, 0, 1, 1] = 1.0  # centered delta
        params["pw.w"].data[np.arange(cin), np.arange(cin), 0, 0] = 1.0
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, cin, 5, 5))
        y = depthwise_separable(Tensor(x), params, stride=1)
        assert np.allclose(y.data, np.maximum(x, 0.0))

    def test_pointwise_sets_output_channels(self):
        rng = np.random.default_rng(7)
        y = depthwise_separable(Tensor(rng.random((2, 4, 6, 6))), ds_params(4, 7, rng), stride=1)
        assert y.shape == (2, 7, 6, 6)

    def test_matches_grouped_conv_reference(self):
        rng = np.random.default_rng(8)
        cin, cout = 4, 6
        params = ds_params(cin, cout, rng)
        x = rng.random((2, cin, 6, 6))
        y = depthwise_separable(Tensor(x), params, stride=1)

        # reference straight from the tensor module
        dw = T.relu(T.conv2d(Tensor(x), params["dw.w"], params["dw.b"], padding=1, groups=cin))
        ref = T.relu(T.conv2d(dw, params["pw.w"], params["pw.b"]))
        assert np.max(np.abs(y.data - ref.data)) < 1e-10


class TestZeroWeightReduction:
    def test_resnet_zero_non_shortcut_reduces_to_relu_shortcut(self):
        model = CnnModel(CnnConfig(kind="resnet-mini", **{
            "stage_widths": [4, 8], "blocks_per_stage": 1,
            "num_classes": 3, "image_size": 8, "channels": 3}), seed=0)
        for name, p in model.params.items():
            if "conv1" in name or "conv2" in name:
                p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(9)
        x = rng.random((1, 3, 8, 8))
        h = T.relu(T.conv2d(Tensor(x), model.params["stem.w"], model.params["stem.b"],
                            padding=1))
        for s in range(2):
            blk = model.block_params(f"stages.{s}.0.")
            h = T.relu(T.conv2d(h, blk["proj.w"], blk["proj.b"], stride=2))
        feat = T.global_avg_pool(h)
        expected = T.add(T.matmul(feat, model.params["head.w"]), model.params["head.b"])
        assert np.allclose(model.forward_batch(x).data, expected.data)


class TestEndToEndGradcheck:
    @pytest.mark.parametrize("kind", ["vgg-mini", "resnet-mini", "mobilenet-mini"])
    def test_tiny_config(self, kind):
        model = CnnModel(CnnConfig(kind=kind, **TINY, dtype="float64"), seed=0)
        # gradcheck at a generic point: jitter away from exact-zero biases
        # so no relu preactivation sits on its kink
        jr = np.random.default_rng(100)
        for p in model.params.values():
            p.data = p.data + jr.normal(0, 0.01, p.data.shape)
        rng = np.random.default_rng(3)
        x = rng.random((1, 3, 8, 8))
        label = np.array([1])

        def f():
            return T.cross_entropy(model.forward_batch(x), label)

        err = T.finite_diff_gradcheck(f, model.params.values(), eps=1e-6,
                                      max_entries_per_param=6,
                                      rng=np.random.default_rng(0))
        assert err < 1e-3
