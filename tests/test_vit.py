import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitbench import tensor as T
from vitbench.errors import ConfigurationError
from vitbench.tensor import Tensor
from vitbench.vit import (
    ViTClassifier,
    ViTConfig,
    add_positional,
    embed_patches,
    multi_head_attention,
    partition_and_flatten,
    unpartition,
)


def desk_model(num_classes=3, seed=0, **overrides):
    return ViTClassifier(ViTConfig(num_classes=num_classes, **overrides), seed=seed)


def naive_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, h):
    """Reference MHA: explicit loops over heads and tokens, O(T^2) scores."""
    t, d = x.shape
    dh = d // h
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    concat = np.zeros((t, d))
    for i in range(h):
        qi, ki, vi = (m[:, i * dh:(i + 1) * dh] for m in (q, k, v))
        for a_row in range(t):
            scores = np.array([qi[a_row] @ ki[b_row] for b_row in range(t)]) / np.sqrt(dh)
            e = np.exp(scores - scores.max())
            weights = e / e.sum()
            concat[a_row, i * dh:(i + 1) * dh] = weights @ vi
    return concat @ wo + bo


class TestPartition:
    def test_small_round_trip(self):
        img = np.arange(16, dtype=float).reshape(1, 4, 4)
        patches = partition_and_flatten(img, 2)
        assert patches.shape == (4, 4)
        back = unpartition(patches, 2, 1, 4, 4)
        assert np.array_equal(back, img)

    def test_flatten_order_channel_row_col(self):
        img = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
        patches = partition_and_flatten(img, 2)
        # single patch: all of channel 0 rows, then channel 1 rows
        assert np.array_equal(patches[0], img.reshape(-1))

    def test_lung_colon_image_size(self):
        img = np.zeros((3, 768, 768))
        patches = partition_and_flatten(img, 64)
        assert patches.shape == (144, 12288)

    def test_degenerate_single_patch(self):
        rng = np.random.default_rng(0)
        img = rng.random((3, 8, 8))
        patches = partition_and_flatten(img, 8)
        assert patches.shape == (1, 192)
        assert np.array_equal(patches[0], img.reshape(-1))

    def test_indivisible_extent(self):
        with pytest.raises(ConfigurationError, match="5x5"):
            partition_and_flatten(np.zeros((1, 5, 5)), 2)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from([2, 3, 4, 6]),
           st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_round_trip_randomized(self, channels, p, grid, seed):
        rng = np.random.default_rng(seed)
        h = w = p * grid
        img = rng.random((channels, h, w))
        back = unpartition(partition_and_flatten(img, p), p, channels, h, w)
        assert np.array_equal(back, img)


class TestEmbedding:
    def test_identity_projection(self):
        rng = np.random.default_rng(1)
        patches = Tensor(rng.random((4, 6)))
        out = embed_patches(patches, Tensor(np.eye(6)), Tensor(np.zeros(6)))
        assert np.allclose(out.data, patches.data)

    def test_zero_projection_gives_bias(self):
        rng = np.random.default_rng(2)
        patches = Tensor(rng.random((4, 6)))
        bias = rng.random(5)
        out = embed_patches(patches, Tensor(np.zeros((6, 5))), Tensor(bias))
        assert np.allclose(out.data, np.tile(bias, (4, 1)))

    def test_matches_matmul_reference(self):
        rng = np.random.default_rng(3)
        patches = rng.random((7, 12))
        w = rng.normal(size=(12, 8))
        b = rng.normal(size=8)
        out = embed_patches(Tensor(patches), Tensor(w), Tensor(b))
        ref = T.add(T.matmul(Tensor(patches), Tensor(w)), Tensor(b))
        assert np.array_equal(out.data, ref.data)


class TestPositional:
    def test_zero_table(self):
        rng = np.random.default_rng(4)
        emb = rng.random((4, 6))
        cls = rng.random(6)
        out = add_positional(Tensor(emb), Tensor(cls), Tensor(np.zeros((5, 6))))
        assert np.array_equal(out.data[0], cls)
        assert np.array_equal(out.data[1:], emb)

    def test_row0_is_cls_plus_pos0(self):
        rng = np.random.default_rng(5)
        emb = rng.random((4, 6))
        cls = rng.random(6)
        pos = rng.random((5, 6))
        out = add_positional(Tensor(emb), Tensor(cls), Tensor(pos))
        assert np.allclose(out.data[0], cls + pos[0])

    def test_breaks_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        emb = rng.random((4, 6))
        pos = rng.random((5, 6))
        cls = rng.random(6)
        swapped = emb.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        a = add_positional(Tensor(emb), Tensor(cls), Tensor(pos))
        b = add_positional(Tensor(swapped), Tensor(cls), Tensor(pos))
        assert not np.allclose(a.data, b.data)

    def test_patch_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            add_positional(Tensor(np.zeros((4, 6))), Tensor(np.zeros(6)),
                           Tensor(np.zeros((4, 6))))


def random_block(rng, d):
    blk = {}
    for nm in ("wq", "wk", "wv", "wo"):
        blk[f"attn.{nm}"] = Tensor(rng.normal(size=(d, d)))
    for nm in ("bq", "bk", "bv", "bo"):
        blk[f"attn.{nm}"] = Tensor(rng.normal(size=d))
    return blk


class TestMultiHeadAttention:
    def test_single_token_closed_form(self):
        rng = np.random.default_rng(7)
        d = 4
        blk = random_block(rng, d)
        x = Tensor(rng.normal(size=(1, d)))
        out, weights = multi_head_attention(x, blk, 2, return_weights=True)
        for a in weights:
            assert np.allclose(a.data, [[1.0]])
        v = x.data @ blk["attn.wv"].data + blk["attn.bv"].data
        expected = v @ blk["attn.wo"].data + blk["attn.bo"].data
        assert np.allclose(out.data, expected)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(8)
        d = 8
        blk = random_block(rng, d)
        row = rng.normal(size=d)
        x = Tensor(np.tile(row, (5, 1)))
        out = multi_head_attention(x, blk, 4)
        assert np.allclose(out.data, np.tile(out.data[0], (5, 1)))

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(9)
        d, t, h = 4, 3, 2
        blk = random_block(rng, d)
        x = rng.normal(size=(t, d))
        out = multi_head_attention(Tensor(x), blk, h)
        ref = naive_attention(
            x,
            blk["attn.wq"].data, blk["attn.bq"].data,
            blk["attn.wk"].data, blk["attn.bk"].data,
            blk["attn.wv"].data, blk["attn.bv"].data,
            blk["attn.wo"].data, blk["attn.bo"].data,
            h,
        )
        assert np.max(np.abs(out.data - ref)) < 1e-10

    def test_row_stochastic_weights(self):
        rng = np.random.default_rng(10)
        d = 8
        blk = random_block(rng, d)
        x = Tensor(rng.normal(size=(6, d)))
        _, weights = multi_head_attention(x, blk, 2, return_weights=True)
        for a in weights:
            assert np.all(np.abs(a.data.sum(axis=1) - 1.0) < 1e-6)

    def test_weights_are_views_of_one_array(self):
        rng = np.random.default_rng(12)
        blk = random_block(rng, 8)
        x = Tensor(rng.normal(size=(3, 5, 8)))
        _, weights = multi_head_attention(x, blk, 4, return_weights=True)
        base = weights[0].data.base
        assert base is not None and base.shape == (3, 4, 5, 5)
        assert all(w.shape == (3, 5, 5) and w.data.base is base for w in weights)

    def test_one_linear_per_projection_and_one_attention_core(self):
        rng = np.random.default_rng(13)
        blk = {k: Tensor(v.data, requires_grad=True) for k, v in random_block(rng, 8).items()}
        with T.Tape() as tape:
            multi_head_attention(Tensor(rng.normal(size=(2, 5, 8))), blk, 2)
        ops = [e.backward_fn.__qualname__.split(".")[0] for e in tape._entries]
        assert ops.count("linear") == 4 and ops.count("attention") == 1
        assert not {"matmul", "add", "mul", "softmax"} & set(ops)

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        blk = {k: Tensor(v.data, requires_grad=True) for k, v in random_block(rng, 8).items()}
        x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        w = rng.random((2, 5, 8))
        # the key bias shifts every score of a row alike, which the softmax
        # ignores: its true gradient is zero, so no relative error is defined
        bk = blk.pop("attn.bk")
        err = T.finite_diff_gradcheck(
            lambda: T.tsum(T.mul(multi_head_attention(x, {**blk, "attn.bk": bk}, 2),
                                 Tensor(w))),
            {"x": x, **blk})
        assert err < 1e-3
        assert np.max(np.abs(bk.grad)) < 1e-12

    def test_indivisible_heads(self):
        rng = np.random.default_rng(11)
        blk = random_block(rng, 6)
        with pytest.raises(ConfigurationError):
            multi_head_attention(Tensor(rng.normal(size=(2, 6))), blk, 4)


class TestEncoder:
    def test_zero_weights_reduce_to_final_norm(self):
        model = desk_model()
        for name, p in model.params.items():
            if "attn" in name or "mlp" in name:
                p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(12)
        seq = rng.normal(size=(model.config.seq_len, model.config.embed_dim))
        out = model._final_norm(model._blocks(Tensor(seq)))
        expected = T.layer_norm(
            Tensor(seq), model.params["final_norm.gamma"], model.params["final_norm.beta"]
        )
        assert np.allclose(out.data, expected.data)

    def test_empty_stack(self):
        model = desk_model(num_layers=0)
        rng = np.random.default_rng(13)
        seq = rng.normal(size=(model.config.seq_len, model.config.embed_dim))
        out = model._final_norm(model._blocks(Tensor(seq)))
        expected = T.layer_norm(
            Tensor(seq), model.params["final_norm.gamma"], model.params["final_norm.beta"]
        )
        assert np.allclose(out.data, expected.data)

    def test_shape_preservation(self):
        for layers in (1, 2, 3):
            model = desk_model(num_layers=layers, seed=layers)
            rng = np.random.default_rng(layers)
            seq = rng.normal(size=(model.config.seq_len, model.config.embed_dim))
            out = model._final_norm(model._blocks(Tensor(seq)))
            assert out.shape == seq.shape

    def test_permutation_equivariance_without_positions(self):
        model = desk_model(seed=3)
        model.params["pos_table"].data = np.zeros_like(model.params["pos_table"].data)
        rng = np.random.default_rng(14)
        img = rng.random((3, 32, 32))
        patches = partition_and_flatten(img, model.config.patch_size)
        perm = rng.permutation(patches.shape[0])

        def pre_head(p):
            emb = embed_patches(Tensor(p), model.params["patch_proj.w"],
                                model.params["patch_proj.b"])
            seq = add_positional(emb, model.params["cls_token"], model.params["pos_table"])
            return model._final_norm(model._blocks(seq)).data

        base = pre_head(patches)
        permuted = pre_head(patches[perm])
        assert np.allclose(base[1:][perm], permuted[1:], atol=1e-10)
        assert np.allclose(base[0], permuted[0], atol=1e-10)
        # with a distinct-row positional table the equality breaks
        model.params["pos_table"].data = rng.normal(size=model.params["pos_table"].shape)
        base = pre_head(patches)
        permuted = pre_head(patches[perm])
        assert not np.allclose(base[1:][perm], permuted[1:], atol=1e-6)

    def test_desk_gradcheck(self):
        model = desk_model(seed=0, dtype="float64")
        rng = np.random.default_rng(2)
        img = rng.random((3, 32, 32))
        label = np.array([1])

        def f():
            return T.cross_entropy(model.forward_batch(img[None]), label)

        err = T.finite_diff_gradcheck(
            f, model.params.values(), eps=1e-4,
            max_entries_per_param=4, rng=np.random.default_rng(0),
        )
        assert err < 1e-3


def per_image_logits(model, image):
    """Reference forward for one image: per-image patches, single-image
    attention, the final norm over every row, the class token sliced out."""
    cfg, p = model.config, model.params
    patches = Tensor(partition_and_flatten(image, cfg.patch_size))
    x = add_positional(embed_patches(patches, p["patch_proj.w"], p["patch_proj.b"]),
                       p["cls_token"], p["pos_table"])
    for i in range(cfg.num_layers):
        blk = model.block_params(i)
        attn_in = T.layer_norm(x, blk["norm1.gamma"], blk["norm1.beta"])
        x = T.add(x, multi_head_attention(attn_in, blk, cfg.num_heads))
        mlp_in = T.layer_norm(x, blk["norm2.gamma"], blk["norm2.beta"])
        hidden = T.gelu(T.add(T.matmul(mlp_in, blk["mlp.w1"]), blk["mlp.b1"]))
        x = T.add(x, T.add(T.matmul(hidden, blk["mlp.w2"]), blk["mlp.b2"]))
    x = T.layer_norm(x, p["final_norm.gamma"], p["final_norm.beta"])
    return T.add(T.matmul(T.slice_axis(x, 0, 0, 1), p["head.w"]), p["head.b"])


class TestBatchFirst:
    def _model_and_batch(self):
        model = desk_model(seed=21, dtype="float64")
        rng = np.random.default_rng(22)
        # leave no parameter at an exact zero or one, so every path carries signal
        for prm in model.params.values():
            prm.data = prm.data + rng.normal(0.0, 0.1, prm.shape)
        return model, rng.random((5, 3, 32, 32)), np.array([0, 2, 1, 1, 0])

    def _logits_and_grads(self, model, forward, labels):
        for prm in model.params.values():
            prm.zero_grad()
        with T.Tape() as tape:
            logits = forward()
            loss = T.cross_entropy(logits, labels)
        T.backward(loss, tape)
        return logits.data, {k: prm.grad.copy() for k, prm in model.params.items()}

    def test_matches_per_image_reference(self):
        model, images, labels = self._model_and_batch()
        ref, ref_grads = self._logits_and_grads(
            model, lambda: T.concat([per_image_logits(model, im) for im in images]), labels)
        out, grads = self._logits_and_grads(
            model, lambda: model.forward_batch(images), labels)
        assert out.shape == (5, 3)
        assert np.max(np.abs(out - ref)) < 1e-12
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) < 1e-12, name
        assert any(np.any(g != 0.0) for g in grads.values())

    def test_single_image_paths_agree_with_the_batch(self):
        model, images, _ = self._model_and_batch()
        batch = model.forward_batch(images).data
        for i, im in enumerate(images):
            assert np.max(np.abs(model.forward_logits(im).data - batch[i])) < 1e-12

    def test_tape_length_independent_of_batch_size(self):
        model, images, labels = self._model_and_batch()
        lengths = []
        for b in (1, 5):
            with T.Tape() as tape:
                T.cross_entropy(model.forward_batch(images[:b]), labels[:b])
            lengths.append(len(tape))
        assert lengths[0] == lengths[1] < 100

    def test_backward_fills_every_parameter_and_no_intermediate(self):
        model, images, labels = self._model_and_batch()
        with T.Tape() as tape:
            loss = T.cross_entropy(model.forward_batch(images), labels)
        T.backward(loss, tape)
        assert all(prm.grad is not None for prm in model.params.values())
        assert all(entry.output.grad is None for entry in tape._entries)


class TestClassify:
    def test_deterministic(self):
        model = desk_model(seed=7)
        rng = np.random.default_rng(17)
        images = rng.random((2, 3, 32, 32))
        assert np.array_equal(model.forward_batch(images).data,
                              model.forward_batch(images).data)


class TestConfig:
    def test_invalid_divisibility(self):
        with pytest.raises(ConfigurationError):
            ViTConfig(image_size=30, patch_size=8)
        with pytest.raises(ConfigurationError):
            ViTConfig(embed_dim=30, num_heads=4)

    def test_parameter_names_deterministic(self):
        m1 = desk_model(seed=1)
        m2 = desk_model(seed=2)
        assert list(m1.params) == list(m2.params)

    def test_desk_default_shapes(self):
        cfg = ViTConfig()
        assert cfg.seq_len == 17
        assert cfg.patch_dim == 192
        assert cfg.mlp_hidden == 128
