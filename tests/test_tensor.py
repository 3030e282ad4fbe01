import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitbench import tensor as T
from vitbench.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    FormatError,
    LabelError,
)
from vitbench.tensor import Tape, Tensor, backward

from conftest import backward_grad_dtypes


def gradcheck(f, params, eps=1e-5, **kw):
    return T.finite_diff_gradcheck(f, params, eps=eps, **kw)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_direct_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.random((3, 4)), requires_grad=True)
        b = Tensor(rng.random((4, 2)), requires_grad=True)
        err = gradcheck(lambda: T.tsum(T.matmul(a, b)), [a, b], eps=1e-3)
        assert err < 1e-3

    def test_inputs_not_mutated(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.full((2, 2), 3.0))
        a0, b0 = a.data.copy(), b.data.copy()
        T.matmul(a, b)
        assert np.array_equal(a.data, a0) and np.array_equal(b.data, b0)


def _value_and_grads(fn, arrays, w):
    """``fn`` on fresh leaves made from ``arrays``: its output, and every
    leaf's gradient of ``sum(fn(...) * w)``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        y = fn(*leaves)
        loss = T.tsum(T.mul(y, Tensor(w)))
    backward(loss, tape)
    return y.data, [t.grad for t in leaves]


def _backward_grads(fn, *leaves):
    """The gradients one op's backward hands back for ``fn(*leaves)``,
    called on an output gradient of ones."""
    with Tape() as tape:
        out = fn(*leaves)
    return [g for _, g in tape._entries[-1].backward_fn(np.ones_like(out.data))]


class TestLinear:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in [(5, 4), (4, 3), (3,)])
        wts = rng.random((5, 3))
        err = gradcheck(lambda: T.tsum(T.mul(T.linear(x, w, b), Tensor(wts))), [x, w, b])
        assert err < 1e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_matmul_then_add(self, dtype):
        rng = np.random.default_rng(25)
        arrays = [rng.normal(size=s).astype(dtype) for s in [(17, 24), (24, 10), (10,)]]
        wts = rng.normal(size=(17, 10)).astype(dtype)
        y1, grads1 = _value_and_grads(T.linear, arrays, wts)
        y2, grads2 = _value_and_grads(lambda x, w, b: T.add(T.matmul(x, w), b), arrays, wts)
        assert y1.dtype == dtype and np.array_equal(y1, y2)
        for g1, g2 in zip(grads1, grads2):
            assert g1.dtype == dtype and np.array_equal(g1, g2)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        dx, dw, db = _backward_grads(T.linear, x, w, b)
        assert dx is None
        assert np.array_equal(dw, x.data.T @ np.ones((3, 2)))
        assert np.array_equal(db, np.full(2, 3.0))

    @pytest.mark.parametrize("shapes", [
        [(3, 4), (5, 2), (2,)],
        [(3, 4), (4, 2), (3,)],
        [(2, 3, 4), (4, 2), (2,)],
        [(3, 4), (4, 2), (1, 2)],
    ])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(DimensionError, match="linear"):
            T.linear(*(Tensor(np.zeros(s)) for s in shapes))


def _composed_attention(q, k, v, scale, g):
    """The attention core as the separate ops it replaces, forward and
    backward in their order: the batched products, the scale, the softmax.
    Returns the output and the gradients of q, k and v."""
    k_t = k.swapaxes(-1, -2)
    s = np.matmul(q, k_t) * np.array(scale, q.dtype)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(a, v)
    da = np.matmul(g, v.swapaxes(-1, -2))
    ds = a * (da - (da * a).sum(axis=-1, keepdims=True)) * np.array(scale, q.dtype)
    dq = np.matmul(ds, k_t.swapaxes(-1, -2))
    dk = np.matmul(q.swapaxes(-1, -2), ds).swapaxes(-1, -2)
    dv = np.matmul(a.swapaxes(-1, -2), g)
    return out, [dq, dk, dv]


class TestAttention:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(27)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True) for _ in range(3))
        wts = rng.random((2, 3, 5, 4))
        err = gradcheck(
            lambda: T.tsum(T.mul(T.attention(q, k, v, 0.5)[0], Tensor(wts))), [q, k, v])
        assert err < 1e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_composed_ops(self, dtype):
        rng = np.random.default_rng(28)
        # heads-first views of (B, T, h, d_h) projections, as in the model
        q, k, v = (rng.normal(size=(4, 17, 4, 16)).astype(dtype).transpose(0, 2, 1, 3)
                   for _ in range(3))
        wts = rng.normal(size=q.shape).astype(dtype)
        scale = 1.0 / np.sqrt(16)
        y, grads = _value_and_grads(lambda *t: T.attention(*t, scale)[0], [q, k, v], wts)
        y_ref, grads_ref = _composed_attention(q, k, v, scale, wts)
        assert y.dtype == dtype and np.array_equal(y, y_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert g.dtype == dtype and np.array_equal(g, g_ref)

    def test_returns_the_row_stochastic_weights(self):
        rng = np.random.default_rng(29)
        q, k, v = (Tensor(rng.normal(size=(3, 6, 2))) for _ in range(3))
        out, a = T.attention(q, k, v, 0.7)
        assert a.shape == (3, 6, 6)
        assert np.allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(out.data, a @ v.data, rtol=0, atol=1e-12)

    def test_inputs_without_grad_get_none(self):
        rng = np.random.default_rng(30)
        q = Tensor(rng.normal(size=(2, 4, 3)))
        k = Tensor(rng.normal(size=(2, 4, 3)))
        v = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        dq, dk, dv = _backward_grads(lambda *t: T.attention(*t, 1.0)[0], q, k, v)
        assert dq is None and dk is None and dv.shape == v.shape

    @pytest.mark.parametrize("shapes", [
        [(2, 4, 3), (2, 5, 3), (2, 5, 3)],
        [(2, 4, 3), (2, 4, 3), (2, 5, 3)],
        [(3,), (3,), (3,)],
    ])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(DimensionError, match="attention"):
            T.attention(*(Tensor(np.zeros(s)) for s in shapes), 1.0)


class TestNoGradientForConstants:
    """An op computes no gradient for an input that needs none."""

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.matmul])
    def test_binary_ops(self, op):
        rng = np.random.default_rng(31)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)))
        da, dc = _backward_grads(op, a, c)
        assert da is not None and dc is None
        dc, da = _backward_grads(op, c, a)
        assert dc is None and da is not None


class TestTranspose:
    def test_axes_permutation_and_gradient(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = T.transpose(x, (2, 0, 1))
        assert np.array_equal(y.data, np.transpose(x.data, (2, 0, 1)))
        w = rng.random((4, 2, 3))
        err = gradcheck(lambda: T.tsum(T.mul(T.transpose(x, (2, 0, 1)), Tensor(w))), [x])
        assert err < 1e-3

    def test_not_a_permutation(self):
        with pytest.raises(DimensionError):
            T.transpose(Tensor(np.zeros((2, 3, 4))), (0, 0, 1))


def _conv2d_loop(x, k, stride, padding, groups):
    """Plain nested-loop cross-correlation: the reference for conv2d."""
    b, cin, h, w = x.shape
    cout, cg, kh, kw = k.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.zeros((b, cin, h + 2 * ph, w + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + w] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    og = cout // groups
    y = np.zeros((b, cout, ho, wo))
    for n in range(b):
        for o in range(cout):
            c0 = (o // og) * cg
            for r in range(ho):
                for c in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[n, c0 + ci, r * sh + i, c * sw + j] * k[o, ci, i, j]
                    y[n, o, r, c] = acc
    return y


def _conv2d_loop_dx(g, k, x_shape, stride, padding, groups):
    """Plain nested-loop scatter-add of the output gradient ``g`` back onto
    the input: the adjoint of :func:`_conv2d_loop`, the reference for
    conv2d's input gradient."""
    b, cin, h, w = x_shape
    cout, cg, kh, kw = k.shape
    (sh, sw), (ph, pw) = stride, padding
    _, _, ho, wo = g.shape
    og = cout // groups
    dxp = np.zeros((b, cin, h + 2 * ph, w + 2 * pw))
    for n in range(b):
        for o in range(cout):
            c0 = (o // og) * cg
            for r in range(ho):
                for c in range(wo):
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                dxp[n, c0 + ci, r * sh + i, c * sw + j] += g[n, o, r, c] * k[o, ci, i, j]
    return dxp[:, :, ph:ph + h, pw:pw + w]


# x shape, kernel shape, stride, padding, groups
_CONV_CASES = [
    ((2, 3, 6, 7), (4, 3, 2, 3), (1, 1), (0, 0), 1),   # rectangular kernel
    ((2, 3, 7, 5), (5, 3, 3, 3), (2, 2), (1, 1), 1),
    ((2, 4, 6, 7), (6, 2, 3, 2), (2, 2), (1, 1), 2),   # groups=2, Og=3
    ((1, 4, 5, 6), (4, 2, 2, 3), (1, 1), (0, 0), 2),
    ((2, 3, 6, 5), (3, 1, 3, 3), (1, 1), (1, 1), 3),   # depthwise
    ((2, 3, 7, 6), (6, 1, 2, 3), (1, 2), (1, 0), 3),   # depthwise, multiplier 2
]

# the input gradient's stride phases: some no tap hits, and phases of
# unequal widths
_CONV_DX_CASES = _CONV_CASES + [
    ((2, 3, 7, 6), (4, 3, 1, 1), (2, 2), (0, 0), 1),   # 1x1 at stride 2
    ((2, 2, 8, 7), (3, 2, 2, 2), (3, 3), (1, 0), 1),   # 2x2 at stride 3
    ((2, 3, 8, 9), (4, 3, 3, 3), (2, 3), (1, 1), 1),   # 10x11 padded, stride (2, 3)
    ((2, 3, 6, 7), (4, 3, 3, 3), (1, 1), (1, 0), 1),   # padding (1, 0)
    ((2, 3, 7, 8), (6, 1, 3, 3), (2, 2), (1, 1), 3),   # depthwise, multiplier 2
]


class TestConv2d:
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding, groups", _CONV_CASES)
    def test_matches_loop_reference(self, x_shape, k_shape, stride, padding, groups):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape)
        k = rng.normal(size=k_shape)
        y = T.conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding, groups=groups)
        ref = _conv2d_loop(x, k, stride, padding, groups)
        assert y.shape == ref.shape
        assert np.max(np.abs(y.data - ref)) < 1e-12

    @pytest.mark.parametrize("x_shape, k_shape, stride, padding, groups", _CONV_DX_CASES)
    def test_input_gradient_matches_loop_reference(self, x_shape, k_shape, stride, padding,
                                                   groups):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        k = rng.normal(size=k_shape)
        with Tape() as tape:
            y = T.conv2d(x, Tensor(k), stride=stride, padding=padding, groups=groups)
            g = rng.normal(size=y.shape)
            loss = T.tsum(T.mul(y, Tensor(g)))
        backward(loss, tape)
        ref = _conv2d_loop_dx(g, k, x_shape, stride, padding, groups)
        assert np.max(np.abs(x.grad - ref)) < 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0},
        {"stride": (1, 0)},
        {"stride": 1.5},
        {"stride": (2,)},
        {"stride": True},
        {"padding": -1},
        {"padding": (0, -1)},
        {"padding": (1,)},
        {"padding": 1.0},
        {"padding": True},
        {"groups": True},
        {"groups": 1.0},
    ])
    def test_bad_arguments_are_configuration_errors(self, kwargs):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        k = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, k, **kwargs)

    def test_grouped_strided_padded_gradient(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 4, 5, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(6, 2, 3, 3)), requires_grad=True)
        w = rng.random((2, 6, 3, 3))
        err = gradcheck(
            lambda: T.tsum(T.mul(T.conv2d(x, k, stride=2, padding=1, groups=2), Tensor(w))),
            [x, k],
        )
        assert err < 1e-3

    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        y = T.conv2d(x, k)
        assert np.allclose(y.data, x.data)

    def test_all_ones_valid(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        y = T.conv2d(x, k)
        assert y.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 9.0

    def test_kernel_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.random((1, 2, 5, 5)))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        err = gradcheck(lambda: T.tsum(T.conv2d(x, k)), [k])
        assert err < 1e-3

    def test_input_gradient_strided_padded(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((2, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 2, 3, 3)))
        w = rng.random((2, 4, 3, 3))
        err = gradcheck(
            lambda: T.tsum(T.mul(T.conv2d(x, k, stride=2, padding=1), Tensor(w))),
            [x],
        )
        assert err < 1e-3

    def test_grouped(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.random((1, 4, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True)
        err = gradcheck(
            lambda: T.tsum(T.conv2d(x, k, padding=1, groups=4)), [x, k]
        )
        assert err < 1e-3

    def test_nonpositive_output_extent(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        k = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, k)

    def test_bad_groups(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        k = Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, k, groups=2)


def _max_pool_loop(x, k):
    """Plain nested-loop k x k, stride-k max pooling of a (B, C, H, W) array."""
    b, c, h, w = x.shape
    out = np.empty((b, c, h // k, w // k))
    for n in range(b):
        for ch in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    out[n, ch, i, j] = x[n, ch, i * k:(i + 1) * k, j * k:(j + 1) * k].max()
    return out


class TestMaxPool:
    @pytest.mark.parametrize("shape, k", [
        ((2, 3, 4, 6), 2),
        ((1, 2, 6, 4), 2),
        ((2, 2, 6, 9), 3),
        ((1, 3, 9, 3), 3),
    ])
    def test_matches_loop_reference(self, shape, k):
        x = np.random.default_rng(21).normal(size=shape)
        y = T.max_pool2d(Tensor(x), k)
        assert np.array_equal(y.data, _max_pool_loop(x, k))

    def test_ties_split_the_gradient(self):
        x = Tensor(np.full((1, 1, 2, 4), 0.5), requires_grad=True)
        x.data[0, 0, :, 2:] = [[1.0, 3.0], [2.0, 0.0]]
        g = np.array([[[[4.0, 8.0]]]])
        with Tape() as tape:
            y = T.max_pool2d(x, 2)
            loss = T.tsum(T.mul(y, Tensor(g)))
        backward(loss, tape)
        # the four equal values share g/4; the single maximum takes all of g
        assert np.array_equal(x.grad[0, 0], [[1.0, 1.0, 0.0, 8.0], [1.0, 1.0, 0.0, 0.0]])
        assert x.grad.sum() == g.sum()

    def test_gradient(self):
        # a permutation of distinct values has no ties, so the max is smooth
        data = np.random.default_rng(22).permutation(2 * 2 * 4 * 6).reshape(2, 2, 4, 6)
        x = Tensor(data / 10.0, requires_grad=True)
        w = np.random.default_rng(23).random((2, 2, 2, 3))
        err = gradcheck(lambda: T.tsum(T.mul(T.max_pool2d(x, 2), Tensor(w))), [x])
        assert err < 1e-3

    def test_extents_not_divisible(self):
        with pytest.raises(ConfigurationError):
            T.max_pool2d(Tensor(np.zeros((1, 1, 4, 5))), 2)
        with pytest.raises(ConfigurationError):
            T.max_pool2d(Tensor(np.zeros((1, 1, 6, 6))), 4)

    def test_input_must_be_4d(self):
        with pytest.raises(DimensionError):
            T.max_pool2d(Tensor(np.zeros((1, 4, 4))), 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_window_must_be_positive(self, k):
        with pytest.raises(ConfigurationError):
            T.max_pool2d(Tensor(np.zeros((1, 1, 4, 4))), k)


class TestSoftmax:
    def test_symmetry(self):
        y = T.softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(y.data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        y = T.softmax(Tensor([1000.0, 1000.0]), axis=0)
        assert np.allclose(y.data, [0.5, 0.5])

    def test_analytic_closed_form(self):
        y = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(y.data, [0.25, 0.75])

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor([1.0, 2.0]), axis=3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.floats(-1e3, 1e3),
    )
    def test_slices_sum_to_one(self, values, offset):
        y = T.softmax(Tensor(np.array(values) + offset), axis=0)
        assert abs(y.data.sum() - 1.0) < 1e-6
        assert np.all(y.data >= 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.random((3, 4))
        err = gradcheck(lambda: T.tsum(T.mul(T.softmax(x, axis=1), Tensor(w))), [x])
        assert err < 1e-3


class TestLayerNorm:
    def test_constant_row(self):
        y = T.layer_norm(
            Tensor([[5.0, 5.0, 5.0, 5.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4))
        )
        assert np.allclose(y.data, 0.0)

    def test_standardization(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(2.0, 3.0, size=(5, 16)))
        y = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        mean = y.data.mean(axis=-1)
        var = y.data.var(axis=-1)
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        g = Tensor(rng.random(8), requires_grad=True)
        b = Tensor(rng.random(8), requires_grad=True)
        w = rng.random((4, 8))
        err = gradcheck(
            lambda: T.tsum(T.mul(T.layer_norm(x, g, b), Tensor(w))), [x, g, b]
        )
        assert err < 1e-3

    def test_fused_matches_primitive_composition(self):
        rng = np.random.default_rng(23)
        shape = (2, 3, 8)
        w = rng.random(shape)

        def mean(a):
            return T.mul(T.tsum(a, axis=-1, keepdims=True), Tensor(1.0 / a.shape[-1]))

        def composed(x, gamma, beta, eps=1e-5):
            xc = T.sub(x, mean(x))
            var = mean(T.mul(xc, xc))
            inv = T.pow_scalar(T.add(var, Tensor(eps)), -0.5)
            return T.add(T.mul(T.mul(xc, inv), gamma), beta)

        data = [rng.normal(1.0, 2.0, size=shape), rng.random(8), rng.random(8)]
        y1, grads1 = _value_and_grads(T.layer_norm, data, w)
        y2, grads2 = _value_and_grads(composed, data, w)
        assert np.max(np.abs(y1 - y2)) < 1e-12
        for g1, g2 in zip(grads1, grads2):
            assert np.max(np.abs(g1 - g2)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_its_formula(self, dtype):
        """In-place buffers, but the formula's operations in its order."""
        rng = np.random.default_rng(33)
        x, gamma, beta = (rng.normal(1.0, 2.0, size=s).astype(dtype)
                          for s in [(2, 5, 8), (8,), (8,)])
        g = rng.normal(size=x.shape).astype(dtype)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
        xhat = xc * inv
        gx = g * gamma
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        y, grads = _value_and_grads(T.layer_norm, [x, gamma, beta], g)
        assert np.array_equal(y, xhat * gamma + beta)
        # gamma and beta sum over the broadcast axes one at a time
        expected = [dx, (g * xhat).sum(axis=0).sum(axis=0), g.sum(axis=0).sum(axis=0)]
        for got, want in zip(grads, expected):
            assert got.dtype == dtype and np.array_equal(got, want)


class TestActivations:
    def test_relu_definition(self):
        y = T.relu(Tensor([-1.0, 2.0]))
        assert np.array_equal(y.data, [0.0, 2.0])

    def test_gelu_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=20), requires_grad=True)
        w = rng.random(20)
        err = gradcheck(lambda: T.tsum(T.mul(T.gelu(x), Tensor(w))), [x], eps=1e-4)
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_same_bits_as_its_formula(self, dtype):
        """In-place buffers, but the formula's operations in its order."""
        rng = np.random.default_rng(32)
        x = rng.normal(0.0, 3.0, size=(7, 9)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        c, a = T.GELU_C, T.GELU_A
        t = np.tanh(c * (x + a * (x * x * x)))
        du = c * (1.0 + 3.0 * a * (x * x))
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        y, (dx,) = _value_and_grads(T.gelu, [x], g)
        assert np.array_equal(y, 0.5 * x * (1.0 + t))
        assert dx.dtype == dtype and np.array_equal(dx, g * d)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 3]))
        assert abs(loss.item() - math.log(4.0)) < 1e-9

    def test_confident_correct(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 30.0
        loss = T.cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-9

    def test_out_of_range_label(self):
        with pytest.raises(LabelError, match="7"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 7]))

    def test_names_first_bad_label_and_index(self):
        with pytest.raises(LabelError, match=r"label 5 at index 1 outside \[0, 3\)"):
            T.cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 5, -1, 9]))
        with pytest.raises(LabelError, match=r"label -1 at index 2"):
            T.cross_entropy(Tensor(np.zeros((3, 3))), np.array([0, 2, -1]))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = np.array([0, 2, 4])
        err = gradcheck(lambda: T.cross_entropy(logits, labels), [logits])
        assert err < 1e-3


class TestBackward:
    def test_square(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        backward(y, tape)
        assert x.grad == pytest.approx(6.0)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.random((2, 3)))
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        labels = np.array([0, 2])

        def f():
            return T.cross_entropy(T.add(T.matmul(x, w), b), labels)

        assert gradcheck(f, [w, b], eps=1e-4) < 1e-3

    def test_disconnected_parameter_gets_zero(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        unused.zero_grad()
        with Tape() as tape:
            y = T.mul(x, x)
        backward(y, tape)
        assert np.array_equal(unused.grad, np.zeros(3))

    def test_only_leaves_get_gradient_buffers(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(3, 4)))
        used = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        unreached = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            h = T.matmul(x, used)
            T.matmul(x, unreached)  # recorded, but the loss never reads it
            loss = T.tsum(T.mul(h, h))
        backward(loss, tape)
        assert np.allclose(used.grad, x.data.T @ (2.0 * h.data), rtol=0, atol=1e-12)
        assert np.array_equal(unreached.grad, np.zeros((4, 2)))
        assert x.grad is None
        assert all(entry.output.grad is None for entry in tape._entries)

    def test_additive_accumulation(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        backward(y, tape)
        g1 = x.grad.copy()
        backward(y, tape)
        assert np.array_equal(x.grad, 2.0 * g1)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            backward(y, tape)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_strict_mode_flags_nonfinite(self):
        with pytest.raises(ContractError):
            T.mul(Tensor([1e308]), Tensor([1e308]))


class TestGradcheckOracle:
    def test_exact_quadratic(self):
        theta = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        err = T.finite_diff_gradcheck(lambda: T.tsum(T.mul(theta, theta)), [theta])
        assert err < 1e-6

    def test_constant_function(self):
        theta = Tensor(np.ones(3), requires_grad=True)
        err = T.finite_diff_gradcheck(lambda: T.tsum(Tensor(np.zeros(1))), [theta])
        assert err == 0.0

    def test_eps_bounds(self):
        theta = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ConfigurationError):
            T.finite_diff_gradcheck(lambda: T.tsum(theta), [theta], eps=0.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_op_gradients(seed):
    """Random small instances: every differentiable op matches central
    finite differences within 1e-3 relative."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = rng.random((2, 2))

    def f():
        y = T.matmul(a, b)
        y = T.softmax(y, axis=1)
        return T.tsum(T.mul(y, Tensor(w)))

    assert T.finite_diff_gradcheck(f, [a, b], eps=1e-4) < 1e-3


class TestTnsr:
    def test_round_trip_f64(self):
        rng = np.random.default_rng(11)
        arr = rng.random((3, 4, 5))
        out = T.tnsr_decode(T.tnsr_encode(arr))
        assert out.dtype == np.float64
        assert np.array_equal(out, arr)

    def test_round_trip_f32(self):
        arr = np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4)
        out = T.tnsr_decode(T.tnsr_encode(arr))
        assert out.dtype == np.float32
        assert np.array_equal(out, arr)

    def test_scalar(self):
        out = T.tnsr_decode(T.tnsr_encode(np.array(7.5)))
        assert out.shape == () and out == 7.5

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            T.tnsr_decode(b"TNSX" + bytes(10))

    def test_truncated(self):
        data = T.tnsr_encode(np.ones((2, 2)))
        with pytest.raises(FormatError):
            T.tnsr_decode(data[:-3])

    @pytest.mark.parametrize("shape", [
        (0, 2**40, 2**40),   # over numpy's size limit
        (0, 2**63),          # over the largest extent numpy holds
        (1,) * 70,           # more axes than numpy holds
    ])
    def test_unrepresentable_shape_is_format_error(self, shape):
        count = math.prod(shape)
        data = (b"TNSR" + struct.pack("<BBB", 1, 2, len(shape))
                + struct.pack(f"<{len(shape)}Q", *shape) + bytes(8 * count))
        with pytest.raises(FormatError, match="not representable"):
            T.tnsr_decode(data)


# every public op, built from float32 leaves made by ``x(*shape)``
_FLOAT32_CASES = {
    "add": lambda x: T.add(x(2, 3), x(3)),
    "sub": lambda x: T.sub(x(2, 3), x(2, 1)),
    "mul": lambda x: T.mul(x(2, 3), x(1, 3)),
    "pow_scalar": lambda x: T.pow_scalar(x(2, 3), 3.0),
    "reshape": lambda x: T.reshape(x(2, 3), (3, 2)),
    "transpose": lambda x: T.transpose(x(2, 3, 4), (2, 0, 1)),
    "slice_axis": lambda x: T.slice_axis(x(2, 5), 1, 1, 4),
    "concat": lambda x: T.concat([x(2, 3), x(1, 3)], axis=0),
    "stack": lambda x: T.stack([x(2, 3), x(2, 3)], axis=1),
    "tsum": lambda x: T.tsum(x(2, 3, 4), axis=1),
    "matmul": lambda x: T.matmul(x(2, 3), x(3, 4)),
    "linear": lambda x: T.linear(x(2, 3), x(3, 4), x(4)),
    "attention": lambda x: T.attention(x(2, 3, 4), x(2, 3, 4), x(2, 3, 5), 0.5)[0],
    "relu": lambda x: T.relu(x(3, 4)),
    "gelu": lambda x: T.gelu(x(3, 4)),
    "softmax": lambda x: T.softmax(x(3, 5), axis=-1),
    "layer_norm": lambda x: T.layer_norm(x(2, 3, 4), x(4), x(4)),
    "dropout": lambda x: T.dropout(x(4, 8), 0.5, np.random.default_rng(0)),
    "cross_entropy": lambda x: T.cross_entropy(x(3, 4), [0, 3, 1]),
    "conv2d": lambda x: T.conv2d(x(2, 4, 5, 5), x(6, 4, 3, 3), padding=1),
    "conv2d_groups_2": lambda x: T.conv2d(x(2, 4, 5, 5), x(6, 2, 3, 3), padding=1, groups=2),
    "conv2d_depthwise": lambda x: T.conv2d(x(2, 4, 6, 6), x(4, 1, 3, 3), stride=2,
                                           padding=1, groups=4),
    "conv2d_1x1_stride_2": lambda x: T.conv2d(x(2, 4, 5, 5), x(6, 4, 1, 1), stride=2),
    "conv2d_stride_2_3": lambda x: T.conv2d(x(2, 3, 7, 8), x(4, 3, 3, 3), stride=(2, 3),
                                            padding=1),
    "max_pool2d": lambda x: T.max_pool2d(x(2, 3, 4, 4), 2),
    "global_avg_pool": lambda x: T.global_avg_pool(x(2, 3, 4, 4)),
}


class TestFloat32:
    @pytest.mark.parametrize("op", sorted(_FLOAT32_CASES))
    def test_op_keeps_float32_forward_and_backward(self, op):
        rng = np.random.default_rng(0)
        leaves = []

        def x(*shape):
            leaves.append(Tensor(rng.normal(size=shape).astype(np.float32),
                                 requires_grad=True))
            return leaves[-1]

        with Tape() as tape:
            out = _FLOAT32_CASES[op](x)
            loss = T.tsum(out)
        assert out.data.dtype == np.float32
        assert loss.data.dtype == np.float32
        assert backward_grad_dtypes(loss, tape) == {np.dtype(np.float32)}
        assert all(t.grad.dtype == np.float32 for t in leaves)

    def test_tied_max_pool_gradient_stays_float32(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(T.max_pool2d(x, 2))
        assert backward_grad_dtypes(loss, tape) == {np.dtype(np.float32)}
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 0.25, np.float32))

    def test_float64_gradient_into_float32_tensor_is_refused(self):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="float64"):
            x.accumulate_grad(np.ones(2))

    @pytest.mark.parametrize("value, dtype", [
        (np.ones(2, np.float32), np.float32),
        (np.ones(2), np.float64),
        (np.float32(2.0), np.float32),
        (np.arange(3), np.float64),
        (np.array([True]), np.float64),
        (1.5, np.float64),
        (3, np.float64),
    ])
    def test_tensor_keeps_float_dtypes_and_promotes_the_rest(self, value, dtype):
        assert Tensor(value).data.dtype == dtype

    def test_gradcheck_refuses_float32_parameters_by_name(self):
        w = Tensor(np.ones(2, np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="'w'.*float32"):
            T.finite_diff_gradcheck(lambda: T.tsum(w), {"w": w})
        with pytest.raises(ContractError, match="float32"):
            T.finite_diff_gradcheck(lambda: T.tsum(w), [w])
