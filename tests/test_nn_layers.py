"""Layer-level contracts on the layer classes at batch size 1: hand-computed
cases plus finite-difference oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazedir import nn


def central_diff(f, x, h=1e-6):
    """Independent numeric-gradient oracle: central differences per element."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return grad


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def fwd(layer, x):
    """One sample through a layer, as a batch of one."""
    return layer.forward(np.asarray(x)[None])[0]


def fwd_bwd(layer, x, upstream):
    """Cached forward of one sample, then backward; returns the input grad."""
    layer.forward(np.asarray(x)[None], cache=True)
    return layer.backward(np.asarray(upstream)[None])[0]


def softmax_ce1(logits, true_class):
    loss, probs, grad = nn.softmax_ce(np.asarray(logits)[None], np.array([true_class]))
    return loss, probs[0], grad[0]


class TestRelu:
    def test_sign_cases(self):
        npt.assert_array_equal(fwd(nn.ReLU(), [-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_zero_fixed_point(self):
        z = np.zeros((3, 4))
        npt.assert_array_equal(fwd(nn.ReLU(), z), z)

    def test_idempotent_and_nonnegative(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        once = fwd(nn.ReLU(), x)
        assert np.all(once >= 0)
        npt.assert_array_equal(fwd(nn.ReLU(), once), once)

    def test_backward_masking(self):
        grad = fwd_bwd(nn.ReLU(), [-1.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        npt.assert_array_equal(grad, [0.0, 0.0, 1.0])
        npt.assert_array_equal(fwd_bwd(nn.ReLU(), [3.0], [5.0]), [5.0])

    def test_backward_shape_mismatch(self):
        relu = nn.ReLU()
        relu.forward(np.zeros((1, 4)), cache=True)
        with pytest.raises(ValueError, match="stale"):
            relu.backward(np.zeros((1, 3)))

    def test_backward_without_forward_rejected(self):
        with pytest.raises(ValueError, match="no forward was cached"):
            nn.ReLU().backward(np.zeros((1, 3)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        # keep inputs away from the kink at 0
        x = rng.normal(size=(2, 4, 5))
        x = np.where(np.abs(x) < 0.1, x + 0.2, x)
        up = rng.normal(size=x.shape)

        numeric = central_diff(lambda v: float(np.sum(up * fwd(nn.ReLU(), v))), x)
        analytic = fwd_bwd(nn.ReLU(), x, up)
        assert rel_err(analytic, numeric) < 1e-6


def oracle_conv_cols(x4, kh, kw):
    """The unfold as one slice copy per kernel offset: the reference layout."""
    b, c, h, w = x4.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=x4.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x4
    cols = np.empty((b, c, kh, kw, h, w), dtype=x4.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = padded[:, :, u : u + h, v : v + w]
    return cols.reshape(b, c * kh * kw, h * w)


class TestConv2d:
    def test_1x1_kernel_is_scalar_multiply(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = fwd(nn.Conv2D(np.full((1, 1, 1, 1), 2.0), np.zeros(1)), x)
        npt.assert_array_equal(out, [[[2.0, 4.0], [6.0, 8.0]]])

    def test_3x3_ones_kernel_zero_padding(self):
        # every window of the padded 2x2 image sums all four in-bounds pixels
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = fwd(nn.Conv2D(np.ones((1, 1, 3, 3)), np.zeros(1)), x)
        npt.assert_array_equal(out, [[[10.0, 10.0], [10.0, 10.0]]])

    def test_bias_only(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 5))
        out = fwd(nn.Conv2D(np.zeros((3, 2, 3, 3)), np.array([1.0, -2.0, 0.5])), x)
        for o, b in enumerate([1.0, -2.0, 0.5]):
            npt.assert_array_equal(out[o], np.full((4, 5), b))

    def test_channel_mismatch_rejected(self):
        conv = nn.Conv2D(np.zeros((1, 3, 3, 3)), np.zeros(1))
        head = [nn.Dense(np.zeros((2, 16)), np.zeros(2)), nn.SoftmaxCE()]
        with pytest.raises(ValueError, match="channel"):
            nn.Model((2, 4, 4), 2, [conv, *head])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nn.Conv2D(np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_malformed_parameters_rejected(self):
        with pytest.raises(ValueError, match="O,C,kh,kw"):
            nn.Conv2D(np.zeros((1, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="bias"):
            nn.Conv2D(np.zeros((2, 1, 3, 3)), np.zeros(3))

    def test_shape_preserved_across_random_shapes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            k = int(rng.choice([1, 3, 5, 7]))
            x = rng.normal(size=(c, h, w))
            conv = nn.Conv2D(rng.normal(size=(o, c, k, k)), rng.normal(size=o))
            assert fwd(conv, x).shape == (o, h, w)

    def test_backward_1x1_grad_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 3, 3))
        conv = nn.Conv2D(np.full((1, 1, 1, 1), 0.7), np.zeros(1))
        up = rng.normal(size=(1, 3, 3))
        fwd_bwd(conv, x, up)
        npt.assert_allclose(conv.grad_weights[0, 0, 0, 0], np.sum(x * up), rtol=1e-12)
        npt.assert_allclose(conv.grad_bias[0], up.sum(), rtol=1e-12)

    def test_backward_zero_upstream(self):
        x = np.random.default_rng(4).normal(size=(2, 4, 4))
        w = np.random.default_rng(5).normal(size=(3, 2, 3, 3))
        conv = nn.Conv2D(w, np.zeros(3))
        gi = fwd_bwd(conv, x, np.zeros((3, 4, 4)))
        assert not gi.any() and not conv.grad_weights.any() and not conv.grad_bias.any()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        up = rng.normal(size=(3, 5, 5))

        def loss_of_input(v):
            return float(np.sum(up * fwd(nn.Conv2D(w, b), v)))

        def loss_of_weights(v):
            return float(np.sum(up * fwd(nn.Conv2D(v, b), x)))

        def loss_of_bias(v):
            return float(np.sum(up * fwd(nn.Conv2D(w, v), x)))

        conv = nn.Conv2D(w, b)
        gi = fwd_bwd(conv, x, up)
        assert rel_err(gi, central_diff(loss_of_input, x)) < 1e-4
        assert rel_err(conv.grad_weights, central_diff(loss_of_weights, w)) < 1e-4
        assert rel_err(conv.grad_bias, central_diff(loss_of_bias, b)) < 1e-4

    def test_backward_shape_mismatch(self):
        conv = nn.Conv2D(np.zeros((3, 1, 3, 3)), np.zeros(3))
        conv.forward(np.zeros((1, 1, 4, 4)), cache=True)
        with pytest.raises(ValueError, match="stale"):
            conv.backward(np.zeros((1, 2, 4, 4)))

    def test_backward_without_forward_rejected(self):
        conv = nn.Conv2D(np.zeros((3, 1, 3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="no forward was cached"):
            conv.backward(np.zeros((1, 3, 4, 4)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_unfold_matches_the_offset_loop(self, data):
        shape = data.draw(st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)
        ))
        kh, kw = data.draw(st.tuples(st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 3, 5, 7])))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        # any bit pattern, -0.0 and NaN included, must be copied unchanged
        bits = np.dtype(dtype).itemsize * 8
        x = data.draw(hnp.arrays(dtype, shape, elements=st.floats(width=bits)))
        x_bytes = x.tobytes()
        expected = oracle_conv_cols(x, kh, kw)
        buf = data.draw(st.sampled_from(["none", "match", "other"]))
        scratch = {
            "none": None,
            "match": np.full(expected.size, 7, dtype=dtype),
            "other": np.full(expected.size + 1, 7, dtype=dtype),
        }[buf]
        cols = nn._conv_cols(x, kh, kw, buf=scratch)
        assert cols.dtype == expected.dtype and cols.shape == expected.shape
        assert cols.tobytes() == expected.tobytes()
        # the input is read, never written, and the columns are a copy, not a view of it
        assert x.tobytes() == x_bytes
        assert not np.shares_memory(cols, x)
        # a matching buffer is filled in place; any other is replaced
        assert (scratch is not None and np.shares_memory(cols, scratch)) == (buf == "match")


def oracle_pool_forward(x):
    """Window-last argmax + take_along_axis: the reference 2x2 max pool.
    Returns the pooled values and the row-major first-max index 0..3."""
    b, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    win = x[:, :, : ho * 2, : wo * 2].reshape(b, c, ho, 2, wo, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, ho, wo, 4)
    idx = win.argmax(axis=4)
    return np.take_along_axis(win, idx[..., None], axis=4)[..., 0], idx


def oracle_pool_backward(idx, input_shape, upstream):
    """Scatters each upstream value to the window position idx names."""
    b, c, ho, wo = upstream.shape
    grad = np.zeros(input_shape, dtype=upstream.dtype)
    bi = np.arange(b)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    ri = 2 * np.arange(ho)[None, None, :, None] + idx // 2
    cj = 2 * np.arange(wo)[None, None, None, :] + idx % 2
    grad[bi, ci, ri, cj] = upstream
    return grad


class TestMaxPool2:
    # the argmax position of test_single_window is asserted by test_backward_routing
    def test_single_window(self):
        out = fwd(nn.MaxPool2(), np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        npt.assert_array_equal(out, [[[4.0]]])

    def test_floor_semantics_drop_trailing(self):
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        # only the top-left 2x2 window survives: max(1,2,4,5) = 5
        npt.assert_array_equal(fwd(nn.MaxPool2(), x), [[[5.0]]])

    def test_constant_image(self):
        x = np.full((2, 6, 8), 3.5)
        npt.assert_array_equal(fwd(nn.MaxPool2(), x), np.full((2, 3, 4), 3.5))

    def test_halving_across_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c, h, w = int(rng.integers(1, 4)), int(rng.integers(2, 15)), int(rng.integers(2, 15))
            out = fwd(nn.MaxPool2(), rng.normal(size=(c, h, w)))
            assert out.shape == (c, h // 2, w // 2)

    def test_too_small_rejected(self):
        head = [nn.Dense(np.zeros((2, 2)), np.zeros(2)), nn.SoftmaxCE()]
        with pytest.raises(ValueError, match=">= 2"):
            nn.Model((1, 1, 5), 2, [nn.MaxPool2(), *head])

    def test_backward_routing(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        grad = fwd_bwd(nn.MaxPool2(), x, [[[7.0]]])
        npt.assert_array_equal(grad, [[[0.0, 0.0], [0.0, 7.0]]])

    def test_backward_zero_upstream(self):
        x = np.random.default_rng(8).normal(size=(2, 4, 6))
        assert not fwd_bwd(nn.MaxPool2(), x, np.zeros((2, 2, 3))).any()

    def test_backward_stale_indices_rejected(self):
        pool = nn.MaxPool2()
        pool.forward(np.zeros((1, 1, 4, 4)), cache=True)
        # upstream of a 6x6 forward against the caches of the 4x4 one
        with pytest.raises(ValueError, match="stale"):
            pool.backward(np.zeros((1, 1, 3, 3)))

    def test_backward_without_forward_rejected(self):
        with pytest.raises(ValueError, match="no forward was cached"):
            nn.MaxPool2().backward(np.zeros((1, 1, 2, 2)))

    def test_inference_forward_leaves_the_cache(self):
        # an uncached forward over another batch must not feed a later backward
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 3, 4, 6))
        up = rng.normal(size=(2, 3, 2, 3))
        pool = nn.MaxPool2()
        pool.forward(x, cache=True)
        expected = pool.backward(up)
        pool.forward(rng.normal(size=(1, 3, 8, 8)))
        assert pool.backward(up).tobytes() == expected.tobytes()

    def test_tie_breaks_to_first_row_major(self):
        # the gradient lands only on the first maximum in row-major order
        grad = fwd_bwd(nn.MaxPool2(), [[[5.0, 5.0], [5.0, 5.0]]], [[[1.0]]])
        npt.assert_array_equal(grad, [[[1.0, 0.0], [0.0, 0.0]]])
        grad = fwd_bwd(nn.MaxPool2(), [[[1.0, 5.0], [2.0, 5.0]]], [[[1.0]]])
        npt.assert_array_equal(grad, [[[0.0, 1.0], [0.0, 0.0]]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        # distinct values keep maxima unique, away from tie points
        x = rng.permutation(24).astype(np.float64).reshape(1, 4, 6)
        up = rng.normal(size=(1, 2, 3))
        analytic = fwd_bwd(nn.MaxPool2(), x, up)
        numeric = central_diff(
            lambda v: float(np.sum(up * fwd(nn.MaxPool2(), v))), x, h=1e-5
        )
        assert rel_err(analytic, numeric) < 1e-4

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_argmax_reference(self, data):
        shape = tuple(data.draw(st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(2, 9), st.integers(2, 9)
        )))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans(), label="ties"):
            ties = st.sampled_from([-1.0, 0.0, 1.0, 2.0])
            x = data.draw(hnp.arrays(dtype, shape, elements=ties))
        else:
            x = rng.normal(size=shape).astype(dtype)
        pool = nn.MaxPool2()
        out = pool.forward(x, cache=True)
        expected, idx = oracle_pool_forward(x)
        # values, not bytes: a window of raw +-0.0 may pool to either zero
        assert out.dtype == expected.dtype and np.array_equal(out, expected)
        up = rng.normal(size=out.shape).astype(dtype)
        assert pool.backward(up).tobytes() == oracle_pool_backward(idx, x.shape, up).tobytes()


class TestDense:
    def test_identity_weights(self):
        x = np.array([3.0, -1.0, 2.0])
        npt.assert_array_equal(fwd(nn.Dense(np.eye(3), np.zeros(3)), x), x)

    def test_dot_product(self):
        out = fwd(nn.Dense(np.array([[1.0, 1.0]]), np.array([1.0])), [2.0, 3.0])
        npt.assert_array_equal(out, [6.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            nn.Model((3,), 2, [nn.Dense(np.zeros((2, 4)), np.zeros(2)), nn.SoftmaxCE()])
        with pytest.raises(ValueError):
            nn.Dense(np.zeros(4), np.zeros(1))
        with pytest.raises(ValueError):
            nn.Dense(np.zeros((2, 4)), np.zeros(3))

    def test_backward_shape_mismatch(self):
        dense = nn.Dense(np.zeros((3, 4)), np.zeros(3))
        dense.forward(np.zeros((2, 4)), cache=True)
        for rows in (1, 5):
            with pytest.raises(ValueError, match="stale"):
                dense.backward(np.zeros((rows, 3)))

    def test_backward_without_forward_rejected(self):
        with pytest.raises(ValueError, match="no forward was cached"):
            nn.Dense(np.zeros((3, 4)), np.zeros(3)).backward(np.zeros((1, 3)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=6)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        up = rng.normal(size=4)
        dense = nn.Dense(w, b)
        gi = fwd_bwd(dense, x, up)
        assert rel_err(gi, central_diff(lambda v: float(up @ fwd(nn.Dense(w, b), v)), x)) < 1e-4
        assert rel_err(
            dense.grad_weights, central_diff(lambda v: float(up @ fwd(nn.Dense(v, b), x)), w)
        ) < 1e-4
        assert rel_err(
            dense.grad_bias, central_diff(lambda v: float(up @ fwd(nn.Dense(w, v), x)), b)
        ) < 1e-4


class TestSoftmaxCE:
    def test_uniform_two_class(self):
        loss, probs, grad = softmax_ce1([0.0, 0.0], 0)
        npt.assert_allclose(loss, np.log(2), rtol=1e-12)
        npt.assert_allclose(probs, [0.5, 0.5], rtol=1e-12)
        npt.assert_allclose(grad, [-0.5, 0.5], rtol=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, probs, _ = softmax_ce1([1000.0, 0.0], 0)
        assert np.isfinite(loss) and loss < 1e-12
        assert np.all(np.isfinite(probs))

    def test_probs_normalized_for_random_logits(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            logits = rng.uniform(-1e3, 1e3, size=int(rng.integers(2, 10)))
            _, probs, _ = softmax_ce1(logits, 0)
            assert abs(probs.sum() - 1.0) < 1e-6
            assert np.all((probs >= 0) & (probs <= 1))

    def test_constant_shift_preserves_argmax(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            logits = rng.normal(size=7)
            _, p0, _ = softmax_ce1(logits, 3)
            _, p1, _ = softmax_ce1(logits + 123.456, 3)
            assert int(np.argmax(p0)) == int(np.argmax(p1))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=5)
        _, _, grad = softmax_ce1(logits, 2)
        numeric = central_diff(lambda v: softmax_ce1(v, 2)[0], logits)
        assert rel_err(grad, numeric) < 1e-7

    def test_inference_layer_is_the_training_softmax(self):
        """SoftmaxCE.forward and softmax_ce share one softmax: bit-equal rows."""
        rng = np.random.default_rng(14)
        for dtype in (np.float32, np.float64):
            z = rng.uniform(-1e3, 1e3, size=(6, 7)).astype(dtype)
            y = rng.integers(0, 7, size=6)
            probs = nn.SoftmaxCE().forward(z)
            assert probs.dtype == dtype
            assert probs.tobytes() == nn.softmax_ce(z, y)[1].tobytes()

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            softmax_ce1(np.zeros(3), 3)
        with pytest.raises(ValueError):
            softmax_ce1(np.zeros(3), -1)


class TestSgdStep:
    def test_arithmetic(self):
        p = [np.array([1.0])]
        nn.sgd_step(p, [np.array([0.5])], 0.1)
        npt.assert_allclose(p[0], [0.95], rtol=1e-12)

    def test_zero_gradient_is_noop(self):
        p = [np.array([1.5, -2.0])]
        before = p[0].copy()
        nn.sgd_step(p, [np.zeros(2)], 0.3)
        npt.assert_array_equal(p[0], before)

    def test_nonpositive_lr_rejected(self):
        for lr in (0.0, -1.0):
            with pytest.raises(ValueError):
                nn.sgd_step([np.zeros(2)], [np.zeros(2)], lr)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn.sgd_step([np.zeros(2)], [np.zeros(3)], 0.1)

    def test_updates_in_place(self):
        p = np.ones(4, dtype=np.float32)
        nn.sgd_step([p], [np.ones(4, dtype=np.float32)], 0.5)
        npt.assert_allclose(p, np.full(4, 0.5))
