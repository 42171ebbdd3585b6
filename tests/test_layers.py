import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from dcspp_yolo import layers
from dcspp_yolo.gradcheck import (
    check_batchnorm,
    check_conv,
    check_conv_1x1,
    check_conv_strided,
    check_leaky,
    check_maxpool,
    check_reorg,
)
from dcspp_yolo.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    LEAKY_A,
    BNParams,
    ConvParams,
    LayerError,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    leaky_backward,
    leaky_forward,
    maxpool_backward,
    maxpool_forward,
    reorg_backward,
    reorg_forward,
)

RNG = np.random.default_rng(20240501)


def _conv(out_c, in_c, k, stride=1, pad=0, rng=RNG):
    return ConvParams(
        weights=rng.standard_normal((out_c, in_c, k, k)),
        bias=rng.standard_normal(out_c),
        stride=stride,
        pad=pad,
    )


# -- convolution -----------------------------------------------------------


def test_conv_first_layer_shape():
    x = np.zeros((1, 3, 416, 416), dtype=np.float32)
    y, cache = conv2d_forward(x, _conv(32, 3, 3, pad=1))
    assert y.shape == (1, 32, 416, 416)
    # the cache is the padded input, not its (27, 416*416) patch matrix
    assert cache.xp.shape == (3, 418, 418, 1) and cache.in_shape == x.shape


def test_conv_head_shape():
    x = np.zeros((1, 2304, 13, 13), dtype=np.float32)
    y, _ = conv2d_forward(x, _conv(1024, 2304, 3, pad=1))
    assert y.shape == (1, 1024, 13, 13)


def test_conv_identity_kernel():
    x = RNG.standard_normal((2, 1, 6, 6))
    p = ConvParams(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
    assert np.allclose(conv2d_forward(x, p)[0], x)


def test_conv_channel_mismatch():
    with pytest.raises(LayerError, match="channels"):
        conv2d_forward(np.zeros((1, 4, 8, 8)), _conv(2, 3, 3, pad=1))


def test_conv_backward_identity_passthrough():
    x = RNG.standard_normal((1, 1, 5, 5))
    p = ConvParams(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
    g = RNG.standard_normal((1, 1, 5, 5))
    gx, _, _ = conv2d_backward(g, conv2d_forward(x, p)[1], p)
    assert np.allclose(gx, g)


def test_conv_bias_gradient_is_sum():
    x = RNG.standard_normal((2, 3, 7, 7))
    p = _conv(4, 3, 3, pad=1)
    g = RNG.standard_normal((2, 4, 7, 7))
    _, _, gb = conv2d_backward(g, conv2d_forward(x, p)[1], p)
    assert np.allclose(gb, g.sum(axis=(0, 2, 3)))


def test_conv_backward_shape_mismatch():
    x = RNG.standard_normal((1, 3, 8, 8))
    p = _conv(4, 3, 3, pad=1)
    with pytest.raises(LayerError):
        conv2d_backward(np.zeros((1, 4, 5, 5)), conv2d_forward(x, p)[1], p)


def test_conv_1x1_patch_matrix_is_the_input_reshaped():
    # a batch-innermost input, as a conv's output is, needs no copy at all
    x = _batch_innermost(RNG.standard_normal((2, 3, 4, 5)))
    _, cache = conv2d_forward(x, _conv(4, 3, 1))
    cols = layers._im2col(cache.xp, 1, 1, 4, 5)
    assert np.shares_memory(cache.xp, x) and np.shares_memory(cols, x)
    assert np.array_equal(cols, x.transpose(1, 2, 3, 0).reshape(3, 4 * 5 * 2))


@pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (3, 1, 1), (3, 2, 1)])
def test_conv_param_grads_do_not_depend_on_grad_layout(k, stride, pad):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    p = ConvParams(weights=rng.standard_normal((6, 3, k, k)).astype(np.float32),
                   bias=np.zeros(6, dtype=np.float32), stride=stride, pad=pad)
    y, cache = conv2d_forward(x, p)
    g = rng.standard_normal(y.shape).astype(np.float32)
    _, ref_w, ref_b = conv2d_backward(g, cache, p)
    channel_last = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    for x_layout in (x, _batch_innermost(x)):
        _, cache = conv2d_forward(x_layout, p)
        for layout in (g, channel_last, _channel_major(g), _batch_innermost(g)):
            assert np.array_equal(layout, g)
            _, grad_w, grad_b = conv2d_backward(layout, cache, p)
            assert grad_w.tobytes() == ref_w.tobytes()
            assert grad_b.tobytes() == ref_b.tobytes()


@st.composite
def banded_conv_cases(draw, batches=(1, 16)):
    """A conv whose forward spans two or three full bands of output rows and
    a short last one, under the module's band budget, column floor and
    column alignment."""
    n, dtype = draw(st.sampled_from(batches)), draw(st.sampled_from([np.float32, np.float64]))
    # numpy hands a one-row product to gemv, which blocks the columns otherwise
    c, out_c = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.integers(1, 2)) if k > 1 else 2  # a 1x1 stride-1 conv is one band
    pad = draw(st.integers(0, 2))
    w = draw(st.integers(max(1, k - 2 * pad), 12))
    ow = layers.conv2d_out_hw(w, w, k, stride, pad)[1]
    rows = max(layers._BAND_BYTES // (c * k * k * ow * n * np.dtype(dtype).itemsize),
               -(-layers._BAND_COLUMNS // (ow * n)))
    step = layers._BAND_ALIGN // np.gcd(ow * n, layers._BAND_ALIGN)
    rows = -(-rows // step) * step
    oh = rows * draw(st.integers(2, 3)) + draw(st.integers(1, rows - 1))
    h = (oh - 1) * stride + k - 2 * pad
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    p = ConvParams(weights=rng.standard_normal((out_c, c, k, k)).astype(dtype),
                   bias=rng.standard_normal(out_c).astype(dtype), stride=stride, pad=pad)
    return x, p


@given(banded_conv_cases())
@settings(max_examples=60, deadline=None)
def test_banded_conv_equals_whole_patch_matrix_gemm_bytewise(case):
    x, p = case
    y, cache = conv2d_forward(x, p)
    oc, oh, ow = y.shape[1:]
    wm = p.weights.reshape(oc, -1)
    cols = layers._im2col(cache.xp, p.kernel, p.stride, oh, ow)
    whole = wm @ cols
    whole += p.bias[:, None]
    got = y.transpose(1, 2, 3, 0).reshape(oc, -1)
    # Bands split the columns where the whole product's BLAS micro-kernel
    # blocks do. The whole matrix's last, partial block (none at batch 16) is
    # in the short last band, whose product may be small enough for OpenBLAS's
    # small-matrix kernel: there the sum order, not the accuracy, may differ.
    full = got.shape[1] - got.shape[1] % layers._BAND_ALIGN
    assert got[:, :full].tobytes() == whole[:, :full].tobytes()
    bound = (np.abs(wm) @ np.abs(cols[:, full:]) + np.abs(p.bias)[:, None]) * (
        cols.shape[0] * np.finfo(x.dtype).eps)
    assert (np.abs(got[:, full:] - whole[:, full:]) <= bound).all()


def test_conv_forward_peaks_far_below_its_whole_patch_matrix():
    # the 416 build's conv2: its (32*3*3, 208*208) float32 patch matrix is 47.5 MiB
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 32, 208, 208)).astype(np.float32)
    p = ConvParams(weights=rng.standard_normal((64, 32, 3, 3)).astype(np.float32),
                   bias=np.zeros(64, dtype=np.float32), pad=1)
    whole = 32 * 3 * 3 * 208 * 208 * 4
    tracemalloc.start()
    try:
        conv2d_forward(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the padded input, the output and one band, against that matrix alone
    assert peak < whole / 2, (peak / 2**20, whole / 2**20)


def whole_matrix_conv_backward(grad_out, cache, p):
    """The weight and input gradients from the whole patch matrix: one
    weight-gradient GEMM, and one column-gradient GEMM scattered window
    offset by window offset. conv2d_backward did this before it walked
    the forward's bands."""
    n, c, h, w = cache.in_shape
    k, s, pad, oc = p.kernel, p.stride, p.pad, p.out_channels
    oh, ow = grad_out.shape[2:]
    go = np.ascontiguousarray(grad_out.transpose(1, 2, 3, 0)).reshape(oc, -1)
    cols = layers._im2col(cache.xp, k, s, oh, ow)
    grad_w = (cols @ go.T).T.reshape(p.weights.shape)
    grad_cols = (p.weights.reshape(oc, -1).T @ go).reshape(c, k * k, oh, ow, n)
    grad_xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=grad_cols.dtype)
    for o, (rows, columns) in enumerate(layers._windows(k, s, oh, ow)):
        grad_xp[:, rows, columns] += grad_cols[:, o]
    grad_x = grad_xp.transpose(3, 0, 1, 2)[:, :, pad:pad + h, pad:pad + w]
    return grad_x, grad_w, cols, go


def _band_count(x, p):
    oh, ow = layers.conv2d_out_hw(x.shape[2], x.shape[3], p.kernel, p.stride, p.pad)
    bands, _ = layers._bands(np.empty((x.shape[1], 1, 1, x.shape[0]), x.dtype),
                             p.kernel, p.stride, oh, ow)
    assert bands[-1][1] < bands[0][1]  # a short last band
    return len(bands)


@given(banded_conv_cases(batches=(16,)), st.booleans())
@settings(max_examples=40, deadline=None)
def test_banded_conv_input_grad_equals_whole_matrix_scatter_bytewise(case, batch_innermost):
    # At batch 16 every band is whole 16-column blocks, as the whole matrix
    # is, so each band's column gradient has the whole product's bytes (a
    # partial last block may take another BLAS edge path, as in the forward
    # test above); the last-band-first scatter must then keep every cell's
    # sum order.
    x, p = case
    assert _band_count(x, p) >= 3
    y, cache = conv2d_forward(x, p)
    g = np.random.default_rng(5).standard_normal(y.shape).astype(x.dtype)
    g = _batch_innermost(g) if batch_innermost else g
    got = conv2d_backward(g, cache, p)[0]
    ref = whole_matrix_conv_backward(g, cache, p)[0]
    assert got.strides == ref.strides and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@given(banded_conv_cases())
@settings(max_examples=40, deadline=None)
def test_banded_conv_weight_grad_equals_whole_matrix_gemm_within_tolerance(case):
    # the per-band sums change the float order of the weight gradient: each
    # element stays within CONV_TOLERANCE of its sum of absolute terms
    x, p = case
    assert _band_count(x, p) >= 3
    y, cache = conv2d_forward(x, p)
    g = np.random.default_rng(6).standard_normal(y.shape).astype(x.dtype)
    got = conv2d_backward(g, cache, p)[1]
    _, ref, cols, go = whole_matrix_conv_backward(g, cache, p)
    magnitude = (np.abs(cols) @ np.abs(go).T).T.reshape(p.weights.shape)
    assert got.dtype == ref.dtype
    assert (np.abs(got - ref) <= CONV_TOLERANCE[x.dtype] * magnitude).all()


def test_conv_backward_peaks_far_below_its_whole_patch_matrix():
    # the tiny preset's conv1: its (3*3*3, 96*96*16) float32 patch matrix is 15.2 MiB
    rng = np.random.default_rng(7)
    x = rng.standard_normal((16, 3, 96, 96)).astype(np.float32)
    p = ConvParams(weights=rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                   bias=np.zeros(4, dtype=np.float32), pad=1)
    y, cache = conv2d_forward(x, p)
    g = rng.standard_normal(y.shape).astype(np.float32)
    whole = 3 * 3 * 3 * 96 * 96 * 16 * 4
    tracemalloc.start()
    try:
        conv2d_backward(g, cache, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output gradient's copies, the input gradient and two band buffers
    assert peak < whole / 2, (peak / 2**20, whole / 2**20)


def test_conv_gradcheck():
    assert check_conv() < 1e-4
    assert check_conv_strided() < 1e-4
    assert check_conv_1x1() < 1e-4


# -- batch normalization ----------------------------------------------------


def test_bn_training_normalizes():
    x = RNG.standard_normal((4, 3, 8, 8)) * 3.0 + 1.5
    p = BNParams.identity(3)
    y, _ = batchnorm_forward(x, p, training=True)
    assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-5
    assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3


def test_bn_affine_law():
    x = RNG.standard_normal((4, 2, 6, 6))
    base = BNParams.identity(2)
    ref, _ = batchnorm_forward(x, base, training=True)
    p = BNParams.identity(2)
    p.gamma[:] = 2.0
    p.beta[:] = 3.0
    y, _ = batchnorm_forward(x, p, training=True)
    assert np.allclose(y, 2.0 * ref + 3.0)


def test_bn_inference_identity_stats():
    x = RNG.standard_normal((2, 3, 5, 5))
    p = BNParams.identity(3)
    y, cache = batchnorm_forward(x, p, training=False)
    assert cache is None
    assert np.allclose(y, x, atol=1e-4)


def test_bn_running_stats_update():
    x = RNG.standard_normal((8, 2, 16, 16)) + 5.0
    p = BNParams.identity(2)
    batchnorm_forward(x, p, training=True)
    expected = BN_MOMENTUM * 0.0 + (1.0 - BN_MOMENTUM) * x.mean(axis=(0, 2, 3))
    assert np.allclose(p.running_mean, expected, rtol=1e-5)


def test_bn_channel_mismatch():
    with pytest.raises(LayerError):
        batchnorm_forward(np.zeros((1, 4, 3, 3)), BNParams.identity(3), training=True)


def test_bn_backward_beta_gradient_is_sum():
    x = RNG.standard_normal((3, 2, 4, 4))
    p = BNParams.identity(2)
    _, cache = batchnorm_forward(x, p, training=True)
    g = RNG.standard_normal(x.shape)
    _, _, gbeta = batchnorm_backward(g, cache, p)
    assert np.allclose(gbeta, g.sum(axis=(0, 2, 3)))


def test_bn_backward_requires_cache():
    with pytest.raises(LayerError, match="cache"):
        batchnorm_backward(np.zeros((1, 2, 3, 3)), None, BNParams.identity(2))


def test_bn_constant_batch_no_nan():
    x = np.full((4, 2, 5, 5), 3.25)
    p = BNParams.identity(2)
    y, cache = batchnorm_forward(x, p, training=True)
    gx, _, _ = batchnorm_backward(np.ones_like(x), cache, p)
    assert np.isfinite(y).all()
    assert np.isfinite(gx).all()


def test_bn_gradcheck():
    assert check_batchnorm() < 1e-4


def oracle_bn_inference(x, p):
    """The unfolded inference formula: gamma * (x - mean) / std + beta."""
    inv_std = 1.0 / np.sqrt(p.running_var + BN_EPSILON)
    return (
        p.gamma[None, :, None, None] * (x - p.running_mean[None, :, None, None])
        * inv_std[None, :, None, None]
        + p.beta[None, :, None, None]
    )


# Folding gamma / std into one scale and beta - mean * scale into one shift
# rounds differently from the oracle. Each form errs by a few units in the
# last place of the terms it adds, |x * scale|, |mean * scale| and |beta|, so
# the difference is held to 8 eps of their sum, element by element.
BN_FOLD_ULPS = 8


@given(st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_bn_inference_folded_equals_oracle_within_tolerance(dtype, seed, mean_over_std):
    rng = np.random.default_rng(seed)
    c = 5
    std = rng.uniform(0.05, 4.0, c)
    mean = rng.choice([-1.0, 1.0], c) * mean_over_std * std
    p = BNParams(gamma=rng.uniform(-3.0, 3.0, c).astype(dtype),
                 beta=rng.normal(0.0, 2.0, c).astype(dtype),
                 running_mean=mean.astype(dtype), running_var=(std ** 2).astype(dtype))
    x = (rng.standard_normal((3, c, 4, 4)) * std[None, :, None, None]
         + mean[None, :, None, None]).astype(dtype)
    y, cache = batchnorm_forward(x, p, training=False)
    assert cache is None and y.dtype == dtype
    ref = oracle_bn_inference(x, p)
    scale = p.gamma / np.sqrt(p.running_var + BN_EPSILON)
    size = (np.abs(x * scale[None, :, None, None])
            + np.abs(p.running_mean * scale)[None, :, None, None]
            + np.abs(p.beta)[None, :, None, None])
    assert (np.abs(y - ref) <= BN_FOLD_ULPS * np.finfo(dtype).eps * size).all()
    # written in place, the same bytes
    inplace = x.copy()
    got, _ = batchnorm_forward(inplace, p, training=False, out=inplace)
    assert got is inplace and got.tobytes() == y.tobytes()


# The training kernels these replaced, kept as oracles: two means and two
# centrings in the forward, and a backward that scales the gradient by gamma
# before it sums it.


def oracle_bn_training_forward(x, p):
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    m = BN_MOMENTUM
    p.running_mean[:] = m * p.running_mean + (1.0 - m) * mu
    p.running_var[:] = m * p.running_var + (1.0 - m) * var
    y = p.gamma[None, :, None, None] * xhat + p.beta[None, :, None, None]
    return y, layers.BNCache(xhat=xhat, inv_std=inv_std)


def oracle_bn_training_backward(grad_out, cache, p):
    xhat, inv_std = cache.xhat, cache.inv_std
    n, c, h, w = grad_out.shape
    m = n * h * w
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    dxhat = grad_out * p.gamma[None, :, None, None]
    sum_dxhat = dxhat.sum(axis=(0, 2, 3))[None, :, None, None]
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
    grad_x = (inv_std[None, :, None, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return grad_x, grad_gamma, grad_beta


def _bn_params(rng, c, dtype):
    return BNParams(gamma=rng.uniform(-3.0, 3.0, c).astype(dtype),
                    beta=rng.normal(0.0, 2.0, c).astype(dtype),
                    running_mean=rng.normal(0.0, 1.0, c).astype(dtype),
                    running_var=rng.uniform(0.5, 2.0, c).astype(dtype))


def _bn_copy(p):
    return BNParams(*(a.copy() for a in (p.gamma, p.beta, p.running_mean, p.running_var)))


# The closed-form backward drops the oracle's scaling of g by gamma before
# its sums, so its input gradient rounds differently. Each form rounds the
# two per-channel sums, pairwise and at most log2(m) + 1 additions deep, and
# about four element-wise operations; for the m <= 144 values per channel
# drawn here 16 eps of the magnitudes of the terms, element by element,
# bounds the difference. (The largest seen over 3000 draws was 1.8 eps.)
BN_TRAINING_ULPS = 16


@st.composite
def bn_training_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    std = rng.uniform(0.05, 4.0, c)
    mean = rng.choice([-1.0, 1.0], c) * draw(st.floats(0.0, 50.0)) * std
    x = (rng.standard_normal((n, c, h, w)) * std[None, :, None, None]
         + mean[None, :, None, None]).astype(dtype)
    g = (rng.standard_normal((n, c, h, w)) * draw(st.floats(1e-3, 1e3))).astype(dtype)
    x = _channel_major(x) if draw(st.booleans()) else x
    g = _channel_major(g) if draw(st.booleans()) else g
    return x, g, _bn_params(rng, c, dtype)


@given(bn_training_cases())
@settings(max_examples=300, deadline=None)
def test_bn_training_equals_oracle(case):
    x, g, p = case
    ref_p = _bn_copy(p)
    y, cache = batchnorm_forward(x, p, training=True)
    y_ref, ref_cache = oracle_bn_training_forward(x, ref_p)
    # one centring, the variance from its square: the oracle's bytes
    for got, ref in ((y, y_ref), (cache.xhat, ref_cache.xhat), (cache.inv_std, ref_cache.inv_std),
                     (p.running_mean, ref_p.running_mean), (p.running_var, ref_p.running_var)):
        assert got.dtype == ref.dtype == x.dtype and got.tobytes() == ref.tobytes()

    grad_x, grad_gamma, grad_beta = batchnorm_backward(g, cache, p)
    ref_x, ref_gamma, ref_beta = oracle_bn_training_backward(g, cache, p)
    assert grad_gamma.tobytes() == ref_gamma.tobytes()
    assert grad_beta.tobytes() == ref_beta.tobytes()
    assert grad_x.dtype == x.dtype and grad_x.shape == x.shape
    m = g.size // g.shape[1]
    per_channel = (p.gamma * cache.inv_std)[None, :, None, None]
    mean_abs_g = (np.abs(g).sum(axis=(0, 2, 3)) / m)[None, :, None, None]
    mean_abs_gx = (np.abs(g * cache.xhat).sum(axis=(0, 2, 3)) / m)[None, :, None, None]
    size = np.abs(per_channel) * (np.abs(g) + mean_abs_g + np.abs(cache.xhat) * mean_abs_gx)
    assert (np.abs(grad_x - ref_x) <= BN_TRAINING_ULPS * np.finfo(x.dtype).eps * size).all()


@pytest.mark.parametrize("seed, channel_major", [(0, True), (1, True), (2, False)])
def test_bn_training_backward_no_less_accurate_than_oracle(seed, channel_major):
    # a conv1-sized float32 batch, against the oracle run in float64
    rng = np.random.default_rng(seed)
    shape = (16, 8, 96, 96)
    x = (rng.standard_normal(shape) * rng.uniform(0.1, 3.0, 8)[None, :, None, None]
         + rng.uniform(-5.0, 5.0, 8)[None, :, None, None]).astype(np.float32)
    g = (rng.standard_normal(shape) * 1e-3).astype(np.float32)
    if channel_major:
        x, g = _channel_major(x), _channel_major(g)
    p = _bn_params(rng, 8, np.float32)
    p64 = BNParams(*(a.astype(np.float64) for a in (p.gamma, p.beta, p.running_mean, p.running_var)))
    _, cache64 = oracle_bn_training_forward(x.astype(np.float64), p64)
    exact = oracle_bn_training_backward(g.astype(np.float64), cache64, p64)
    _, cache = batchnorm_forward(x, _bn_copy(p), training=True)
    got = batchnorm_backward(g, cache, p)
    old = oracle_bn_training_backward(g, cache, p)
    for a, b, ref in zip(got, old, exact):
        scale = np.abs(ref).max()
        assert np.abs(a - ref).max() / scale <= np.abs(b - ref).max() / scale


# -- leaky ReLU --------------------------------------------------------------


def test_leaky_positive_passthrough():
    assert leaky_forward(np.array([[[[5.0]]]]))[0, 0, 0, 0] == 5.0


def test_leaky_negative_divided():
    y = leaky_forward(np.array([[[[-5.0]]]]))
    assert y[0, 0, 0, 0] == pytest.approx(-0.5)


def test_leaky_backward_slope():
    g = np.ones((1, 1, 1, 1))
    x = np.array([[[[-1.0]]]])
    assert leaky_backward(g, x >= 0)[0, 0, 0, 0] == pytest.approx(0.1)


@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=100)
def test_leaky_monotone(a, b):
    lo, hi = (min(a, b), max(a, b))
    ylo = leaky_forward(np.array([[[[lo]]]]))[0, 0, 0, 0]
    yhi = leaky_forward(np.array([[[[hi]]]]))[0, 0, 0, 0]
    assert ylo <= yhi


def test_leaky_continuous_at_zero():
    eps = 1e-12
    below = leaky_forward(np.array([[[[-eps]]]]))[0, 0, 0, 0]
    at = leaky_forward(np.array([[[[0.0]]]]))[0, 0, 0, 0]
    assert at == 0.0
    assert abs(below) < 1e-12


def test_leaky_gradcheck():
    assert check_leaky() < 1e-4


def oracle_leaky_forward(x):
    return np.where(x >= 0, x, x / LEAKY_A)


def oracle_leaky_backward(grad_out, cached_x):
    return np.where(cached_x >= 0, grad_out, grad_out / LEAKY_A)


def _special_values(dtype):
    fi = np.finfo(dtype)
    return [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
            *(s * float(v) for v in (fi.smallest_subnormal, fi.tiny, fi.max) for s in (1, -1))]


def _channel_major(a):
    """The same values laid out (c, n, h, w) in memory."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _batch_innermost(a):
    """The same values laid out (c, h, w, n) in memory, as conv outputs are."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


@st.composite
def leaky_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = st.one_of(st.sampled_from(_special_values(dtype)),
                         st.floats(width=np.finfo(dtype).bits, allow_nan=False))
    return tuple(draw(arrays(dtype, (2, 3, 2, 3), elements=elements)) for _ in range(2))


@given(leaky_cases())
@settings(max_examples=300, deadline=None)
def test_leaky_forward_equals_where_oracle_bytewise(case):
    x, _ = case
    ref = oracle_leaky_forward(x)
    y = leaky_forward(x)
    assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
    inplace = x.copy()
    assert leaky_forward(inplace, out=inplace) is inplace
    assert inplace.tobytes() == ref.tobytes()


def test_leaky_forward_in_place_peaks_far_below_its_input():
    # the 416 build's conv1 output: 21 MiB of float32, with no full-size x / a
    x = np.random.default_rng(4).standard_normal((1, 32, 416, 416)).astype(np.float32)
    ref = oracle_leaky_forward(x)
    tracemalloc.start()
    try:
        leaky_forward(x, out=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 8, (peak / 2**20, x.nbytes / 2**20)
    assert x.tobytes() == ref.tobytes()  # across 32 one-channel slices


@pytest.mark.parametrize("x_channel_major", [False, True])
@pytest.mark.parametrize("g_channel_major", [False, True])
@given(case=leaky_cases())
@settings(max_examples=100, deadline=None)
def test_leaky_backward_equals_where_oracle_bytes_and_strides(case, g_channel_major,
                                                               x_channel_major):
    x, g = case
    x = _channel_major(x) if x_channel_major else x
    g = _channel_major(g) if g_channel_major else g
    ref = oracle_leaky_backward(g, x)
    got = leaky_backward(g, x >= 0)  # the mask the network caches, not x
    # the layout reaches the float32 sums of batch norm and conv backward
    assert got.strides == ref.strides
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


# -- max pooling --------------------------------------------------------------


def test_maxpool_stride2_halves():
    y, _ = maxpool_forward(np.zeros((1, 32, 416, 416), dtype=np.float32), 2, 2, (0, 0))
    assert y.shape == (1, 32, 208, 208)


def test_maxpool_spp_window_preserves():
    y, _ = maxpool_forward(np.zeros((1, 512, 13, 13), dtype=np.float32), 13, 1, (6, 6))
    assert y.shape == (1, 512, 13, 13)


def test_maxpool_constant_interior():
    x = np.full((1, 1, 9, 9), 2.5)
    y, _ = maxpool_forward(x, 3, 1, (1, 1))
    assert np.all(y[:, :, 1:-1, 1:-1] == 2.5)


def test_maxpool_window_larger_than_padded_input_rejected():
    with pytest.raises(LayerError, match="do not fit"):
        maxpool_forward(np.zeros((1, 1, 2, 3)), 4, 1, (0, 1))
    with pytest.raises(LayerError):
        maxpool_forward(np.zeros((1, 1, 4, 4)), 2, 0, (0, 0))


def test_maxpool_backward_conserves_mass():
    x = RNG.uniform(0.5, 2.0, (2, 3, 8, 8))  # positive, so zero padding never wins
    for size, stride, pad in ((2, 2, (0, 0)), (3, 1, (1, 1))):
        y, cache = maxpool_forward(x, size, stride, pad)
        g = RNG.standard_normal(y.shape)
        gx = maxpool_backward(g, cache)
        assert gx.sum() == pytest.approx(g.sum(), rel=1e-9)


def test_maxpool_tie_breaks_first_in_scan_order():
    x = np.full((1, 1, 2, 2), 7.0)
    y, cache = maxpool_forward(x, 2, 2, (0, 0))
    gx = maxpool_backward(np.ones((1, 1, 1, 1)), cache)
    assert gx[0, 0, 0, 0] == 1.0
    assert gx.sum() == 1.0


def test_maxpool_gradcheck():
    assert check_maxpool() < 1e-4


# -- window kernels against the sliding-window oracles ----------------------------
# The im2col, convolution and max-pool kernels these replaced, kept as
# oracles: a per-image sliding window view with a batched matmul, an argmax
# per window (the first maximum on a tie) and an np.add.at scatter through
# flat indices.


def oracle_im2col(xp, k, stride):
    """(n, c, hp, wp) -> per-image (n, c*k*k, oh*ow) patch matrices."""
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
    return np.ascontiguousarray(cols)


def _pad(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def oracle_conv2d_forward(x, p):
    n, _, h, w = x.shape
    oh, ow = layers.conv2d_out_hw(h, w, p.kernel, p.stride, p.pad)
    cols = oracle_im2col(_pad(x, p.pad), p.kernel, p.stride)
    y = np.matmul(p.weights.reshape(p.out_channels, -1), cols) + p.bias[:, None]
    return y.reshape(n, p.out_channels, oh, ow)


def oracle_conv2d_backward(grad_out, x, p):
    n, c, h, w = x.shape
    k, s, pad = p.kernel, p.stride, p.pad
    oh, ow = grad_out.shape[2:]
    cols = oracle_im2col(_pad(x, pad), k, s)
    go = grad_out.reshape(n, p.out_channels, oh * ow)
    grad_b = go.sum(axis=(0, 2))
    go_flat = np.ascontiguousarray(go.transpose(1, 0, 2)).reshape(p.out_channels, -1)
    cols_flat = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(cols.shape[1], -1)
    grad_w = (go_flat @ cols_flat.T).reshape(p.weights.shape)
    grad_cols = np.matmul(p.weights.reshape(p.out_channels, -1).T, go).reshape(n, c, k, k, oh, ow)
    grad_xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    for dy in range(k):
        for dx in range(k):
            grad_xp[:, :, dy:dy + s * (oh - 1) + 1:s, dx:dx + s * (ow - 1) + 1:s] += \
                grad_cols[:, :, dy, dx]
    return grad_xp[:, :, pad:pad + h, pad:pad + w], grad_w, grad_b


def oracle_maxpool_forward(x, size, stride, pad):
    pb, pa = pad
    xp = np.pad(x, ((0, 0), (0, 0), (pb, pa), (pb, pa)))
    win = sliding_window_view(xp, (size, size), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, oh, ow = win.shape[:4]
    flat = win.reshape(n, c, oh, ow, size * size)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return y, (arg, x.shape, size, stride, pad)


def oracle_maxpool_backward(grad_out, cache):
    arg, (n, c, h, w), size, stride, (pb, pa) = cache
    hp, wp = h + pb + pa, w + pb + pa
    oh, ow = arg.shape[2], arg.shape[3]
    oy = np.arange(oh)[:, None] * stride
    ox = np.arange(ow)[None, :] * stride
    rows = oy[None, None] + arg // size
    cols = ox[None, None] + arg % size
    nc = np.arange(n * c).reshape(n, c, 1, 1)
    flat_idx = (nc * hp + rows) * wp + cols
    grad_p = np.zeros(n * c * hp * wp, dtype=grad_out.dtype)
    np.add.at(grad_p, flat_idx.ravel(), grad_out.ravel())
    return grad_p.reshape(n, c, hp, wp)[:, :, pb:hp - pa, pb:wp - pa]


# few distinct values, signed zeros and all-negative windows make ties and
# windows won by the zero padding common
TIE_VALUES = [-0.0, 0.0, 1.0, -1.0, 2.0, -2.0]


@st.composite
def pool_cases(draw, values=st.sampled_from(TIE_VALUES)):
    size = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    pb, pa = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    lo = max(1, size - pb - pa)
    h, w = draw(st.integers(lo, lo + 6)), draw(st.integers(lo, lo + 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = draw(arrays(dtype, (draw(st.integers(1, 2)), draw(st.integers(1, 2)), h, w),
                    elements=values | st.floats(-3, 3, width=32)))
    return x, size, stride, (pb, pa)


@given(pool_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_maxpool_equals_argmax_oracle_bytewise(case, data):
    x, size, stride, pad = case
    x = _batch_innermost(x) if data.draw(st.booleans()) else x
    y, cache = maxpool_forward(x, size, stride, pad)
    y_ref, ref_cache = oracle_maxpool_forward(x, size, stride, pad)
    assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
    # 1e-20 vanishes next to 1.0 in either dtype, so a sum over overlapping
    # windows taken in another order than the oracle's shows in the bytes;
    # an infinite or NaN gradient must reach its own slot and no other
    g = data.draw(arrays(x.dtype, y.shape,
                         elements=st.sampled_from(TIE_VALUES + [0.1, 1e-20, np.inf, -np.inf,
                                                                np.nan, -np.nan])
                         | st.floats(-2, 2, width=32)))
    g = _batch_innermost(g) if data.draw(st.booleans()) else g
    with np.errstate(invalid="ignore"):  # inf + -inf in a cell of overlapping windows
        gx, gx_ref = maxpool_backward(g, cache), oracle_maxpool_backward(g, ref_cache)
    assert gx.shape == x.shape and gx.dtype == gx_ref.dtype
    # IEEE 754 leaves the sign of a NaN made from NaN or inf operands open, so
    # where two or more non-finite gradients meet only NaN-ness is compared
    met = oracle_maxpool_backward((~np.isfinite(g)).astype(g.dtype), ref_cache) >= 2
    assert np.array_equal(np.isnan(gx[met]), np.isnan(gx_ref[met]))
    assert gx[~met].tobytes() == gx_ref[~met].tobytes()


@given(pool_cases(values=st.sampled_from(TIE_VALUES + [np.nan])))
@settings(max_examples=100, deadline=None)
def test_maxpool_forward_puts_nan_where_oracle_does(case):
    # the backward pass does not route through NaN (training stops on a
    # non-finite loss before backward), so only the forward is compared
    x, size, stride, pad = case
    y, _ = maxpool_forward(x, size, stride, pad)
    y_ref, _ = oracle_maxpool_forward(x, size, stride, pad)
    assert np.array_equal(np.isnan(y), np.isnan(y_ref))
    assert y[~np.isnan(y)].tobytes() == y_ref[~np.isnan(y_ref)].tobytes()


@given(pool_cases())
@settings(max_examples=100, deadline=None)
def test_im2col_equals_sliding_window_oracle(case):
    # the batch folds into the columns, innermost: (c*k*k, oh*ow*n)
    x, k, stride, (pb, pa) = case
    xp = np.pad(x, ((0, 0), (0, 0), (pb, pa), (pb, pa)))
    oh, ow = layers.maxpool_out_hw(x.shape[2], x.shape[3], k, stride, (pb, pa))
    cols = layers._im2col(np.ascontiguousarray(xp.transpose(1, 2, 3, 0)), k, stride, oh, ow)
    per_image = oracle_im2col(xp, k, stride)
    ref = per_image.transpose(1, 2, 0).reshape(per_image.shape[1], -1)
    assert cols.shape == ref.shape and cols.tobytes() == ref.tobytes()


# The batch-folded GEMM sums in another order than the per-image oracle, so
# it is held to a tolerance per dtype, relative to each element's sum of
# absolute terms: a sum that cancels can lose every digit to reordering.
CONV_TOLERANCE = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


@st.composite
def conv_cases(draw):
    n, c, out_c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    lo = max(1, k - 2 * pad)
    h, w = draw(st.integers(lo, lo + 6)), draw(st.integers(lo, lo + 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    p = ConvParams(weights=rng.standard_normal((out_c, c, k, k)).astype(dtype),
                   bias=rng.standard_normal(out_c).astype(dtype), stride=stride, pad=pad)
    g = rng.standard_normal((n, out_c, *layers.conv2d_out_hw(h, w, k, stride, pad)))
    x_layout, g_layout = (draw(st.sampled_from([np.ascontiguousarray, _batch_innermost]))
                          for _ in range(2))
    return x_layout(x), p, g_layout(g.astype(dtype))


@given(conv_cases())
@settings(max_examples=300, deadline=None)
def test_conv_equals_per_image_oracle_within_tolerance(case):
    x, p, g = case
    y, cache = conv2d_forward(x, p)
    got = [y, *conv2d_backward(g, cache, p)]
    # the oracle's sums follow the memory order of its inputs, so it gets them in C order
    xc, gc = np.ascontiguousarray(x), np.ascontiguousarray(g)
    ref = [oracle_conv2d_forward(xc, p), *oracle_conv2d_backward(gc, xc, p)]
    # the same sums over the absolute values of their terms
    abs_p = ConvParams(weights=np.abs(p.weights), bias=np.abs(p.bias), stride=p.stride, pad=p.pad)
    xa, ga = np.abs(xc), np.abs(gc)
    magnitude = [oracle_conv2d_forward(xa, abs_p), *oracle_conv2d_backward(ga, xa, abs_p)]
    for name, a, b, m in zip(("y", "grad_x", "grad_w", "grad_b"), got, ref, magnitude):
        assert a.shape == b.shape and a.dtype == b.dtype == x.dtype, name
        excess = np.abs(a - b) - CONV_TOLERANCE[x.dtype] * m
        assert (excess <= 0).all(), (name, excess.max())


def test_maxpool_all_negative_window_takes_padding_zero():
    x = np.full((1, 1, 2, 2), -1.0)
    y, cache = maxpool_forward(x, 2, 1, (0, 1))
    assert y.tolist() == [[[[-1.0, 0.0], [0.0, 0.0]]]]
    gx = maxpool_backward(np.ones_like(y), cache)
    assert gx.tolist() == [[[[1.0, 0.0], [0.0, 0.0]]]]  # padding wins take no gradient


def test_maxpool_signed_zero_tie_keeps_first():
    # window 0 sees -0.0 first, then 0.0 and padding; window 1 sees 0.0 first
    y, cache = maxpool_forward(np.array([[[[-0.0, 0.0]]]]), 2, 1, (0, 1))
    assert np.signbit(y[0, 0, 0, 0]) and not np.signbit(y[0, 0, 0, 1])
    gx = maxpool_backward(np.array([[[[3.0, 5.0]]]]), cache)
    assert gx.tolist() == [[[[3.0, 5.0]]]]


# -- dtype ----------------------------------------------------------------------


@given(st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_every_kernel_returns_its_input_dtype(dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
    g = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
    conv = ConvParams(weights=rng.standard_normal((3, 3, 3, 3)).astype(dtype),
                      bias=rng.standard_normal(3).astype(dtype), pad=1)
    bn = BNParams(*(np.full(3, v, dtype=dtype) for v in (1.5, 0.5, 0.0, 1.0)))
    conv_y, conv_cache = conv2d_forward(x, conv)
    bn_y, bn_cache = batchnorm_forward(x, bn, training=True)
    pool_y, pool_cache = maxpool_forward(x, 3, 1, (1, 1))
    outs = {
        "conv2d_forward": [conv_y, conv_cache.xp],
        "conv2d_backward": conv2d_backward(g, conv_cache, conv),
        "batchnorm_forward": [bn_y, batchnorm_forward(x, bn, training=False)[0]],
        "batchnorm_backward": batchnorm_backward(g, bn_cache, bn),
        "leaky_forward": [leaky_forward(x)],
        "leaky_backward": [leaky_backward(g, x >= 0)],
        "maxpool_forward": [pool_y],
        "maxpool_backward": [maxpool_backward(g, pool_cache)],
        "reorg_forward": [reorg_forward(x, 2)],
        "reorg_backward": [reorg_backward(g.reshape(2, 12, 3, 3), 2)],
    }
    for name, arrays_out in outs.items():
        assert [a.dtype for a in arrays_out] == [dtype] * len(arrays_out), name


# -- reorg --------------------------------------------------------------------


def test_reorg_passthrough_shape():
    y = reorg_forward(np.zeros((1, 64, 26, 26), dtype=np.float32), 2)
    assert y.shape == (1, 256, 13, 13)


def test_reorg_round_trip():
    x = RNG.standard_normal((2, 3, 8, 8))
    assert np.array_equal(reorg_backward(reorg_forward(x, 2), 2), x)


def test_reorg_2x2_permutation():
    # enumerate the 4-element permutation: [a, b; c, d] -> channels [a, b, c, d]
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    x = np.array([[[[a, b], [c, d]]]])
    y = reorg_forward(x, 2)
    assert y.shape == (1, 4, 1, 1)
    assert y[0, :, 0, 0].tolist() == [a, b, c, d]


def test_reorg_indivisible_rejected():
    with pytest.raises(LayerError):
        reorg_forward(np.zeros((1, 1, 5, 5)), 2)


def test_reorg_gradcheck():
    assert check_reorg() < 1e-4
