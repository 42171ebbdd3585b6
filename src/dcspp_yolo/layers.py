"""Primitive network layers: convolution, batch norm, leaky ReLU, max
pooling, and space-to-depth, each with an exact analytic backward pass.

All functions operate on plain (n, c, h, w) float arrays and preserve
the input dtype, so the same code runs in float32 for training and in
float64 for finite-difference verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class LayerError(ValueError):
    """Invalid layer configuration or mismatched shapes."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class ConvParams:
    weights: np.ndarray  # (out_c, in_c, k, k)
    bias: np.ndarray     # (out_c,)
    stride: int = 1
    pad: int = 0

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]


@dataclass
class BNParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    momentum: float = 0.99

    @classmethod
    def identity(cls, channels: int, epsilon: float = 1e-5, momentum: float = 0.99) -> "BNParams":
        return cls(
            gamma=np.ones(channels, dtype=np.float32),
            beta=np.zeros(channels, dtype=np.float32),
            running_mean=np.zeros(channels, dtype=np.float32),
            running_var=np.ones(channels, dtype=np.float32),
            epsilon=epsilon,
            momentum=momentum,
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class LeakyParams:
    """Negative inputs are divided by `a`; a must exceed 1."""

    a: float = 10.0

    def __post_init__(self) -> None:
        if not self.a > 1.0:
            raise LayerError(f"leaky divisor a must be > 1, got {self.a}")


@dataclass
class BNCache:
    xhat: np.ndarray
    inv_std: np.ndarray


@dataclass
class MaxPoolCache:
    argmax: np.ndarray           # (n, c, oh, ow) flat index into the size*size window
    in_shape: tuple[int, ...]
    size: int
    stride: int
    pad: tuple[int, int] = (0, 0)


# ---------------------------------------------------------------------------
# convolution


def _pad_hw(x: np.ndarray, before: int, after: int, value: float = 0.0) -> np.ndarray:
    if before == 0 and after == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (before, after), (before, after)), constant_values=value)


def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(n, c, hp, wp) -> (n, c*k*k, oh*ow) patch matrix.

    Column order matches weights.reshape(out_c, in_c*k*k): channel-major,
    then kernel row, then kernel column.
    """
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
    return np.ascontiguousarray(cols)


def conv2d_out_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def conv2d_forward(x: np.ndarray, p: ConvParams) -> np.ndarray:
    n, c, h, w = x.shape
    if c != p.in_channels:
        raise LayerError(f"conv: input has {c} channels, kernel expects {p.in_channels}")
    k, s = p.kernel, p.stride
    oh, ow = conv2d_out_hw(h, w, k, s, p.pad)
    if oh < 1 or ow < 1:
        raise LayerError(f"conv: input {h}x{w} too small for kernel {k} stride {s} pad {p.pad}")
    cols = _im2col(_pad_hw(x, p.pad, p.pad), k, s)
    wm = p.weights.reshape(p.out_channels, -1)
    y = np.matmul(wm, cols) + p.bias[:, None]
    return y.reshape(n, p.out_channels, oh, ow)


def conv2d_backward(
    grad_out: np.ndarray, cached_x: np.ndarray, p: ConvParams, *, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, weights and bias.

    The input gradient is the correlation of the output gradient with the
    180-degree-rotated kernel, realized here by scattering the column
    gradients back through the im2col geometry. With input_grad=False it
    is not computed and None takes its place.
    """
    n, c, h, w = cached_x.shape
    k, s, pad = p.kernel, p.stride, p.pad
    oh, ow = conv2d_out_hw(h, w, k, s, pad)
    if grad_out.shape != (n, p.out_channels, oh, ow):
        raise LayerError(
            f"conv backward: grad shape {grad_out.shape} does not match forward output "
            f"{(n, p.out_channels, oh, ow)}"
        )
    cols = _im2col(_pad_hw(cached_x, pad, pad), k, s)
    go = grad_out.reshape(n, p.out_channels, oh * ow)

    grad_b = go.sum(axis=(0, 2))
    go_flat = np.ascontiguousarray(go.transpose(1, 0, 2)).reshape(p.out_channels, -1)
    cols_flat = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(cols.shape[1], -1)
    grad_w = (go_flat @ cols_flat.T).reshape(p.weights.shape)
    if not input_grad:
        return None, grad_w, grad_b

    wm = p.weights.reshape(p.out_channels, -1)
    grad_cols = np.matmul(wm.T, go).reshape(n, c, k, k, oh, ow)

    hp, wp = h + 2 * pad, w + 2 * pad
    grad_xp = np.zeros((n, c, hp, wp), dtype=grad_out.dtype)
    for dy in range(k):
        for dx in range(k):
            grad_xp[:, :, dy:dy + s * oh:s, dx:dx + s * ow:s] += grad_cols[:, :, dy, dx]
    grad_x = grad_xp[:, :, pad:hp - pad, pad:wp - pad] if pad else grad_xp
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# batch normalization


def batchnorm_forward(
    x: np.ndarray, p: BNParams, training: bool
) -> tuple[np.ndarray, BNCache | None]:
    if x.shape[1] != p.channels:
        raise LayerError(f"batchnorm: input has {x.shape[1]} channels, params have {p.channels}")
    if training:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + p.epsilon)
        xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
        m = p.momentum
        p.running_mean[:] = m * p.running_mean + (1.0 - m) * mu
        p.running_var[:] = m * p.running_var + (1.0 - m) * var
        y = p.gamma[None, :, None, None] * xhat + p.beta[None, :, None, None]
        return y, BNCache(xhat=xhat, inv_std=inv_std)
    inv_std = 1.0 / np.sqrt(p.running_var + p.epsilon)
    y = (
        p.gamma[None, :, None, None] * (x - p.running_mean[None, :, None, None])
        * inv_std[None, :, None, None]
        + p.beta[None, :, None, None]
    )
    return y, None


def batchnorm_backward(
    grad_out: np.ndarray, cache: BNCache | None, p: BNParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if cache is None:
        raise LayerError("batchnorm backward requires the training-mode cache")
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


# ---------------------------------------------------------------------------
# leaky ReLU


def leaky_forward(x: np.ndarray, p: LeakyParams) -> np.ndarray:
    return np.where(x >= 0, x, x / p.a)


def leaky_backward(grad_out: np.ndarray, cached_x: np.ndarray, p: LeakyParams) -> np.ndarray:
    return grad_out * np.where(cached_x >= 0, 1.0, 1.0 / p.a)


# ---------------------------------------------------------------------------
# max pooling


def _normalize_pad(pad: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(pad, tuple):
        return pad
    return pad, pad


def maxpool_out_hw(
    h: int, w: int, size: int, stride: int, pad: int | tuple[int, int]
) -> tuple[int, int]:
    pb, pa = _normalize_pad(pad)
    return (h + pb + pa - size) // stride + 1, (w + pb + pa - size) // stride + 1


def maxpool_forward(
    x: np.ndarray, size: int, stride: int, pad: int | tuple[int, int] = 0
) -> tuple[np.ndarray, MaxPoolCache]:
    """Max pool with zero padding.

    `pad` may be a single symmetric amount or (before, after); ties inside
    a window resolve to the first element in row-major scan order, which
    pins the backward scatter target.
    """
    if size < 1 or stride < 1:
        raise LayerError(f"maxpool: size and stride must be >= 1, got {size}, {stride}")
    pb, pa = _normalize_pad(pad)
    xp = _pad_hw(x, pb, pa)
    win = sliding_window_view(xp, (size, size), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, oh, ow = win.shape[:4]
    flat = win.reshape(n, c, oh, ow, size * size)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return y, MaxPoolCache(argmax=arg, in_shape=x.shape, size=size, stride=stride, pad=(pb, pa))


def maxpool_backward(grad_out: np.ndarray, cache: MaxPoolCache) -> np.ndarray:
    n, c, h, w = cache.in_shape
    pb, pa = cache.pad
    hp, wp = h + pb + pa, w + pb + pa
    size, stride = cache.size, cache.stride
    arg = cache.argmax
    oh, ow = arg.shape[2], arg.shape[3]
    if grad_out.shape != arg.shape:
        raise LayerError(f"maxpool backward: grad shape {grad_out.shape} != output {arg.shape}")

    oy = np.arange(oh)[:, None] * stride
    ox = np.arange(ow)[None, :] * stride
    rows = oy[None, None] + arg // size
    cols = ox[None, None] + arg % size
    nc = np.arange(n * c).reshape(n, c, 1, 1)
    flat_idx = (nc * hp + rows) * wp + cols

    grad_p = np.zeros(n * c * hp * wp, dtype=grad_out.dtype)
    np.add.at(grad_p, flat_idx.ravel(), grad_out.ravel())
    grad_p = grad_p.reshape(n, c, hp, wp)
    if pb or pa:
        grad_p = grad_p[:, :, pb:hp - pa, pb:wp - pa]
    return grad_p


# ---------------------------------------------------------------------------
# reorg (space-to-depth)


def reorg_forward(x: np.ndarray, stride: int) -> np.ndarray:
    """(n, c, h, w) -> (n, c*s*s, h/s, w/s), channel-major phase order:
    output channel c*s*s + dy*s + dx holds x[:, c, i*s+dy, j*s+dx]."""
    n, c, h, w = x.shape
    if h % stride or w % stride:
        raise LayerError(f"reorg: spatial dims {h}x{w} not divisible by stride {stride}")
    s = stride
    return (
        x.reshape(n, c, h // s, s, w // s, s)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, c * s * s, h // s, w // s)
    )


def reorg_backward(grad_out: np.ndarray, stride: int) -> np.ndarray:
    n, cs, oh, ow = grad_out.shape
    s = stride
    c = cs // (s * s)
    return (
        grad_out.reshape(n, c, s, s, oh, ow)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, oh * s, ow * s)
    )
