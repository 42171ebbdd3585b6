"""Central finite-difference verification of every analytic backward pass.

All checks run in float64 with step 1e-3 and report the max absolute
gradient error relative to the largest gradient magnitude involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from . import layers
from .anchors import AnchorSet
from .detection import decode_predictions
from .loss import Labels, assign_targets, compute_loss
from .network import NetworkConfig, build_network

STEP = 1e-3


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the largest gradient magnitude present."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-12)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def _central_diff(f: Callable[[], float], flat: np.ndarray, i: int, step: float) -> float:
    """(f(+step) - f(-step)) / (2 step) at flat[i], over the step as stored."""
    orig = float(flat[i])
    flat[i] = orig + step
    hi_w = float(flat[i])  # storage may quantize the step
    hi = f()
    flat[i] = orig - step
    lo_w = float(flat[i])
    lo = f()
    flat[i] = orig
    return (hi - lo) / (hi_w - lo_w)


def numeric_grad(f: Callable[[np.ndarray], float], x: np.ndarray, step: float = STEP) -> np.ndarray:
    flat = x.reshape(-1)
    g = [_central_diff(lambda: f(x), flat, i, step) for i in range(flat.size)]
    return np.array(g, dtype=np.float64).reshape(x.shape)


def _projected_err(f: Callable[..., np.ndarray], inputs: tuple[np.ndarray, ...],
                   grads: tuple[np.ndarray, ...], proj: np.ndarray) -> float:
    """Worst error of the analytic gradients `grads` of sum(f(*inputs) * proj)
    with respect to the leading inputs, one per gradient, against central
    differences; the inputs after those are held fixed."""
    def loss(i: int, v: np.ndarray) -> float:
        return float((f(*inputs[:i], v, *inputs[i + 1:]) * proj).sum())

    return max(max_rel_err(grad, numeric_grad(lambda v: loss(i, v), x))
               for i, (x, grad) in enumerate(zip(inputs, grads)))


def _conv_err(rng: np.random.Generator, x_shape: tuple, out_c: int, k: int, stride: int,
              pad: int, *, params: bool = True) -> float:
    """Worst error of the input gradient and, with params, of the weight
    and bias gradients of a random conv under a random output projection."""
    x = rng.standard_normal(x_shape)
    weights, bias = rng.standard_normal((out_c, x_shape[1], k, k)), rng.standard_normal(out_c)
    p = layers.ConvParams(weights, bias, stride, pad)
    y, cache = layers.conv2d_forward(x, p)
    proj = rng.standard_normal(y.shape)
    gx, gw, gb = layers.conv2d_backward(proj, cache, p)

    def f(x, weights, bias):
        return layers.conv2d_forward(x, layers.ConvParams(weights, bias, stride, pad))[0]

    return _projected_err(f, (x, weights, bias), (gx, gw, gb) if params else (gx,), proj)


def check_conv(seed: int = 0) -> float:
    return _conv_err(np.random.default_rng(seed), (2, 3, 5, 5), 4, 3, stride=1, pad=1)


def check_conv_strided(seed: int = 1) -> float:
    return _conv_err(np.random.default_rng(seed), (1, 2, 6, 6), 3, 3, stride=2, pad=1,
                     params=False)


def check_conv_1x1(seed: int = 2) -> float:
    """The 1x1 stride-1 kernel, whose patch matrix is the input reshaped."""
    return _conv_err(np.random.default_rng(seed), (2, 3, 4, 5), 4, 1, stride=1, pad=0)


def check_batchnorm(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4, 5, 5))
    gamma, beta = rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)
    p = layers.BNParams(gamma, beta, np.zeros(4), np.ones(4))
    y, cache = layers.batchnorm_forward(x, p, training=True)
    proj = rng.standard_normal(y.shape)

    def f(x, gamma, beta):
        return layers.batchnorm_forward(x, layers.BNParams(gamma, beta, np.zeros(4), np.ones(4)),
                                        training=True)[0]

    return _projected_err(f, (x, gamma, beta), layers.batchnorm_backward(proj, cache, p), proj)


def check_leaky(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    # keep sample points away from the kink at 0 where the derivative jumps
    x = rng.standard_normal((2, 3, 4, 4))
    x[np.abs(x) < 0.05] += 0.1
    proj = rng.standard_normal(x.shape)
    return _projected_err(layers.leaky_forward, (x,), (layers.leaky_backward(proj, x >= 0),), proj)


def check_maxpool(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    # well-separated values keep each window's maximum in place under the probe step
    x = rng.permutation(np.arange(2 * 2 * 6 * 6, dtype=np.float64) * 0.1).reshape(2, 2, 6, 6)
    errs = []
    for size, stride, pad in ((2, 2, (0, 0)), (3, 1, (1, 1)), (5, 1, (2, 2)), (2, 1, (0, 1))):
        y, cache = layers.maxpool_forward(x, size, stride, pad)
        proj = rng.standard_normal(y.shape)
        errs.append(_projected_err(lambda v: layers.maxpool_forward(v, size, stride, pad)[0],
                                   (x,), (layers.maxpool_backward(proj, cache),), proj))
    return max(errs)


def check_reorg(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4, 4))
    proj = rng.standard_normal((2, 12, 2, 2))
    return _projected_err(lambda v: layers.reorg_forward(v, 2), (x,),
                          (layers.reorg_backward(proj, 2),), proj)


NETWORK_STEP = 1e-5


def check_network(seed: int = 0, samples: int = 20) -> float:
    """End-to-end spot check on a scale-reduced network.

    Samples parameter entries uniformly across the whole graph and
    compares backward against central differences of a fixed random
    projection of the output. Input 64 keeps the 1x1-head pathology away:
    at input 32 the deepest batch norms see only batch-many samples and
    their statistics make finite differences meaningless. Probes use a
    small step with the actually-stored (float32-quantized) step as the
    denominator. Biases under batch norm are excluded: normalization
    cancels per-channel shifts exactly, so both gradients are zero and
    their ratio is pure noise.
    """
    cfg = NetworkConfig(input_size=64, num_classes=2, num_anchors=2,
                        channel_scale=Fraction(1, 8))
    net = build_network(cfg)
    net.init_weights(seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((2, 3, 64, 64))

    out = net.forward(x, training=True)
    proj = rng.standard_normal(out.shape)
    grads = net.backward(proj)

    bn_conv_biases = {
        f"{node.name}.bias" for node in net.conv_nodes() if node.bn is not None
    }
    candidates = [p for p in net.parameters() if p.name not in bn_conv_biases]
    weights = np.array([p.array.size for p in candidates], dtype=np.float64)
    weights /= weights.sum()

    def loss() -> float:
        return float((net.forward(x, training=True) * proj).sum())

    worst = 0.0
    for _ in range(samples):
        p = candidates[rng.choice(len(candidates), p=weights)]
        flat = p.array.reshape(-1)
        i = int(rng.integers(flat.size))
        numeric = _central_diff(loss, flat, i, NETWORK_STEP)
        worst = max(worst, max_rel_err(grads[p.name].reshape(-1)[i], numeric))
    return worst


def check_loss(seed: int = 0) -> float:
    """Finite differences through the full loss on a 2x2-grid instance."""
    rng = np.random.default_rng(seed)
    anchors = AnchorSet(dims=[(0.8, 0.9), (1.6, 1.2)])
    k, c, s = 2, 2, 2
    raw = rng.standard_normal((1, k * (5 + c), s, s))
    truths = [Labels(np.array([0, 1]), np.array([[0.3, 0.28, 0.31, 0.42], [0.74, 0.8, 0.2, 0.23]]))]
    preds = decode_predictions(raw, anchors)
    asg = assign_targets(truths, preds, n_prior=10, images_seen=0)
    _, grad = compute_loss(preds, asg)

    def f(v):
        parts, _ = compute_loss(decode_predictions(v, anchors), asg)
        return parts.total

    return max_rel_err(grad, numeric_grad(f, raw))


LAYER_CHECKS: dict[str, Callable[[], float]] = {
    "conv": check_conv,
    "conv_strided": check_conv_strided,
    "conv_1x1": check_conv_1x1,
    "batchnorm": check_batchnorm,
    "leaky": check_leaky,
    "maxpool": check_maxpool,
    "reorg": check_reorg,
}


def run_all() -> dict[str, float]:
    results = {name: fn() for name, fn in LAYER_CHECKS.items()}
    results["network"] = check_network()
    results["loss"] = check_loss()
    return results
