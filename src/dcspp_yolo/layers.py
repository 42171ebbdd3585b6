"""Primitive network layers: convolution, batch norm, leaky ReLU, max
pooling, and space-to-depth, each with an exact analytic backward pass.

All functions operate on plain (n, c, h, w) float arrays and preserve
the input dtype, so the same code runs in float32 for training and in
float64 for finite-difference verification.

Convolution folds the batch into the GEMM (the im2col lowering of
Chellapilla et al. 2006) with the batch innermost in memory (the CHWN
layout of Li et al. 2016). The input is padded into a (c, hp, wp, n)
buffer, the cache that backward reads (`ConvCache`). `_im2col` lays out
a band of output rows at a time as a (c*k*k, rows*ow*n) patch matrix in
one reused buffer, each window copy running over ow*n contiguous
elements, and one `W @ band` writes those rows of the (out_c, oh, ow, n)
output, seen as an (n, out_c, oh, ow) view (plain C order at batch 1).
No whole matrix is held, the memory cost of im2col (Cho & Brand 2017),
forward or backward: backward rebuilds the forward's bands one at a time
in the same kind of buffer, last band first (the compute-for-memory trade
of Chen et al. 2016). A 1x1 stride-1 kernel's patch matrix is the input
reshaped, with no copy when the input is batch-innermost. Backward sums
the weight gradient band by band over a C-contiguous (out_c, oh*ow*n)
copy of the output gradient, and the bias gradient over an (out_c,
n*oh*ow) one, so their float32 bytes do not depend on the layout the
caller passes. It scatters each band's column gradient back into a
(c, hp, wp, n) buffer; last band first, every input cell adds its
windows in the order of one whole-matrix scatter. Batch norm, leaky
ReLU, max pooling and route concatenation keep the layout of their
input, so in training the activations and gradients that pass between
convs stay batch-innermost (reorg aside).

A float32 band GEMM of at least 2^27 FLOPs, as at the 416 build's 13x13
and 26x26 convs, is split by output channel between two threads (the row
split of Smith et al. 2014): the caller multiplies the first rows of W, a
multiple of 32, and one worker thread the rest, each into its own rows of
the output. Every output element keeps its k-order and OpenBLAS's row
tiles, so the bytes are the unsplit product's whatever the CPU count.
Smaller GEMMs are not split: they ran slower, and at a few MFLOP OpenBLAS
takes a small-matrix path whose bytes a split changed. The worker only
multiplies; it starts on the first split, a forked child drops it, and a
process on one CPU or with no large GEMM never starts it.

Batch norm's epsilon and running-average momentum are fixed, BN_EPSILON
and BN_MOMENTUM (Ioffe & Szegedy 2015): no weight file records them.
Inference batch norm folds the running statistics into one per-channel
scale gamma / sqrt(var + BN_EPSILON) and shift beta - mean * scale (the
folding of Jacob et al. 2018), and like leaky ReLU it can write its
result into `out=`: at inference the network runs both in place on the
array the conv just allocated. Training batch norm normalizes by the
batch statistics in two full-size temporaries: the input centred once and
normalized in place into xhat, and its square, which gives the variance
by numpy's pairwise sum and then holds the output. Its backward is the
closed form that needs only the per-channel sums of g and g * xhat, built
in one temporary.

Leaky ReLU divides negative inputs by the fixed LEAKY_A = 10, YOLOv2's
slope of 0.1 (Redmon & Farhadi 2017). It has no data-dependent branch:
forward is max(x, x / LEAKY_A), with x / LEAKY_A taken a slice of channels
at a time in one small buffer. Backward reads a mask, the forward input's
x >= 0 at one byte an element, which the network keeps in place of the
input; it divides the gradient by a divisor, LEAKY_A times the inverted
mask, raised to at least 1. The divisor is laid out like the mask, and so
like the input, because the gradient's memory layout decides the order of
the float32 sums in batch norm and conv backward, and so the trained
bytes.

Max-pool backward finds each window's first maximum again, and scatters
the gradient to it as the gradient's bits ANDed with an all-ones mask:
no branch, and an infinite or NaN gradient reaches its own slot only.
When the windows tile the padded input (stride equal to size, nothing
left over), as in the 2x2 stride-2 pools, each input cell is written
once, with no zero fill and no read-modify-write.

Every kernel takes an optional `workspace=`, a `Workspace` that its caller
owns and passes to every call, one per thread. The kernel then takes its
arrays of _KEEP_BYTES or more (padded inputs, outputs, patch-matrix bands,
temporaries, gradients) from the workspace instead of allocating them, so
a second call of the same shapes writes into pages the process already
has: the memory reuse of MXNet's planner (Chen et al. 2015, arXiv
1512.01274), with liveness read from reference counts at run time. Each
such array is laid out as the allocation it replaces, so the bytes do not
change; with no workspace every kernel allocates as before.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


class LayerError(ValueError):
    """Invalid layer configuration or mismatched shapes."""


LEAKY_A = 10.0       # leaky ReLU divides negative inputs by this
BN_EPSILON = 1e-5    # added to the variance under batch norm's square root
BN_MOMENTUM = 0.99   # running statistic <- momentum * running + (1 - momentum) * batch


# ---------------------------------------------------------------------------
# workspace


def _refs(items: list, i: int) -> int:
    return sys.getrefcount(items[i])


_FREE_REFS = _refs([np.empty(0)], 0)  # the list's reference and the call's own
_KEEP_BYTES = 1 << 17   # glibc's default mmap threshold: malloc packs smaller arrays well
_ARENA_BYTES = 1 << 26  # address space: a page becomes resident when first written
_ALIGN = 64


class Workspace:
    """Memory kept between calls, owned by the caller: one per thread, never
    shared. `empty(shape, dtype)` returns a C-contiguous array of at least
    _KEEP_BYTES carved from arenas the workspace keeps (smaller ones are
    np.empty's), at the start of the smallest gap that holds it. A chunk is
    free once nothing refers to it, no view and no cache: an array its caller
    still holds is never handed out again, and arrays never live at once
    share memory, as a static planner would place them (Chen et al. 2015),
    with liveness read from reference counts at run time."""

    def __init__(self) -> None:
        # per arena: its bytes, and its live chunks in address order as
        # [start, stop, owner], every view of a chunk referring to its owner
        self._arenas: list[tuple[memoryview, list[list]]] = []

    def empty(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes < _KEEP_BYTES:
            return np.empty(shape, dtype)
        size = -(-nbytes // _ALIGN) * _ALIGN
        best = None  # (gap length, gap start, index of the chunk after it, chunks, arena)
        for arena, chunks in self._arenas:
            chunks[:] = [c for c in chunks if _refs(c, 2) != _FREE_REFS]
            lo = 0
            for i, (start, stop, _) in enumerate([*chunks, (len(arena), None, None)]):
                if size <= start - lo < (best[0] if best else math.inf):
                    best = (start - lo, lo, i, chunks, arena)
                lo = stop
        if best is None:
            self._arenas.append((memoryview(np.empty(max(size, _ARENA_BYTES), np.uint8)), []))
            best = (0, 0, 0, self._arenas[-1][1], self._arenas[-1][0])
        _, lo, i, chunks, arena = best
        owner = np.frombuffer(arena[lo:lo + size], np.uint8)
        chunks.insert(i, [lo, lo + size, owner])
        return owner[:nbytes].view(dtype).reshape(shape)


def _empty(workspace: Workspace | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    return np.empty(shape, dtype) if workspace is None else workspace.empty(shape, dtype)


def _zeros(workspace: Workspace | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    if workspace is None:
        return np.zeros(shape, dtype)
    out = workspace.empty(shape, dtype)
    out.fill(0)
    return out


def _result(workspace: Workspace | None, *operands: np.ndarray, dtype=None) -> np.ndarray | None:
    """The `out` of a ufunc of same-shape operands: None without a workspace
    or below _KEEP_BYTES, so that numpy allocates the result, else a
    workspace array laid out as numpy lays the result out, in the operands'
    one axis order or, when their orders differ, in C order."""
    dtype = operands[0].dtype if dtype is None else np.dtype(dtype)
    if workspace is None or operands[0].size * dtype.itemsize < _KEEP_BYTES:
        return None
    axes = range(operands[0].ndim)
    orders = {tuple(sorted(axes, key=lambda i: -abs(a.strides[i]))) for a in operands}
    order = orders.pop() if len(orders) == 1 else tuple(axes)  # outermost axis first
    out = workspace.empty(tuple(operands[0].shape[i] for i in order), dtype)
    return out.transpose(sorted(axes, key=order.__getitem__))


def _empty_like(workspace: Workspace | None, x: np.ndarray, dtype=None) -> np.ndarray:
    """np.empty_like(x, dtype), from the workspace when there is one."""
    out = _result(workspace, x, dtype=dtype)
    return np.empty_like(x, dtype=dtype) if out is None else out


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

    @classmethod
    def identity(cls, channels: int) -> "BNParams":
        return cls(
            gamma=np.ones(channels, dtype=np.float32),
            beta=np.zeros(channels, dtype=np.float32),
            running_mean=np.zeros(channels, dtype=np.float32),
            running_var=np.ones(channels, dtype=np.float32),
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass
class ConvCache:
    xp: np.ndarray                        # (c, hp, wp, n) padded input, batch innermost
    in_shape: tuple[int, int, int, int]   # (n, c, h, w) of the unpadded input


@dataclass
class BNCache:
    xhat: np.ndarray
    inv_std: np.ndarray


@dataclass
class MaxPoolCache:
    xp: np.ndarray  # zero-padded input and pooled output, by reference: backward
    y: np.ndarray   # finds each window's first maximum again from the two
    size: int
    stride: int
    pad: tuple[int, int] = (0, 0)


# ---------------------------------------------------------------------------
# convolution

# Conv bands, forward and backward: at most _BAND_BYTES of patch matrix, but no
# fewer than _BAND_COLUMNS columns (narrower GEMMs are slow), in whole
# _BAND_ALIGN-column blocks of OpenBLAS's x86 GEMM kernels, so the bands do not
# change the bytes of the forward product or of the column gradient.
# Leaky forward's x / a buffer is held to _BAND_BYTES too.
_BAND_BYTES = 1 << 19
_BAND_COLUMNS = 2048
_BAND_ALIGN = 16


# Forward GEMMs of at least _SPLIT_FLOPS split at a multiple of _SPLIT_ALIGN
# rows: smaller ones ran slower split, and a split off OpenBLAS's row tiles
# changed bytes.
_SPLIT_FLOPS = 1 << 27
_SPLIT_ALIGN = 32
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _may_use_two_cpus() -> bool:
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


def _worker() -> ThreadPoolExecutor | None:
    """The one-thread pool, made on first use; None on a single CPU. Its
    module is imported here too: at import it raised the peak RSS of a
    process that never splits by 1.7 MB."""
    global _pool
    if _pool is None and _may_use_two_cpus():
        from concurrent.futures import ThreadPoolExecutor

        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(1, thread_name_prefix="dcspp-conv")
    return _pool


def _forget_worker() -> None:
    """A forked child has no worker thread: it makes its own pool if it splits."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _gemm(wm: np.ndarray, band: np.ndarray, out: np.ndarray) -> None:
    """out = wm @ band, split by rows of wm between this thread and the worker
    when the float32 product is large. Each part keeps every output element's
    k-order and OpenBLAS's row tiles, so the bytes do not depend on the split.
    (The SkylakeX dgemm kernel tiles rows by 24: float64 is not split.)"""
    h = wm.shape[0] // 2 // _SPLIT_ALIGN * _SPLIT_ALIGN
    big = out.dtype == np.float32 and 2 * wm.size * band.shape[1] >= _SPLIT_FLOPS
    pool = _worker() if h and big else None
    if pool is None:
        np.matmul(wm, band, out=out)
        return
    rest = pool.submit(np.matmul, wm[h:], band, out=out[h:])
    try:
        np.matmul(wm[:h], band, out=out[:h])
    finally:
        rest.result()


def _windows(size: int, stride: int, oh: int, ow: int) -> Iterator[tuple[slice, slice]]:
    """Per window offset (dy, dx), in row-major scan order: the (row, column)
    slices that take that offset of every window from the spatial axes of a
    padded input, oh by ow long. Conv applies them to axes 1-2 of its
    (c, hp, wp, n) buffer, max-pool backward to the last two axes."""
    for dy in range(size):
        for dx in range(size):
            yield (slice(dy, dy + stride * (oh - 1) + 1, stride),
                   slice(dx, dx + stride * (ow - 1) + 1, stride))


def _im2col(xp: np.ndarray, k: int, stride: int, oh: int, ow: int,
            r0: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """C-contiguous (c, hp, wp, n) -> (c*k*k, oh*ow*n) patch matrix of the
    whole batch's output rows r0 to r0+oh, in the front of the flat `out` when
    given. Rows follow weights.reshape(out_c, in_c*k*k): channel, kernel row,
    kernel column; columns follow output row, output column, image, so each
    window copy runs over ow*n contiguous elements."""
    c, n = xp.shape[0], xp.shape[3]
    xp = xp[:, stride * r0:stride * (r0 + oh - 1) + k]
    if k == 1 and stride == 1:
        return xp.reshape(c, -1)
    size = c * k * k * oh * ow * n
    cols = (np.empty(size, xp.dtype) if out is None else out)[:size].reshape(c, k * k, oh, ow, n)
    for o, (rows, columns) in enumerate(_windows(k, stride, oh, ow)):
        cols[:, o] = xp[:, rows, columns]
    return cols.reshape(c * k * k, -1)


def _bands(xp: np.ndarray, k: int, stride: int, oh: int, ow: int,
           workspace: Workspace | None = None) -> tuple[list[tuple[int, int]], np.ndarray | None]:
    """The (first row, row count) bands of output rows whose patch matrices
    `_im2col` builds from the (c, hp, wp, n) buffer xp, and the one flat
    buffer they share, None for a 1x1 stride-1 conv: its one band's patch
    matrix is xp reshaped. A band holds at most _BAND_BYTES of patch matrix
    but no fewer than _BAND_COLUMNS columns, in whole _BAND_ALIGN-column
    blocks."""
    if k == 1 and stride == 1:
        return [(0, oh)], None
    c, n = xp.shape[0], xp.shape[3]
    row = c * k * k * ow * n  # patch-matrix elements per output row
    rows = max(_BAND_BYTES // (row * xp.itemsize), -(-_BAND_COLUMNS // (ow * n)))
    step = _BAND_ALIGN // math.gcd(ow * n, _BAND_ALIGN)
    rows = min(oh, -(-rows // step) * step)
    buf = _empty(workspace, (rows * row,), xp.dtype)
    return [(r0, min(rows, oh - r0)) for r0 in range(0, oh, rows)], buf


def conv2d_out_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def _contiguous(workspace: Workspace | None, a: np.ndarray) -> np.ndarray:
    """np.ascontiguousarray(a), its copy taken from the workspace."""
    if workspace is None or a.flags.c_contiguous:
        return np.ascontiguousarray(a)
    out = workspace.empty(a.shape, a.dtype)
    np.copyto(out, a)
    return out


def conv2d_forward(x: np.ndarray, p: ConvParams, *, workspace: Workspace | None = None
                   ) -> tuple[np.ndarray, ConvCache]:
    """One GEMM per band of output rows, each into its rows of the
    batch-innermost (out_c, oh, ow, n) product, of which the output is an
    (n, out_c, oh, ow) view. The cache is the padded input."""
    n, c, h, w = x.shape
    if c != p.in_channels:
        raise LayerError(f"conv: input has {c} channels, kernel expects {p.in_channels}")
    k, s, oc = p.kernel, p.stride, p.out_channels
    oh, ow = conv2d_out_hw(h, w, k, s, p.pad)
    if oh < 1 or ow < 1:
        raise LayerError(f"conv: input {h}x{w} too small for kernel {k} stride {s} pad {p.pad}")
    xt = x.transpose(1, 2, 3, 0)
    if p.pad == 0:
        xp = _contiguous(workspace, xt)  # free when x is batch-innermost
    else:
        xp = _zeros(workspace, (c, h + 2 * p.pad, w + 2 * p.pad, n), x.dtype)
        xp[:, p.pad:p.pad + h, p.pad:p.pad + w] = xt
    bands, buf = _bands(xp, k, s, oh, ow, workspace)
    wm = p.weights.reshape(oc, -1)
    y = _empty(workspace, (oc, oh, ow, n), np.result_type(wm, xp))
    for r0, r in bands:
        _gemm(wm, _im2col(xp, k, s, r, ow, r0, buf), y[:, r0:r0 + r].reshape(oc, -1))
    y += p.bias[:, None, None, None]
    return y.transpose(3, 0, 1, 2), ConvCache(xp, x.shape)


def conv2d_backward(
    grad_out: np.ndarray, cache: ConvCache, p: ConvParams, *, input_grad: bool = True,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, weights and bias, from the forward's padded input.

    Backward walks the forward's bands of output rows, last band first,
    rebuilding each band's patch matrix in one reused buffer. The weight
    gradient is the sum of the bands' GEMMs. The input gradient is the
    correlation of the output gradient with the 180-degree-rotated kernel,
    realized by scattering each band's column gradient back through the
    im2col geometry: with the last band first, every input cell adds its
    windows in the whole matrix's window order, so the bytes are those of
    one whole-matrix scatter. For a 1x1 stride-1 kernel it is the column
    gradient reshaped. With input_grad=False it is not computed and None
    takes its place.
    """
    n, c, h, w = cache.in_shape
    k, s, pad, oc = p.kernel, p.stride, p.pad, p.out_channels
    oh, ow = conv2d_out_hw(h, w, k, s, pad)
    if grad_out.shape != (n, oc, oh, ow):
        raise LayerError(
            f"conv backward: grad shape {grad_out.shape} does not match forward output "
            f"{(n, oc, oh, ow)}"
        )
    # (out_c, oh*ow*n), the patch matrix's column order, contiguous whatever
    # grad_out's layout, so that the float32 sums below do not depend on it
    go = _contiguous(workspace, grad_out.transpose(1, 2, 3, 0)).reshape(oc, -1)
    # the bias gradient sums an (out_c, n*oh*ow) copy, image by image as the
    # per-image form does: go's order is as accurate, but where the sum
    # cancels it can differ from the per-image sum by over 1e-5 of the result
    grad_b = _contiguous(workspace, grad_out.transpose(1, 0, 2, 3)).reshape(oc, -1).sum(axis=1)
    bands, buf = _bands(cache.xp, k, s, oh, ow, workspace)
    wm = p.weights.reshape(oc, -1)
    hp, wp = h + 2 * pad, w + 2 * pad
    # a 1x1 stride-1 conv's column gradient is its input gradient reshaped
    scatter = input_grad and not (k == 1 and s == 1)
    if scatter:
        grad_xp = _zeros(workspace, (c, hp, wp, n), np.result_type(wm, go))
        # with one row (c*k*k == 1) the column-gradient product runs as gemv,
        # whose bytes depend on where a band starts, so it is taken once whole
        whole_cols = wm.T @ go if c * k * k == 1 else None
        grad_buf = _empty(workspace, (c * k * k * bands[0][1] * ow * n,), grad_xp.dtype)
    grad_w = None
    for r0, r in reversed(bands):
        band_columns = slice(r0 * ow * n, (r0 + r) * ow * n)
        go_band = go[:, band_columns]
        # cols @ go.T: OpenBLAS runs this skinny GEMM about twice as fast
        # with the long (rows*ow*n) axis inside the left operand's rows
        part = np.matmul(_im2col(cache.xp, k, s, r, ow, r0, buf), go_band.T,
                         out=_empty(workspace, (c * k * k, oc), np.result_type(cache.xp, go)))
        grad_w = part if grad_w is None else np.add(grad_w, part, out=grad_w)
        if scatter:
            if whole_cols is not None:
                grad_cols = whole_cols[:, band_columns]
            else:
                grad_cols = grad_buf[:c * k * k * r * ow * n].reshape(c * k * k, -1)
                np.matmul(wm.T, go_band, out=grad_cols)
            grad_cols = grad_cols.reshape(c, k * k, r, ow, n)
            band = grad_xp[:, s * r0:s * (r0 + r - 1) + k]
            for o, (rows, columns) in enumerate(_windows(k, s, r, ow)):
                band[:, rows, columns] += grad_cols[:, o]
    grad_w = _contiguous(workspace, grad_w.T).reshape(p.weights.shape)
    if not input_grad:
        return None, grad_w, grad_b
    if not scatter:
        grad_xp = np.matmul(wm.T, go, out=_empty(workspace, (c, hp * wp * n), np.result_type(wm, go)))
        grad_xp = grad_xp.reshape(c, hp, wp, n)
    return grad_xp.transpose(3, 0, 1, 2)[:, :, pad:pad + h, pad:pad + w], grad_w, grad_b


# ---------------------------------------------------------------------------
# batch normalization

_BN_AXES = (0, 2, 3)  # every axis but the channel's


def batchnorm_forward(
    x: np.ndarray, p: BNParams, training: bool, *, out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, BNCache | None]:
    """Training normalizes by the batch statistics and updates the running
    ones, in two full-size temporaries: x centred once, then normalized in
    place into xhat, and its square, whose pairwise sum gives the variance
    (the bytes of `x.var`) and which then holds the output. Inference
    applies the running statistics as one per-channel scale and shift,
    written into `out` when given (which may be `x` itself); training does
    not read `out`."""
    if x.shape[1] != p.channels:
        raise LayerError(f"batchnorm: input has {x.shape[1]} channels, params have {p.channels}")
    if training:
        mu = x.mean(axis=_BN_AXES)
        xhat = np.subtract(x, mu[None, :, None, None], out=_result(workspace, x))
        sq = np.multiply(xhat, xhat, out=_result(workspace, x))
        var = sq.sum(axis=_BN_AXES) / (x.size // x.shape[1])
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std[None, :, None, None]
        p.running_mean[:] = BN_MOMENTUM * p.running_mean + (1.0 - BN_MOMENTUM) * mu
        p.running_var[:] = BN_MOMENTUM * p.running_var + (1.0 - BN_MOMENTUM) * var
        y = np.multiply(xhat, p.gamma[None, :, None, None], out=sq)
        y += p.beta[None, :, None, None]
        return y, BNCache(xhat=xhat, inv_std=inv_std)
    scale = p.gamma / np.sqrt(p.running_var + BN_EPSILON)
    shift = p.beta - p.running_mean * scale
    y = np.multiply(x, scale[None, :, None, None], out=_result(workspace, x) if out is None else out)
    y += shift[None, :, None, None]
    return y, None


def batchnorm_backward(
    grad_out: np.ndarray, cache: BNCache | None, p: BNParams, *,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed form gamma * inv_std * (g - sum(g) / m - xhat * sum(g * xhat) / m)
    over the m values of each channel (Ioffe & Szegedy 2015): the two sums
    are the beta and gamma gradients, and the input gradient is built in
    the one temporary that held g * xhat."""
    if cache is None:
        raise LayerError("batchnorm backward requires the training-mode cache")
    xhat, inv_std = cache.xhat, cache.inv_std
    m = grad_out.size // grad_out.shape[1]
    grad_beta = grad_out.sum(axis=_BN_AXES)
    grad_x = np.multiply(grad_out, xhat, out=_result(workspace, grad_out, xhat))
    grad_gamma = grad_x.sum(axis=_BN_AXES)
    np.multiply(xhat, (grad_gamma / m)[None, :, None, None], out=grad_x)
    np.subtract(grad_out, grad_x, out=grad_x)
    grad_x -= (grad_beta / m)[None, :, None, None]
    grad_x *= (p.gamma * inv_std)[None, :, None, None]
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# leaky ReLU


def leaky_forward(x: np.ndarray, *, out: np.ndarray | None = None,
                  workspace: Workspace | None = None) -> np.ndarray:
    """max(x, x / LEAKY_A): the larger of the two is x where x >= 0 and
    x / LEAKY_A below zero, with no data-dependent branch. `out` may be `x`.
    x / LEAKY_A is taken a slice of channels at a time into one reused buffer
    of at most _BAND_BYTES (or one channel), so no full-size temporary is made."""
    if out is None:
        out = _empty_like(workspace, x)
    step = max(1, _BAND_BYTES // max(1, x[:, :1].nbytes))  # channels per slice
    buf = _empty_like(workspace, x[:, :step])
    for c0 in range(0, x.shape[1], step):
        xs = x[:, c0:c0 + step]
        np.maximum(xs, np.divide(xs, LEAKY_A, out=buf[:, :xs.shape[1]]), out=out[:, c0:c0 + step])
    return out


def leaky_backward(grad_out: np.ndarray, mask: np.ndarray, *,
                   workspace: Workspace | None = None) -> np.ndarray:
    """grad_out divided by 1 where mask, the forward input's `x >= 0`, is set,
    and by LEAKY_A elsewhere (x < 0 or NaN). The divisor is LEAKY_A times the
    inverted mask, raised to at least 1: an array laid out like the mask, and
    so like the forward input, so the gradient keeps the layout it had before."""
    d = np.multiply(np.invert(mask, out=_result(workspace, mask)), LEAKY_A, dtype=grad_out.dtype,
                    out=_result(workspace, mask, dtype=grad_out.dtype))
    np.maximum(d, 1, out=d)
    return np.divide(grad_out, d, out=_result(workspace, grad_out, d))


# ---------------------------------------------------------------------------
# max pooling


def _pad_hw(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad the last two axes, keeping the memory layout of x (np.pad
    returns C order)."""
    if before == 0 and after == 0:
        return x
    h, w = x.shape[-2:]
    xp = np.zeros_like(x, shape=(*x.shape[:-2], h + before + after, w + before + after))
    xp[..., before:before + h, before:before + w] = x
    return xp


def maxpool_out_hw(h: int, w: int, size: int, stride: int, pad: tuple[int, int]) -> tuple[int, int]:
    return (h + sum(pad) - size) // stride + 1, (w + sum(pad) - size) // stride + 1


def _running_max(views: list[np.ndarray], workspace: Workspace | None) -> np.ndarray:
    """Elementwise max of same-shape views into a new array laid out like
    them. On a tie the earlier view wins, signed zeros included: np.maximum
    returns its second operand on a tie."""
    if len(views) == 1:
        return views[0].copy(order="K")
    out = np.maximum(views[1], views[0], out=_result(workspace, views[0]))
    for v in views[2:]:
        np.maximum(v, out, out=out)
    return out


def maxpool_forward(
    x: np.ndarray, size: int, stride: int, pad: tuple[int, int] = (0, 0), *,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, MaxPoolCache]:
    """Max pool with zero padding of (before, after) on each spatial axis.
    Separable: a running max over the kernel columns gives each row's
    window maxima, and a running max of those over the kernel rows gives
    the output. On a tie the earlier element stays, signed zeros included,
    so the result is the first maximum in scan order; NaN propagates. No
    index is kept. The output is laid out like x."""
    pb, pa = pad
    if size < 1 or stride < 1 or size > min(x.shape[2], x.shape[3]) + pb + pa:
        raise LayerError(f"maxpool: size {size}, stride {stride}, pad {pad} do not fit {x.shape}")
    xp = _pad_hw(x, pb, pa)
    oh, ow = maxpool_out_hw(x.shape[2], x.shape[3], size, stride, pad)
    span_h, span_w = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    row_max = _running_max([xp[..., dx:dx + span_w:stride] for dx in range(size)], workspace)
    y = _running_max([row_max[..., dy:dy + span_h:stride, :] for dy in range(size)], workspace)
    return y, MaxPoolCache(xp=xp, y=y, size=size, stride=stride, pad=pad)


def maxpool_backward(grad_out: np.ndarray, cache: MaxPoolCache, *,
                     workspace: Workspace | None = None) -> np.ndarray:
    """Route each output gradient to its window's first maximum. Offsets are
    scattered in reverse scan order, so an input cell sums its windows in
    window order. Each offset adds the gradient's bits ANDed with an
    all-ones mask at its hits, and +0.0 elsewhere: exact, since a cell that
    starts at +0.0 never holds -0.0, and unlike a product with the mask it
    keeps an infinite gradient from turning into NaN at the other slots.
    When the windows tile the padded input, each cell is written once as
    the routed value plus +0.0: the same bytes, with no zero fill. The
    gradient is laid out like the padded input."""
    xp, y = cache.xp, cache.y
    if grad_out.shape != y.shape:
        raise LayerError(f"maxpool backward: grad shape {grad_out.shape} != output {y.shape}")
    size, stride = cache.size, cache.stride
    oh, ow = y.shape[2], y.shape[3]
    wins = [(..., *sl) for sl in _windows(size, stride, oh, ow)]
    hits, free = [], _empty_like(workspace, y, bool)
    free.fill(True)
    for sl in wins:  # the first maximum in scan order
        hits.append(np.bitwise_and(np.equal(xp[sl], y, out=_result(workspace, y, dtype=bool)), free,
                                   out=_result(workspace, y, dtype=bool)))
        free ^= hits[-1]
    bits = np.dtype(f"u{grad_out.itemsize}")
    grad_bits = grad_out.view(bits)
    tiled = stride == size and xp.shape[2:] == (size * oh, size * ow)
    grad_p = _empty_like(workspace, xp, grad_out.dtype)
    if not tiled:
        grad_p.fill(0)
    for sl, hit in zip(reversed(wins), reversed(hits)):
        # all ones at a hit, zero elsewhere
        routed = np.negative(hit, dtype=bits, out=_result(workspace, hit, dtype=bits))
        routed &= grad_bits
        # tiling windows write each cell once: +0.0 plus its routed value
        np.add(0.0 if tiled else grad_p[sl], routed.view(grad_out.dtype), out=grad_p[sl])
    pb, pa = cache.pad
    return grad_p[:, :, pb:xp.shape[2] - pa, pb:xp.shape[3] - pa]


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
