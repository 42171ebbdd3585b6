"""Network assembly and execution: the laminated conv-pool backbone, the
four-unit dense-connection block, the stride-1 pyramid-pooling block, the
reorg passthrough, and the linear detection convolution.

The graph is a flat list of nodes in topological order. Each node class
gives `forward(ins, training) -> (out, cache)`, `backward(grad, cache,
param_grads) -> input grads` and `out_shape(in_shapes)`. Forward caches
per-node activations (for a conv, its padded input) when training;
backward walks the list in reverse, summing gradients over fan-out before
calling each node's backward, and frees each node's cache once that
backward has run.

The backbone's conv -> bn -> leaky and the dense block's pre-activation
bn -> leaky -> conv (He et al. 2016, DenseNet) are one `ConvNode` path, one
forward and one backward. No node writes its input, which a route may
share; a conv node runs batch norm and leaky in place on arrays it made.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .anchors import AnchorSet
from .layers import (
    BNParams,
    ConvParams,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    conv2d_out_hw,
    leaky_backward,
    leaky_forward,
    maxpool_backward,
    maxpool_forward,
    maxpool_out_hw,
    reorg_backward,
    reorg_forward,
)

WEIGHT_MAGIC = b"DCSY"
WEIGHT_VERSION = 2
_FIELDS_STRUCT = struct.Struct("<7I")
_FIELDS_SIZE = 4 + _FIELDS_STRUCT.size


class NetworkError(ValueError):
    pass


@dataclass
class NetworkConfig:
    input_size: int = 416
    num_classes: int = 20
    num_anchors: int = 5
    anchors: AnchorSet | None = None
    channel_scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.input_size % 32 != 0 or self.input_size <= 0:
            raise NetworkError(f"input_size must be a positive multiple of 32, got {self.input_size}")
        if self.num_classes < 1:
            raise NetworkError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.num_anchors < 1:
            raise NetworkError(f"num_anchors must be >= 1, got {self.num_anchors}")
        self.channel_scale = Fraction(self.channel_scale)
        if not (0 < self.channel_scale <= 1):
            raise NetworkError(f"channel_scale must be in (0, 1], got {self.channel_scale}")
        if self.anchors is not None and self.anchors.k != self.num_anchors:
            raise NetworkError(
                f"anchor set has {self.anchors.k} entries but num_anchors={self.num_anchors}"
            )

    @property
    def grid_size(self) -> int:
        return self.input_size // 32

    @property
    def detect_channels(self) -> int:
        return self.num_anchors * (5 + self.num_classes)


def scaled_channels(c: int, scale: Fraction) -> int:
    """Scale a channel count, rounding up to a multiple of 8 with a floor of 8."""
    v = Fraction(c) * scale
    return max(8, int(math.ceil(v / 8)) * 8)


Shape = tuple[int, int, int]  # (c, h, w)


@dataclass
class LayerNode:
    """A graph node: its name, and the names of the nodes it reads."""

    name: str
    inputs: list[str]


@dataclass
class ConvNode(LayerNode):
    """conv -> bn -> leaky, or bn -> leaky -> conv when pre_activation. Leaky
    runs exactly when batch norm does: `bn` None means a plain conv, as in
    the detection head. One path serves both orders: `_bn_leaky` runs after
    the conv or before it, its mirror in backward. Leaky always runs in
    place; batch norm only at inference and only on the conv output, which
    this node allocated: the input is never written. The training cache
    holds the conv's padded input, batch norm's cache and leaky's mask
    y >= 0 in place of the float input leaky overwrites; at inference
    `cache["conv"]` is None."""

    conv: ConvParams
    bn: BNParams | None = None
    pre_activation: bool = False

    def out_shape(self, ins: list[Shape]) -> Shape:
        _, h, w = ins[0]
        c = self.conv
        return (c.out_channels, *conv2d_out_hw(h, w, c.kernel, c.stride, c.pad))

    def _bn_leaky(self, y: np.ndarray, training: bool, cache: dict, owned: bool) -> np.ndarray:
        if self.bn is None:
            return y
        y, cache["bn"] = batchnorm_forward(y, self.bn, training, out=y if owned else None)
        if training:
            cache["act_mask"] = y >= 0  # one byte an element
        return leaky_forward(y, out=y)

    def _bn_leaky_backward(self, g: np.ndarray, cache: dict, param_grads) -> np.ndarray:
        if self.bn is None:
            return g
        g = leaky_backward(g, cache["act_mask"])
        g, param_grads[f"{self.name}.gamma"], param_grads[f"{self.name}.beta"] = (
            batchnorm_backward(g, cache["bn"], self.bn))
        return g

    def forward(self, ins: list[np.ndarray], training: bool):
        y, cache = ins[0], {}
        if self.pre_activation:
            y = self._bn_leaky(y, training, cache, owned=False)
        y, conv_cache = conv2d_forward(y, self.conv)
        cache["conv"] = conv_cache if training else None  # inference keeps no padded input
        if not self.pre_activation:
            y = self._bn_leaky(y, training, cache, owned=True)
        return y, cache

    def backward(self, gout: np.ndarray, cache, param_grads) -> list[np.ndarray | None]:
        g = gout if self.pre_activation else self._bn_leaky_backward(gout, cache, param_grads)
        # nothing reads the gradient of the input image, but a pre-activation
        # node's own batch norm and leaky need their input gradient
        g, gw, gb = conv2d_backward(g, cache["conv"], self.conv,
                                    input_grad=self.pre_activation or self.inputs[0] != "data")
        if self.pre_activation:
            g = self._bn_leaky_backward(g, cache, param_grads)
        param_grads[f"{self.name}.weights"] = gw
        param_grads[f"{self.name}.bias"] = gb
        return [g]


@dataclass
class MaxPoolNode(LayerNode):
    pool_size: int
    pool_stride: int
    pool_pad: tuple[int, int] = (0, 0)

    def out_shape(self, ins: list[Shape]) -> Shape:
        c, h, w = ins[0]
        return (c, *maxpool_out_hw(h, w, self.pool_size, self.pool_stride, self.pool_pad))

    def forward(self, ins: list[np.ndarray], training: bool):
        return maxpool_forward(ins[0], self.pool_size, self.pool_stride, self.pool_pad)

    def backward(self, gout: np.ndarray, cache, param_grads) -> list[np.ndarray]:
        return [maxpool_backward(gout, cache)]


@dataclass
class RouteNode(LayerNode):
    """Channel concatenation of the inputs, in input order."""

    def out_shape(self, ins: list[Shape]) -> Shape:
        return (sum(s[0] for s in ins), ins[0][1], ins[0][2])

    def forward(self, ins: list[np.ndarray], training: bool):
        return np.concatenate(ins, axis=1), [a.shape[1] for a in ins]

    def backward(self, gout: np.ndarray, sizes, param_grads) -> list[np.ndarray]:
        return np.split(gout, np.cumsum(sizes)[:-1], axis=1)


@dataclass
class ReorgNode(LayerNode):
    stride: int

    def out_shape(self, ins: list[Shape]) -> Shape:
        c, h, w = ins[0]
        s = self.stride
        if h % s or w % s:
            raise NetworkError(f"{self.name}: {h}x{w} not divisible by reorg stride {s}")
        return (c * s * s, h // s, w // s)

    def forward(self, ins: list[np.ndarray], training: bool):
        return reorg_forward(ins[0], self.stride), None

    def backward(self, gout: np.ndarray, cache, param_grads) -> list[np.ndarray]:
        return [reorg_backward(gout, self.stride)]


class Param(NamedTuple):
    name: str  # '<node>.weights', '.bias', '.gamma' or '.beta'
    array: np.ndarray


def he_uniform(rng: np.random.Generator, out_c: int, in_c: int, k: int) -> np.ndarray:
    """Fan-in scaled uniform init: U(-s, s) with s = sqrt(2 / (k*k*in_c))."""
    s = math.sqrt(2.0 / (k * k * in_c))
    return rng.uniform(-s, s, size=(out_c, in_c, k, k)).astype(np.float32)


def build_network(cfg: NetworkConfig) -> "NetworkGraph":
    sc = lambda c: scaled_channels(c, cfg.channel_scale)
    nodes: list[LayerNode] = []
    prev = "data"
    prev_c = 3

    def conv(name: str, out: int, k: int, *, bn: bool = True, pre: bool = False) -> None:
        """A zeroed stride-1, same-padded k x k conv node that reads prev and becomes it."""
        nonlocal prev, prev_c
        params = ConvParams(np.zeros((out, prev_c, k, k), dtype=np.float32),
                            np.zeros(out, dtype=np.float32), stride=1, pad=(k - 1) // 2)
        nodes.append(ConvNode(name=name, inputs=[prev], conv=params,
                              bn=BNParams.identity(prev_c if pre else out) if bn else None,
                              pre_activation=pre))
        prev, prev_c = name, out

    def pool(name: str) -> None:
        nonlocal prev
        nodes.append(MaxPoolNode(name=name, inputs=[prev], pool_size=2, pool_stride=2))
        prev = name

    # laminated conv-pool backbone, five 2x downsamples
    conv("conv1", sc(32), 3)
    pool("pool1")
    conv("conv2", sc(64), 3)
    pool("pool2")
    conv("conv3", sc(128), 3)
    conv("conv4", sc(64), 1)
    conv("conv5", sc(128), 3)
    pool("pool3")
    conv("conv6", sc(256), 3)
    conv("conv7", sc(128), 1)
    conv("conv8", sc(256), 3)
    pool("pool4")
    conv("conv9", sc(512), 3)
    conv("conv10", sc(256), 1)
    conv("conv11", sc(512), 3)
    conv("conv12", sc(256), 1)
    conv("conv13", sc(512), 3)
    pool("pool5")

    # dense-connection block: each unit reads the concat of the block input
    # and every earlier unit output, runs bn-leaky-conv3x3 then
    # bn-leaky-conv1x1, and appends its 1x1 output to the running concat
    dc_sources = ["pool5"]
    dc_channels = [sc(512)]
    increments = [sc(256), sc(512), sc(512), sc(512)]
    widths = [sc(512), sc(1024), sc(1024), sc(1024)]
    for u, (inc, wide) in enumerate(zip(increments, widths), start=1):
        prev, prev_c = "pool5" if u == 1 else f"dc_cat{u}", sum(dc_channels)
        if u > 1:
            nodes.append(RouteNode(name=prev, inputs=list(dc_sources)))
        conv(f"dc{u}_3x3", wide, 3, pre=True)
        conv(f"dc{u}_1x1", inc, 1, pre=True)
        dc_sources.append(prev)
        dc_channels.append(inc)
    nodes.append(RouteNode(name="dc_out", inputs=list(dc_sources)))
    prev, prev_c = "dc_out", sum(dc_channels)

    conv("conv22", sc(1024), 3)
    conv("conv23", sc(512), 1)

    # pyramid pooling: three stride-1 max pools over conv23, of windows
    # ceil(S / n) for levels n = 3, 2, 1, concatenated with their input. Zero
    # padding of size - 1 in all keeps S x S; an even window pads one more after.
    spp_sources = ["conv23"]
    for tag, n in zip("abc", (3, 2, 1)):
        name, size = f"spp_{tag}", math.ceil(cfg.grid_size / n)
        nodes.append(MaxPoolNode(name=name, inputs=["conv23"], pool_size=size, pool_stride=1,
                                 pool_pad=((size - 1) // 2, size // 2)))
        spp_sources.append(name)
    nodes.append(RouteNode(name="spp_cat", inputs=spp_sources))
    prev, prev_c = "spp_cat", 4 * sc(512)

    conv("conv26", sc(512), 1)
    conv("conv27", sc(1024), 3)

    # passthrough: squeeze conv13 with a 1x1, then space-to-depth /2
    prev, prev_c = "conv13", sc(512)
    conv("pass_conv", sc(64), 1)
    nodes.append(ReorgNode(name="reorg", inputs=["pass_conv"], stride=2))
    nodes.append(RouteNode(name="head_cat", inputs=["conv27", "reorg"]))
    prev, prev_c = "head_cat", sc(1024) + 4 * sc(64)

    conv("conv30", sc(1024), 3)
    conv("conv31", cfg.detect_channels, 1, bn=False)

    return NetworkGraph(cfg, nodes)


class NetworkGraph:
    """Topologically ordered DAG of layer nodes.

    A graph used only for inference is read-only and safe to share across
    threads; their large convs share the one conv worker thread of
    `layers`, each caller waiting only for its own part. Training-mode
    forward/backward mutates caches and running batch-norm statistics and
    must stay single-threaded per instance.
    """

    def __init__(self, cfg: NetworkConfig, nodes: list[LayerNode]):
        self.cfg = cfg
        self.nodes = nodes
        # per node, the activations it is the last to read
        last_reader = {name: node.name for node in nodes for name in node.inputs}
        self._last_read_by: dict[str, list[str]] = {n.name: [] for n in nodes}
        for name, reader in last_reader.items():
            self._last_read_by[reader].append(name)
        self._cache: tuple[tuple, dict] | None = None  # output shape, per-node caches

    @property
    def output_name(self) -> str:
        return self.nodes[-1].name

    def conv_nodes(self) -> Iterator[ConvNode]:
        return (n for n in self.nodes if isinstance(n, ConvNode))

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the graph on an (n, 3, s, s) batch and return the output
        ndarray, (n, K*(5+C), s/32, s/32). With training=True, batch norm
        uses batch statistics and each node's cache is kept for backward.
        An activation is dropped once its last reader has run; it lives on
        only where a cache holds it."""
        x = np.asarray(x)
        s = self.cfg.input_size
        if x.ndim != 4 or x.shape[1:] != (3, s, s):
            raise NetworkError(f"input must be (n, 3, {s}, {s}), got {x.shape}")
        self._cache = None  # an earlier training cache is freed before this pass allocates
        acts: dict[str, np.ndarray] = {"data": x}
        caches: dict[str, object] = {}
        for node in self.nodes:
            acts[node.name], cache = node.forward([acts[name] for name in node.inputs], training)
            if training:
                caches[node.name] = cache
            for name in self._last_read_by[node.name]:
                del acts[name]
        out = acts[self.output_name]
        self._cache = (out.shape, caches) if training else None
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Propagate an output gradient; returns parameter gradients keyed
        '<node>.weights', '<node>.bias', '<node>.gamma', '<node>.beta'.
        Each node's cache is freed once its backward has run, so one forward
        serves one backward."""
        if self._cache is None:
            raise NetworkError("backward requires a preceding forward(training=True)")
        g = np.asarray(grad_out)
        out_shape, caches = self._cache
        if g.shape != out_shape:
            raise NetworkError(f"grad shape {g.shape} does not match output {out_shape}")
        self._cache = None

        node_grads: dict[str, np.ndarray] = {self.output_name: g}
        param_grads: dict[str, np.ndarray] = {}
        for node in reversed(self.nodes):
            cache = caches.pop(node.name)
            gout = node_grads.pop(node.name, None)
            if gout is None:
                continue
            gins = node.backward(gout, cache, param_grads)
            for src, gi in zip(node.inputs, gins):
                if gi is None:
                    continue
                if src in node_grads:
                    node_grads[src] = node_grads[src] + gi
                else:
                    node_grads[src] = gi
        return param_grads

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[Param]:
        out: list[Param] = []
        for node in self.conv_nodes():
            out.append(Param(f"{node.name}.weights", node.conv.weights))
            out.append(Param(f"{node.name}.bias", node.conv.bias))
            if node.bn is not None:
                out.append(Param(f"{node.name}.gamma", node.bn.gamma))
                out.append(Param(f"{node.name}.beta", node.bn.beta))
        return out

    def init_weights(self, seed: int = 0) -> None:
        """He-style uniform conv weights, zero biases, identity batch norm."""
        rng = np.random.default_rng(seed)
        for node in self.conv_nodes():
            c = node.conv
            c.weights[...] = he_uniform(rng, c.out_channels, c.in_channels, c.kernel)
            c.bias[...] = 0.0
            if node.bn is not None:
                node.bn.gamma[...] = 1.0
                node.bn.beta[...] = 0.0
                node.bn.running_mean[...] = 0.0
                node.bn.running_var[...] = 1.0

    # -- shape inference -----------------------------------------------------

    def infer_shapes(self) -> list[tuple[str, Shape]]:
        """Per-node output (c, h, w) without running any data through."""
        shapes: dict[str, Shape] = {"data": (3, self.cfg.input_size, self.cfg.input_size)}
        for node in self.nodes:
            shapes[node.name] = node.out_shape([shapes[name] for name in node.inputs])
        return [(node.name, shapes[node.name]) for node in self.nodes]

    # -- serialization --------------------------------------------------------

    def _serialized_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """(node name, array) for every array the weight file holds, in file order."""
        for node in self.conv_nodes():
            if node.bn is not None:
                for arr in (node.bn.gamma, node.bn.beta, node.bn.running_mean, node.bn.running_var):
                    yield node.name, arr
            yield node.name, node.conv.bias
            yield node.name, node.conv.weights

    def weight_header(self) -> WeightHeader:
        """The header this network writes, and expects of a file it loads."""
        cfg = self.cfg
        anchors = None if cfg.anchors is None else tuple(map(tuple, cfg.anchors.as_array().tolist()))
        return WeightHeader(WEIGHT_VERSION, cfg.input_size, cfg.num_classes, cfg.num_anchors,
                            cfg.channel_scale, sum(1 for _ in self.conv_nodes()), anchors)

    def save_weights(self, path: str | Path) -> None:
        chunks = [self.weight_header().pack()]
        for _, arr in self._serialized_arrays():
            chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        Path(path).write_bytes(b"".join(chunks))

    def load_weights(self, path: str | Path) -> None:
        """Read a weight file straight into the parameter arrays. The header
        and the file size are checked before any array is touched."""
        found = read_weight_header(path)
        expected = self.weight_header()
        with open(path, "rb") as f:
            body = os.fstat(f.fileno()).st_size - found.size
            if body % 4:
                raise NetworkError(f"{path}: body of {body} bytes is not a whole number of floats")
            n_found = body // 4
            n_expected = sum(arr.size for _, arr in self._serialized_arrays())
            mismatches = [f"{field} {got} != {want}"
                          for field, got, want in zip(WeightHeader._fields, found, expected)
                          if got != want]
            if mismatches or n_found != n_expected:
                detail = "; ".join(mismatches) if mismatches else "same config header"
                raise NetworkError(
                    f"{path}: weight file does not match this network ({detail}); "
                    f"expected {n_expected} parameters, file contains {n_found}"
                )
            f.seek(found.size)
            for name, arr in self._serialized_arrays():
                # the arrays are C-contiguous native float32; the file is little-endian
                got = f.readinto(arr)
                if got != arr.nbytes:
                    raise NetworkError(f"{path}: short read, {got} of {arr.nbytes} bytes for {name}")
                if sys.byteorder == "big":
                    arr.byteswap(inplace=True)
            trailing = os.fstat(f.fileno()).st_size - f.tell()
            if trailing:
                raise NetworkError(f"{path}: {trailing} trailing bytes after parameters")


class WeightHeader(NamedTuple):
    """The magic, seven little-endian u32 fields (channel_scale takes two), then K
    (w, h) anchors as little-endian float64 pairs, all zero for a network without anchors."""

    version: int
    input_size: int
    num_classes: int
    num_anchors: int
    channel_scale: Fraction
    conv_layers: int
    anchors: tuple[tuple[float, float], ...] | None

    @property
    def size(self) -> int:
        return _FIELDS_SIZE + 16 * self.num_anchors

    def pack(self) -> bytes:
        scale = self.channel_scale
        fields = _FIELDS_STRUCT.pack(*self[:4], scale.numerator, scale.denominator, self.conv_layers)
        dims = self.anchors or [(0.0, 0.0)] * self.num_anchors
        return WEIGHT_MAGIC + fields + np.asarray(dims, dtype="<f8").tobytes()


def read_weight_header(path: str | Path) -> WeightHeader:
    """Parse just the header, so that a matching network can be built from it."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        blob = f.read(_FIELDS_SIZE)
        if len(blob) < _FIELDS_SIZE:
            raise NetworkError(f"{path}: truncated weight file ({len(blob)} bytes, "
                               f"header needs {_FIELDS_SIZE})")
        if blob[:4] != WEIGHT_MAGIC:
            raise NetworkError(f"{path}: bad magic {blob[:4]!r}, expected {WEIGHT_MAGIC!r}")
        version, in_size, c, k, num, den, n_layers = _FIELDS_STRUCT.unpack_from(blob, 4)
        if version != WEIGHT_VERSION:
            raise NetworkError(f"{path}: unsupported weight format version {version}")
        if den == 0:
            raise NetworkError(f"{path}: channel scale {num}/{den} has a zero denominator")
        header = WeightHeader(version, in_size, c, k, Fraction(num, den), n_layers, None)
        if file_size < header.size:
            raise NetworkError(f"{path}: truncated weight file ({file_size} bytes, "
                               f"header needs {header.size})")
        if 8 * k * (5 + c) > file_size - header.size:  # a weight and a bias per head channel
            raise NetworkError(f"{path}: header claims {k} anchors x {c} classes, more than "
                               f"the {file_size - header.size}-byte body can hold")
        dims = np.frombuffer(f.read(16 * k), dtype="<f8").reshape(k, 2)
    return header._replace(anchors=tuple(map(tuple, dims.tolist()))) if dims.any() else header


# Expected per-layer output shapes for the reference 416-input build at
# channel scale 1 (final channel count depends on K and C and is checked
# separately). Used by the shapecheck command and the conformance tests.
REFERENCE_SHAPES_416: list[tuple[str, int, int]] = [
    ("conv1", 32, 416),
    ("pool1", 32, 208),
    ("conv2", 64, 208),
    ("pool2", 64, 104),
    ("conv3", 128, 104),
    ("conv4", 64, 104),
    ("conv5", 128, 104),
    ("pool3", 128, 52),
    ("conv6", 256, 52),
    ("conv7", 128, 52),
    ("conv8", 256, 52),
    ("pool4", 256, 26),
    ("conv9", 512, 26),
    ("conv10", 256, 26),
    ("conv11", 512, 26),
    ("conv12", 256, 26),
    ("conv13", 512, 26),
    ("pool5", 512, 13),
    ("dc_out", 2304, 13),
    ("conv22", 1024, 13),
    ("conv23", 512, 13),
    ("spp_a", 512, 13),
    ("spp_b", 512, 13),
    ("spp_c", 512, 13),
    ("spp_cat", 2048, 13),
    ("conv26", 512, 13),
    ("conv27", 1024, 13),
    ("pass_conv", 64, 26),
    ("reorg", 256, 13),
    ("head_cat", 1280, 13),
    ("conv30", 1024, 13),
]
