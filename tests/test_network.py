import dataclasses
import os
import struct
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from dcspp_yolo import network
from dcspp_yolo.anchors import AnchorSet
from dcspp_yolo.gradcheck import check_network
from dcspp_yolo.layers import BNParams
from dcspp_yolo.network import (
    ConvNode,
    NetworkConfig,
    NetworkError,
    REFERENCE_SHAPES_416,
    RouteNode,
    WeightHeader,
    build_network,
    he_uniform,
    read_weight_header,
    scaled_channels,
)

TINY = dict(input_size=96, num_classes=3, num_anchors=2, channel_scale=Fraction(1, 8))


def tiny_net(seed=0):
    net = build_network(NetworkConfig(**TINY))
    net.init_weights(seed)
    return net


# -- construction and shapes -------------------------------------------------


def test_reference_shape_table_at_416():
    net = build_network(NetworkConfig(input_size=416, num_classes=20, num_anchors=5))
    shapes = dict(net.infer_shapes())
    for name, c, hw in REFERENCE_SHAPES_416:
        assert shapes[name] == (c, hw, hw), name
    assert shapes["conv31"] == (125, 13, 13)


def test_final_shape_small_input():
    net = build_network(NetworkConfig(input_size=96, num_classes=3, num_anchors=5))
    assert dict(net.infer_shapes())["conv31"] == (40, 3, 3)


def test_every_config_field_is_a_weight_header_field():
    # a knob the weight file cannot carry would load as its default
    fields = {f.name for f in dataclasses.fields(NetworkConfig)}
    assert fields <= set(WeightHeader._fields)


def test_every_bn_field_is_an_array_the_weight_file_holds():
    # epsilon and momentum are layer constants: as fields they would load as defaults
    net = build_network(NetworkConfig(**TINY))
    node = next(n for n in net.conv_nodes() if n.bn is not None)
    written = [arr for name, arr in net._serialized_arrays() if name == node.name]
    fields = [getattr(node.bn, f.name) for f in dataclasses.fields(BNParams)]
    assert len(fields) == 4 and all(a is b for a, b in zip(fields, written[:4]))


def test_conv_node_fields_and_leaky_follows_batch_norm():
    fields = [f.name for f in dataclasses.fields(ConvNode)]
    assert fields == ["name", "inputs", "conv", "bn", "pre_activation"]
    # the detection head is the one plain conv
    net = build_network(NetworkConfig(**TINY))
    assert [n.name for n in net.conv_nodes() if n.bn is None] == ["conv31"]


def test_input_size_must_be_multiple_of_32():
    with pytest.raises(NetworkError):
        NetworkConfig(input_size=415)


def test_dc_concat_channel_law():
    net = build_network(NetworkConfig(input_size=416, num_classes=20, num_anchors=5))
    shapes = dict(net.infer_shapes())
    assert shapes["dc_cat2"][0] == 768
    assert shapes["dc_cat3"][0] == 1280
    assert shapes["dc_cat4"][0] == 1792
    assert shapes["dc_out"][0] == 2304


@pytest.mark.parametrize("input_size", [96, 128, 416])
def test_spp_preserves_spatial_dims(input_size):
    net = build_network(NetworkConfig(input_size=input_size, num_classes=3, num_anchors=2))
    shapes = dict(net.infer_shapes())
    pre = shapes["conv23"]
    for tag in ("spp_a", "spp_b", "spp_c"):
        assert shapes[tag] == pre
    assert shapes["spp_cat"] == (4 * pre[0], pre[1], pre[2])


def test_scaled_channels():
    assert scaled_channels(32, Fraction(1)) == 32
    assert scaled_channels(32, Fraction(1, 8)) == 8
    assert scaled_channels(1024, Fraction(1, 8)) == 128
    assert scaled_channels(24, Fraction(1, 8)) == 8  # floor of 8


def test_infer_shapes_match_real_forward():
    net = tiny_net()
    out_shapes = {}
    x = np.zeros((1, 3, 96, 96), dtype=np.float32)
    acts = {"data": x}
    for node in net.nodes:
        ins = [acts[n] for n in node.inputs]
        y, _ = node.forward(ins, training=False)
        acts[node.name] = y
        out_shapes[node.name] = y.shape[1:]
    for name, shape in net.infer_shapes():
        assert out_shapes[name] == shape, name


# -- route node ------------------------------------------------------------------


@pytest.mark.parametrize("sizes", [(512, 256, 512, 512, 512), (1024, 256), (3,)],
                         ids=["dc_out", "head_cat", "single"])
def test_route_concat_order(sizes):
    parts = [np.full((1, c, 13, 13), float(i), dtype=np.float32) for i, c in enumerate(sizes)]
    node = RouteNode(name="cat", inputs=[f"in{i}" for i in range(len(sizes))])
    out, _ = node.forward(parts, training=False)
    assert out.shape == (1, sum(sizes), 13, 13)
    assert node.out_shape([p.shape[1:] for p in parts]) == out.shape[1:]
    # blocks appear in input order, bit-identical
    start = 0
    for p in parts:
        assert np.array_equal(out[:, start:start + p.shape[1]], p)
        start += p.shape[1]


def test_route_rejects_spatial_mismatch():
    node = RouteNode(name="cat", inputs=["a", "b"])
    with pytest.raises(ValueError):
        node.forward([np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 4, 3))], training=False)


def test_route_backward_splits_in_input_order():
    rng = np.random.default_rng(2)
    parts = [rng.standard_normal((2, c, 5, 5)).astype(np.float32) for c in (3, 1, 4)]
    node = RouteNode(name="cat", inputs=["a", "b", "c"])
    out, cache = node.forward(parts, training=True)
    back = node.backward(out, cache, {})
    assert len(back) == len(parts)
    for orig, rec in zip(parts, back):
        assert np.array_equal(orig, rec)


# -- forward / backward --------------------------------------------------------


def test_zero_image_gives_finite_output():
    net = tiny_net()
    out = net.forward(np.zeros((1, 3, 96, 96), dtype=np.float32))
    assert out.shape == (1, 16, 3, 3)
    assert isinstance(out, np.ndarray) and out.flags.c_contiguous
    assert np.isfinite(out).all()


def test_forward_shape_mismatch():
    net = tiny_net()
    with pytest.raises(NetworkError):
        net.forward(np.zeros((1, 3, 64, 64), dtype=np.float32))


def test_forward_rejects_wrong_rank():
    with pytest.raises(NetworkError):
        tiny_net().forward(np.zeros((3, 96, 96), dtype=np.float32))


def test_backward_without_forward_raises():
    net = tiny_net()
    with pytest.raises(NetworkError, match="training"):
        net.backward(np.zeros((1, 16, 3, 3), dtype=np.float32))


def test_inference_forward_does_not_enable_backward():
    net = tiny_net()
    net.forward(np.zeros((1, 3, 96, 96), dtype=np.float32), training=False)
    with pytest.raises(NetworkError):
        net.backward(np.zeros((1, 16, 3, 3), dtype=np.float32))


def test_inference_forward_leaves_no_cache(monkeypatch):
    net = tiny_net()
    x = np.random.default_rng(8).standard_normal((2, 3, 96, 96)).astype(np.float32)
    net.forward(x, training=True)
    conv_caches = []
    for node in net.conv_nodes():
        forward = node.forward

        def recording(ins, training, forward=forward):
            out, cache = forward(ins, training)
            conv_caches.append(cache["conv"])
            return out, cache
        monkeypatch.setattr(node, "forward", recording)
    net.forward(x, training=False)
    assert net._cache is None  # the training cache of the earlier pass is gone too
    assert len(conv_caches) == sum(1 for _ in net.conv_nodes())
    assert all(c is None for c in conv_caches)  # no patch matrix outlives its node


def test_inference_writes_in_place_into_no_shared_array(monkeypatch):
    net = tiny_net()
    rng = np.random.default_rng(10)
    for node in net.conv_nodes():
        if node.bn is not None:
            c = node.bn.channels
            node.bn.gamma[...] = rng.uniform(0.5, 2.0, c)
            node.bn.beta[...] = rng.normal(0.0, 0.5, c)
            node.bn.running_mean[...] = rng.normal(0.0, 0.5, c)
            node.bn.running_var[...] = rng.uniform(0.5, 2.0, c)
    x = rng.standard_normal((2, 3, 96, 96)).astype(np.float32)
    before = x.copy()
    changed = []
    for node in net.nodes:
        def checking(ins, training, forward=node.forward, name=node.name):
            seen = [a.tobytes() for a in ins]
            out, cache = forward(ins, training)
            changed.extend(name for a, b in zip(ins, seen) if a.tobytes() != b)
            return out, cache
        monkeypatch.setattr(node, "forward", checking)
    first = net.forward(x, training=False)
    second = net.forward(x, training=False)
    assert not changed  # pre-activation nodes read routes that other nodes read too
    assert x.tobytes() == before.tobytes()
    assert first.tobytes() == second.tobytes()
    # the kernels give the same bytes when they allocate their results
    for name in ("batchnorm_forward", "leaky_forward"):
        kernel = getattr(network, name)
        monkeypatch.setattr(network, name,
                            lambda *args, kernel=kernel, out=None, **kw: kernel(*args, **kw))
    assert net.forward(x, training=False).tobytes() == first.tobytes()


def test_forward_drops_each_activation_after_its_last_reader(monkeypatch):
    net = tiny_net()
    refs, alive_at_head = {}, []
    head = net.nodes[-1]
    for node in net.nodes:
        def recording(ins, training, forward=node.forward, name=node.name):
            if name == head.name:
                alive_at_head.extend(n for n, ref in refs.items() if ref() is not None)
            out, cache = forward(ins, training)
            refs[name] = weakref.ref(out)
            return out, cache
        monkeypatch.setattr(node, "forward", recording)
    net.forward(np.zeros((1, 3, 96, 96), dtype=np.float32))
    assert alive_at_head == head.inputs


def test_training_forward_keeps_conv_and_pool_outputs_batch_innermost(monkeypatch):
    # the conv lowering copies runs of ow*n elements only while the batch
    # is the innermost axis; a C-order copy anywhere would undo that
    net = tiny_net()
    layouts = {}
    recorded = (network.ConvNode, network.MaxPoolNode)
    for node in net.nodes:
        if isinstance(node, recorded):
            def recording(ins, training, forward=node.forward, name=node.name):
                out, cache = forward(ins, training)
                layouts[name] = out.transpose(1, 2, 3, 0).flags.c_contiguous
                return out, cache
            monkeypatch.setattr(node, "forward", recording)
    x = np.random.default_rng(3).standard_normal((4, 3, 96, 96)).astype(np.float32)
    net.forward(x, training=True)
    assert len(layouts) == sum(isinstance(n, recorded) for n in net.nodes)
    assert [name for name, inner in layouts.items() if not inner] == []


def test_second_backward_raises():
    net = tiny_net()
    rng = np.random.default_rng(9)
    out = net.forward(rng.standard_normal((1, 3, 96, 96)).astype(np.float32), training=True)
    g = rng.standard_normal(out.shape).astype(np.float32)
    net.backward(g)
    assert net._cache is None
    with pytest.raises(NetworkError, match="training"):
        net.backward(g)


def test_backward_with_wrong_grad_shape_keeps_the_cache():
    net = tiny_net()
    rng = np.random.default_rng(10)
    out = net.forward(rng.standard_normal((1, 3, 96, 96)).astype(np.float32), training=True)
    with pytest.raises(NetworkError, match="grad shape"):
        net.backward(np.zeros((1, 16, 4, 4), dtype=np.float32))
    assert net.backward(np.zeros_like(out))


def test_zero_output_grad_gives_zero_param_grads():
    net = tiny_net()
    rng = np.random.default_rng(3)
    out = net.forward(rng.standard_normal((1, 3, 96, 96)).astype(np.float32), training=True)
    grads = net.backward(np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads.values())


def test_gradient_reaches_first_conv():
    net = tiny_net()
    rng = np.random.default_rng(4)
    out = net.forward(rng.standard_normal((1, 3, 96, 96)).astype(np.float32), training=True)
    grads = net.backward(rng.standard_normal(out.shape).astype(np.float32))
    assert np.abs(grads["conv1.weights"]).max() > 0


def test_fanout_gradient_is_sum_of_branch_gradients():
    # conv13 feeds both pool5 and the passthrough conv: the gradient conv13
    # receives is exactly the sum of the input gradients its two consumers
    # return, and killing the passthrough conv changes conv13's gradients
    net = tiny_net()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3, 96, 96)).astype(np.float32)
    g = rng.standard_normal((1, 16, 3, 3)).astype(np.float32)
    by_name = {node.name: node for node in net.nodes}

    seen = {}

    def record(name):
        node = by_name[name]
        backward = node.backward

        def wrapper(gout, cache, param_grads):
            gins = backward(gout, cache, param_grads)
            seen[name] = (gout.copy(), [gi.copy() for gi in gins])
            return gins
        node.backward = wrapper

    for name in ("pool5", "pass_conv", "conv13"):
        record(name)

    def conv13_grad(kill: str | None):
        saved = {}
        if kill:
            node = by_name[kill]
            saved["w"] = node.conv.weights.copy()
            node.conv.weights[...] = 0.0
        net.forward(x, training=True)
        out = net.backward(g)["conv13.weights"].copy()
        if kill:
            by_name[kill].conv.weights[...] = saved["w"]
        return out

    total = conv13_grad(None)
    received = seen["conv13"][0]
    from_pool5, from_pass = seen["pool5"][1][0], seen["pass_conv"][1][0]
    assert received.dtype == from_pool5.dtype == from_pass.dtype == np.float32
    assert (received == from_pool5 + from_pass).all()  # pool5 precedes pass_conv in the graph
    assert not (from_pool5 == 0).all() and not (from_pass == 0).all()

    only_head = conv13_grad("pass_conv")   # passthrough contributes nothing
    only_pass = conv13_grad("conv22")      # trunk ends right after pool5's consumer
    assert not np.allclose(total, only_head)  # the pass branch really contributes
    assert np.isfinite(only_pass).all()


def test_layer_kernels_called_through_network_module(monkeypatch):
    # per-layer tracing replaces these module names; a node that captured
    # the functions at import time would bypass it
    kernels = ["conv2d_forward", "conv2d_backward", "batchnorm_forward", "batchnorm_backward",
               "leaky_forward", "leaky_backward", "maxpool_forward", "maxpool_backward",
               "reorg_forward", "reorg_backward"]
    calls = {name: [] for name in kernels}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    for name in kernels:
        monkeypatch.setattr(network, name, counting(name, getattr(network, name)))
    net = tiny_net()
    rng = np.random.default_rng(6)
    out = net.forward(rng.standard_normal((2, 3, 96, 96)).astype(np.float32), training=True)
    net.backward(rng.standard_normal(out.shape).astype(np.float32))
    n_conv = sum(1 for _ in net.conv_nodes())
    n_pool = sum(1 for n in net.nodes if isinstance(n, network.MaxPoolNode))
    assert len(calls["conv2d_forward"]) == len(calls["conv2d_backward"]) == n_conv
    assert len(calls["maxpool_forward"]) == len(calls["maxpool_backward"]) == n_pool
    for name in kernels:
        assert calls[name], name
    # conv1 is called positionally as (grad, cache, params) and asks for no image gradient
    conv1_node = next(node for node in net.nodes if node.name == "conv1")
    conv1 = [c for c in calls["conv2d_backward"] if c[0][2] is conv1_node.conv]
    assert len(conv1) == 1 and len(conv1[0][0]) == 3
    assert conv1[0][1] == {"input_grad": False}


def test_skipping_image_gradient_keeps_conv1_grads_bit_identical(monkeypatch):
    net = tiny_net()
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 96, 96)).astype(np.float32)
    out = net.forward(x, training=True)
    g = rng.standard_normal(out.shape).astype(np.float32)
    skipped = net.backward(g)
    full_backward = network.conv2d_backward
    monkeypatch.setattr(network, "conv2d_backward",
                        lambda go, cache, p, input_grad=True: full_backward(go, cache, p))
    # backward frees the cache; the same input and weights give the same
    # batch statistics, so a second training forward rebuilds it bit for bit
    assert net.forward(x, training=True).tobytes() == out.tobytes()
    full = net.backward(g)
    for key in ("conv1.weights", "conv1.bias"):
        assert skipped[key].dtype == full[key].dtype
        assert skipped[key].tobytes() == full[key].tobytes(), key


def test_whole_network_gradcheck():
    assert check_network() < 1e-3


# -- initialization --------------------------------------------------------------


def test_init_deterministic():
    a, b = tiny_net(7), tiny_net(7)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.array, pb.array), pa.name


def test_init_differs_across_seeds():
    a, b = tiny_net(7), tiny_net(8)
    assert not np.array_equal(
        dict((p.name, p.array) for p in a.parameters())["conv1.weights"],
        dict((p.name, p.array) for p in b.parameters())["conv1.weights"],
    )


def test_init_bn_gamma_one():
    net = tiny_net()
    for node in net.conv_nodes():
        if node.bn is not None:
            assert np.all(node.bn.gamma == 1.0)
            assert np.all(node.bn.beta == 0.0)


def test_init_weight_variance():
    rng = np.random.default_rng(9)
    w = he_uniform(rng, 1024, 64, 3)
    s = np.sqrt(2.0 / (3 * 3 * 64))
    expected = s * s / 3.0
    assert abs(w.var() - expected) / expected < 0.2


# -- serialization -----------------------------------------------------------------


def test_save_load_save_round_trip(tmp_path):
    net = tiny_net(13)
    p1, p2 = tmp_path / "a.weights", tmp_path / "b.weights"
    net.save_weights(p1)
    other = build_network(NetworkConfig(**TINY))
    other.load_weights(p1)
    other.save_weights(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_restores_values(tmp_path):
    net = tiny_net(13)
    path = tmp_path / "w.weights"
    net.save_weights(path)
    other = build_network(NetworkConfig(**TINY))
    other.load_weights(path)
    for pa, pb in zip(net.parameters(), other.parameters()):
        assert np.array_equal(pa.array, pb.array), pa.name


def test_truncated_file_is_an_error(tmp_path):
    net = tiny_net()
    path = tmp_path / "w.weights"
    net.save_weights(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    other = tiny_net(5)
    before = [p.array.copy() for p in other.parameters()]
    with pytest.raises(NetworkError, match="parameters"):
        other.load_weights(path)
    for b, p in zip(before, other.parameters()):
        assert np.array_equal(b, p.array), p.name


def test_short_read_is_an_error(tmp_path, monkeypatch):
    # the file shrinks after its size was checked
    path = tmp_path / "w.weights"
    tiny_net().save_weights(path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat",
                        lambda fd: os.stat_result(real_fstat(fd)[:6] + (full,) + real_fstat(fd)[7:]))
    with pytest.raises(NetworkError, match="short read"):
        build_network(NetworkConfig(**TINY)).load_weights(path)


def test_header_truncation_is_an_error(tmp_path):
    path = tmp_path / "w.weights"
    path.write_bytes(b"DCSY\x01\x00")
    with pytest.raises(NetworkError, match="truncated"):
        build_network(NetworkConfig(**TINY)).load_weights(path)


def test_truncation_inside_the_anchors_is_an_error(tmp_path):
    path = tmp_path / "w.weights"
    net = build_network(NetworkConfig(**TINY, anchors=AnchorSet([(1.0, 1.0), (2.0, 2.0)])))
    net.save_weights(path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(NetworkError, match=r"truncated weight file \(40 bytes, header needs 64\)"):
        net.load_weights(path)


def test_bad_magic_is_an_error(tmp_path):
    path = tmp_path / "w.weights"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(NetworkError, match="magic"):
        build_network(NetworkConfig(**TINY)).load_weights(path)


def test_config_mismatch_names_parameter_counts(tmp_path):
    net = tiny_net()
    path = tmp_path / "w.weights"
    net.save_weights(path)
    other_cfg = dict(TINY)
    other_cfg["num_classes"] = 5
    other = build_network(NetworkConfig(**other_cfg))
    with pytest.raises(NetworkError, match=r"expected \d+ parameters.*contains \d+"):
        other.load_weights(path)


def test_read_weight_header(tmp_path):
    net = tiny_net()
    path = tmp_path / "w.weights"
    net.save_weights(path)
    h = read_weight_header(path)
    assert h.input_size == 96
    assert h.num_classes == 3
    assert h.num_anchors == 2
    assert h.channel_scale == Fraction(1, 8)
    assert h.anchors is None


def test_read_weight_header_returns_the_anchors(tmp_path):
    dims = [(0.625, 0.8125), (1.3, 2.7)]
    net = build_network(NetworkConfig(**TINY, anchors=AnchorSet(dims)))
    path = tmp_path / "w.weights"
    net.save_weights(path)
    h = read_weight_header(path)
    assert h.anchors == tuple(dims)
    assert h == net.weight_header()


A_DIMS = [(0.5, 0.75), (1.5, 1.25)]
B_DIMS = [(0.5, 0.75), (1.5, 1.2500001)]


@pytest.mark.parametrize("saved, loaded", [(A_DIMS, B_DIMS), (A_DIMS, None), (None, A_DIMS)],
                         ids=["other-anchors", "into-no-anchors", "from-no-anchors"])
def test_anchor_mismatch_is_an_error_before_any_array_is_written(tmp_path, saved, loaded):
    def net_with(dims, seed):
        net = build_network(NetworkConfig(**TINY, anchors=None if dims is None else AnchorSet(dims)))
        net.init_weights(seed)
        return net

    path = tmp_path / "w.weights"
    net_with(saved, 1).save_weights(path)
    other = net_with(loaded, 2)
    before = [p.array.copy() for p in other.parameters()]
    with pytest.raises(NetworkError, match=r"\(anchors .* != .*\); expected (\d+) parameters, "
                                           r"file contains \1$"):
        other.load_weights(path)
    for b, p in zip(before, other.parameters()):
        assert np.array_equal(b, p.array), p.name


def test_version_1_header_is_rejected(tmp_path):
    # version 1 had no anchors: the magic, seven u32 fields, then the parameters
    net = tiny_net()
    path = tmp_path / "w.weights"
    net.save_weights(path)
    h = net.weight_header()
    v1 = struct.pack("<7I", 1, 96, 3, 2, 1, 8, h.conv_layers)
    path.write_bytes(b"DCSY" + v1 + path.read_bytes()[h.size:])
    with pytest.raises(NetworkError, match="unsupported weight format version 1$"):
        build_network(NetworkConfig(**TINY)).load_weights(path)


def oversized_header(num_classes: int) -> bytes:
    """64 bytes: a v2 header for input 96, scale 1/8, K=2 and C classes, two anchors, no body."""
    fields = struct.pack("<7I", 2, 96, num_classes, 2, 1, 8, 28)
    return b"DCSY" + fields + np.array([[1.0, 1.0], [2.0, 2.0]], dtype="<f8").tobytes()


@pytest.mark.parametrize("num_classes", [10**6, 10**9])
def test_header_claiming_more_classes_than_the_file_holds_allocates_nothing(tmp_path, num_classes):
    path = tmp_path / "w.weights"
    path.write_bytes(oversized_header(num_classes))
    assert path.stat().st_size == 64
    tracemalloc.start()
    try:
        with pytest.raises(NetworkError, match=f"{num_classes} classes, more than the 0-byte body"):
            read_weight_header(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
