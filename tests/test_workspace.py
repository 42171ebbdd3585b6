"""A caller-owned `layers.Workspace`: calls that take their arrays from it
give the bytes of calls that allocate, a second call of the same shapes
allocates nothing large, and no array a caller still holds is handed out
again."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dcspp_yolo import layers
from dcspp_yolo.data import image_to_tensor
from dcspp_yolo.layers import Workspace
from dcspp_yolo.network import NetworkConfig, build_network

BUILD_416 = NetworkConfig(input_size=416, num_classes=20, num_anchors=5)
EVAL_DENSE = NetworkConfig(input_size=416, num_classes=3, num_anchors=5,
                           channel_scale=Fraction(1, 8))
TINY = NetworkConfig(input_size=96, num_classes=3, num_anchors=2, channel_scale=Fraction(1, 8))
MIB = 1 << 20


def _net(cfg, seed=11):
    net = build_network(cfg)
    net.init_weights(seed)
    return net


def _image(seed, h=416, w=416):
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


def test_held_arrays_are_never_handed_out_again():
    ws = Workspace()
    a = ws.empty((MIB,), np.uint8)
    b = ws.empty((MIB // 4,), np.float32)
    assert not np.shares_memory(a, b)
    view = a[::2].reshape(-1, 2).T  # a view keeps its memory taken
    del a
    c = ws.empty((MIB,), np.uint8)
    assert not np.shares_memory(c, view) and not np.shares_memory(c, b)
    del view
    d = ws.empty((MIB // 2,), np.float64)  # the first chunk is free again
    assert not np.shares_memory(d, b) and not np.shares_memory(d, c)
    assert d.flags.c_contiguous and d.flags.writeable and d.dtype == np.float64
    assert ws.empty((10,), np.float32).flags.owndata  # small arrays are numpy's own


def test_workspace_results_are_laid_out_as_numpy_lays_them_out():
    # the layout of a gradient decides the order of the float32 sums after it
    batch_innermost = np.ones((64, 32, 32, 4), np.float32).transpose(3, 0, 1, 2)
    c_order = np.ones((4, 64, 32, 32), np.float32)
    for a in (batch_innermost, c_order):
        for b in (batch_innermost, c_order):
            assert layers._result(Workspace(), a, b).strides == np.multiply(a, b).strides
            assert layers._result(None, a, b) is None


def test_second_letterbox_and_forward_allocate_no_mebibyte():
    # a deterministic stand-in for the page faults of a second evaluate
    # image: with a workspace no MiB is allocated, without one it is
    net, img = _net(EVAL_DENSE), _image(1)
    ws = Workspace()

    def letterbox_and_forward(ws):
        out = None if ws is None else ws.empty((1, 3, 416, 416), np.float32)
        return net.forward(image_to_tensor(img, 416, out=out), workspace=ws)

    def peak_growth(ws):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            letterbox_and_forward(ws)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    letterbox_and_forward(ws)
    assert peak_growth(ws) < MIB
    assert peak_growth(None) >= MIB


@pytest.mark.parametrize("cfg", [BUILD_416, EVAL_DENSE], ids=["416", "eval_dense"])
def test_inference_forward_bytes_do_not_depend_on_the_workspace(cfg):
    net = _net(cfg)
    xs = [image_to_tensor(_image(seed), 416) for seed in (1, 2)]
    want = [net.forward(x).tobytes() for x in xs]
    ws = Workspace()
    first = net.forward(xs[0], workspace=ws)
    second = net.forward(xs[1], workspace=ws)
    assert [first.tobytes(), second.tobytes()] == want
    # the result is the caller's: no later call writes into it
    assert first.flags.owndata and not np.shares_memory(first, second)
    assert net.forward(xs[1], workspace=ws).tobytes() == want[1]
    assert first.tobytes() == want[0]


def _train_steps(ws, batches):
    """Training forward and backward of each batch on fresh tiny weights:
    the outputs, the parameter gradients in key order, and the running
    statistics after each step, as bytes. Every step's gradients are held
    to the end, and no later step may write into them."""
    net = _net(TINY, seed=3)
    steps, held = [], []
    for i, x in enumerate(batches):
        out = net.forward(x, training=True, workspace=ws)
        g = np.random.default_rng(i).standard_normal(out.shape).astype(np.float32)
        held.append(net.backward(g, workspace=ws))
        stats = [a.tobytes() for node in net.conv_nodes() if node.bn is not None
                 for a in (node.bn.running_mean, node.bn.running_var)]
        steps.append((out.tobytes(), [(k, v.tobytes()) for k, v in held[-1].items()], stats))
    assert [[(k, v.tobytes()) for k, v in grads.items()] for grads in held] == [s[1] for s in steps]
    return steps


def test_training_bytes_do_not_depend_on_the_workspace():
    rng = np.random.default_rng(5)
    # the batch size changes between steps with the same workspace
    batches = [rng.random((n, 3, 96, 96), dtype=np.float32) for n in (4, 2, 5, 4)]
    assert _train_steps(Workspace(), batches) == _train_steps(None, batches)
