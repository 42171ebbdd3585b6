"""The two-thread conv forward: a large GEMM split by output channel
between the caller and one worker thread gives the bytes of the unsplit
product, only large GEMMs split, and the worker survives sharing and fork."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_training import _tiny_setup

from dcspp_yolo import layers, network
from dcspp_yolo.layers import ConvParams, conv2d_forward
from dcspp_yolo.network import NetworkConfig, build_network
from dcspp_yolo.training import TrainConfig, train

BUILD_416 = NetworkConfig(input_size=416, num_classes=20, num_anchors=5)
EVAL_DENSE = NetworkConfig(input_size=416, num_classes=3, num_anchors=5,
                           channel_scale=Fraction(1, 8))
TINY = NetworkConfig(input_size=96, num_classes=3, num_anchors=2, channel_scale=Fraction(1, 8))
TIMEOUT_S = 120
ROOT = Path(__file__).resolve().parents[1]


class CountingPool:
    """Stands in for the module's pool: a one-thread pool of its own that
    records each submission's row count."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(1)
        self.splits = []

    def submit(self, fn, wm, band, out):
        self.splits.append(len(wm))
        return self.pool.submit(fn, wm, band, out=out)


@contextmanager
def split_pool(gate=None):
    """Route every split to a CountingPool; gate=inf splits nothing."""
    counting = CountingPool()
    saved = layers._worker, layers._SPLIT_FLOPS
    layers._worker = lambda: counting
    if gate is not None:
        layers._SPLIT_FLOPS = gate
    try:
        yield counting
    finally:
        layers._worker, layers._SPLIT_FLOPS = saved
        counting.pool.shutdown()


@pytest.fixture(scope="module")
def net416():
    net = build_network(BUILD_416)
    net.init_weights(7)
    return net


def _image(cfg, n=1, seed=0):
    return np.random.default_rng(seed).random((n, 3, cfg.input_size, cfg.input_size),
                                              dtype=np.float32)


def _conv_digests(net, x, monkeypatch, gate=None):
    """The sha256 of every conv output of one inference forward, and the pool."""
    digests, conv = [], network.conv2d_forward

    def recording(x, p, workspace=None):
        y, cache = conv(x, p, workspace=workspace)
        digests.append(hashlib.sha256(np.ascontiguousarray(y).tobytes()).digest())
        return y, cache

    monkeypatch.setattr(network, "conv2d_forward", recording)
    with split_pool(gate) as pool:
        net.forward(x)
    monkeypatch.setattr(network, "conv2d_forward", conv)
    return digests, pool


def _forward_bytes_equal_unsplit(net, x, monkeypatch, gate=None):
    split, pool = _conv_digests(net, x, monkeypatch, gate)
    unsplit, none = _conv_digests(net, x, monkeypatch, gate=float("inf"))
    assert not none.splits
    assert len(split) == len(unsplit) == len(list(net.conv_nodes()))
    assert [i for i, (a, b) in enumerate(zip(split, unsplit)) if a != b] == []
    return pool


def test_every_416_conv_split_equals_unsplit_bytewise(net416, monkeypatch):
    assert _forward_bytes_equal_unsplit(net416, _image(BUILD_416), monkeypatch).splits


@pytest.mark.parametrize("cfg, n, gate", [(EVAL_DENSE, 1, 0), (TINY, 16, 0), (TINY, 1, None)],
                         ids=["eval_dense", "tiny-16", "tiny-1"])
def test_small_build_convs_equal_unsplit_bytewise(cfg, n, gate, monkeypatch):
    # These builds have no GEMM above the gate; with none (gate 0) every
    # GEMM of 64 rows or more splits, and the bytes still hold. At the tiny
    # preset's batch 1, GEMMs of a few MFLOP take OpenBLAS's small-matrix
    # path, where forced splits changed 10 of 28 convs: the gate splits none.
    net = build_network(cfg)
    net.init_weights(7)
    pool = _forward_bytes_equal_unsplit(net, _image(cfg, n), monkeypatch, gate)
    assert bool(pool.splits) == (gate == 0)


@st.composite
def split_conv_cases(draw):
    """A 3x3 conv whose first GEMM is above the gate, with out_c not a
    multiple of 32: one band on a map of at most 20x20 (the 13x13 layers'
    case), or two or more on a larger one, where the last may fall below."""
    multi_band = draw(st.booleans())
    n = draw(st.sampled_from([1, 2]))
    oc = draw(st.integers(80, 250).filter(lambda c: c % 32))
    c = draw(st.integers(48, 96) if multi_band else st.integers(768, 1024))
    size = draw(st.integers(56, 80) if multi_band else st.integers(13, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c, size, size)).astype(np.float32)
    p = ConvParams(weights=(rng.standard_normal((oc, c, 3, 3)) / 30).astype(np.float32),
                   bias=rng.standard_normal(oc).astype(np.float32), pad=1)
    return x, p, multi_band


@given(split_conv_cases())
@settings(max_examples=30, deadline=None)
def test_split_conv_equals_unsplit_bytewise(case):
    x, p, multi_band = case
    with split_pool(gate=float("inf")):
        unsplit, _ = conv2d_forward(x, p)
    bands = []
    gemm = layers._gemm
    layers._gemm = lambda wm, band, out: (bands.append(band.shape[1]), gemm(wm, band, out))
    try:
        with split_pool() as pool:
            split, _ = conv2d_forward(x, p)
    finally:
        layers._gemm = gemm
    assert (len(bands) > 1) == multi_band and pool.splits
    assert split.tobytes() == unsplit.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("oc", [35, 63, 64, 65, 80, 125, 1024])
def test_split_leaves_each_thread_whole_32_row_blocks(oc, dtype):
    # A (35 x 1280) @ (1280 x 169) product split at row 32 changed bytes: the
    # 3-row part takes other OpenBLAS kernels. Split parts are 32-row
    # multiples from the top, and a product under 64 rows is not split. In
    # float64, rows 24-79 of (80 x 1280) @ (1280 x 196) split at 32 changed.
    rng = np.random.default_rng(oc)
    wm = rng.standard_normal((oc, 1280)).astype(dtype)
    band = rng.standard_normal((1280, 196)).astype(dtype)
    out = np.empty((oc, 196), dtype)
    with split_pool(gate=0) as pool:
        layers._gemm(wm, band, out)
    assert out.tobytes() == (wm @ band).tobytes()
    if oc < 2 * layers._SPLIT_ALIGN or dtype == np.float64:
        assert pool.splits == []
    else:
        (rest,) = pool.splits
        h = oc - rest
        assert h % layers._SPLIT_ALIGN == 0 and layers._SPLIT_ALIGN <= h <= rest


def test_only_large_gemms_split(net416, tmp_path):
    # one tiny-preset training iteration and one eval_dense-build forward
    # split nothing; the 416 forward splits 33 GEMMs
    net, manifest = _tiny_setup(tmp_path, n=16)
    with split_pool() as pool:
        train(net, manifest, TrainConfig(batch_size=16, epochs=1, seed=0), max_iterations=1)
    assert pool.splits == []
    dense = build_network(EVAL_DENSE)
    dense.init_weights(7)
    with split_pool() as pool:
        dense.forward(_image(EVAL_DENSE))
    assert pool.splits == []
    with split_pool() as pool:
        net416.forward(_image(BUILD_416))
    assert len(pool.splits) == 33


NEVER_SPLITS = """
import sys, threading
import numpy as np
from fractions import Fraction
from dcspp_yolo import layers
from dcspp_yolo.network import NetworkConfig, build_network
net = build_network(NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                                  channel_scale=Fraction(1, 8)))
net.init_weights(0)
net.forward(np.zeros((4, 3, 96, 96), np.float32))
print(layers._pool, "concurrent.futures" in sys.modules, threading.active_count())
"""


def test_a_process_that_never_splits_starts_no_thread():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NEVER_SPLITS], env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["None", "False", "1"]


def test_threads_making_their_first_split_at_once_share_one_pool(monkeypatch):
    made = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(layers, "_pool", None)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(layers, "_may_use_two_cpus", lambda: True)
    rng = np.random.default_rng(9)
    wm = rng.standard_normal((128, 1152)).astype(np.float32)
    band = rng.standard_normal((1152, 1024)).astype(np.float32)
    want = (wm @ band).tobytes()
    workers = 8
    outs = [np.empty((128, 1024), np.float32) for _ in range(workers)]
    start = threading.Barrier(workers)

    def first_split(out):
        start.wait()
        layers._gemm(wm, band, out)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_split, args=(o,), daemon=True) for o in outs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(switch)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert len(made) == 1
    assert all(o.tobytes() == want for o in outs)


def _large_conv():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 512, 13, 13)).astype(np.float32)
    p = ConvParams(weights=rng.standard_normal((1024, 512, 3, 3)).astype(np.float32),
                   bias=np.zeros(1024, np.float32), pad=1)
    return x, p


def _digest_of_large_conv(conn):
    conn.send(hashlib.sha256(conv2d_forward(*_large_conv())[0].tobytes()).hexdigest())


@pytest.mark.skipif(not layers._may_use_two_cpus(), reason="one CPU: no worker")
def test_forked_child_splits_with_a_worker_of_its_own():
    # the parent's worker thread is running when it forks; the child has none
    x, p = _large_conv()
    want = hashlib.sha256(conv2d_forward(x, p)[0].tobytes()).hexdigest()
    assert layers._pool is not None
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    child = ctx.Process(target=_digest_of_large_conv, args=(child_end,))
    child.start()
    try:
        assert parent_end.poll(TIMEOUT_S), "forked child did not finish a split conv"
        assert parent_end.recv() == want
    finally:
        child.kill()
        child.join()


def test_shared_inference_graph_runs_in_two_threads(net416):
    x = [_image(BUILD_416, seed=s) for s in (1, 2)]
    want = [net416.forward(xi).tobytes() for xi in x]
    got = [None, None]

    def run(i):
        got[i] = net416.forward(x[i]).tobytes()

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "deadlock"
    assert got == want


def test_shared_inference_graph_runs_in_two_threads_with_a_workspace_each(net416):
    x = [_image(BUILD_416, seed=s) for s in (3, 4)]
    want = [net416.forward(xi).tobytes() for xi in x]
    got = [None, None]

    def run(i):
        ws = layers.Workspace()
        got[i] = [net416.forward(x[i], workspace=ws).tobytes() for _ in range(2)]

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "deadlock"
    assert got == [[w, w] for w in want]
