"""Spans around the program's public functions, recorded from outside.

The tracer replaces a name in the module that calls it (for example
`dcspp_yolo.network.conv2d_forward`, the binding `NetworkGraph` uses)
with a wrapper that records a span, and puts the original back on
`uninstall`. No program file changes. Spans stay in memory until the
run ends; `write` saves them as JSON lines and `per_layer` derives the
per-operation metrics, self times included.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# A span is [name, op tag, parent index or -1, start s, end s, count or None];
# the op tag is "setup" or "op-<n>", shared by every span of one operation.
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by a recording wrapper.

        `name` is a span name or a function of the call's positional
        arguments that returns one; `count(args, result)` gives the span's
        count (work done, or items produced).
        """
        fn = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, _n=name: _n)

        def traced(*args, **kwargs):
            idx = self._open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][5] = count(args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, op, parent, t0, t1, count in self.spans:
                f.write(json.dumps({"name": name, "op": op, "parent": parent,
                                    "start": t0, "end": t1, "count": count}) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the program's layer, loss, optimiser, post-processing,
    evaluation and reading functions where its own modules call them."""
    from dcspp_yolo import data, detection, evaluation, network, ppm, training

    def conv_flops(args, _out):
        x, p = args[0], args[1]
        n, _, h, w = x.shape
        k = p.kernel
        oh = (h + 2 * p.pad - k) // p.stride + 1
        ow = (w + 2 * p.pad - k) // p.stride + 1
        return 2 * n * p.out_channels * oh * ow * p.in_channels * k * k

    def pool_name(phase):
        def name_of(args):
            stride = args[2] if phase == "forward" else args[1].stride
            return f"layers.pool2x2_{phase}" if stride == 2 else f"layers.spp_{phase}"
        return name_of

    t = tracer
    t.wrap(network.NetworkGraph, "forward", "network.forward")
    t.wrap(network.NetworkGraph, "backward", "network.backward")
    t.wrap(network.NetworkGraph, "load_weights", "network.load_weights")
    t.wrap(network, "conv2d_forward", "layers.conv_forward", count=conv_flops)
    # conv1 is the only conv that reads the 3-channel image
    t.wrap(network, "conv2d_backward",
           lambda args: "layers.conv1_backward" if args[2].in_channels == 3
           else "layers.conv_backward")
    t.wrap(network, "batchnorm_forward", "layers.batchnorm_forward")
    t.wrap(network, "batchnorm_backward", "layers.batchnorm_backward")
    t.wrap(network, "leaky_forward", "layers.leaky_forward")
    t.wrap(network, "leaky_backward", "layers.leaky_backward")
    t.wrap(network, "maxpool_forward", pool_name("forward"))
    t.wrap(network, "maxpool_backward", pool_name("backward"))
    t.wrap(network, "reorg_forward", "layers.reorg")
    t.wrap(network, "reorg_backward", "layers.reorg")
    t.wrap(training, "decode_predictions", "loss.decode_predictions")
    t.wrap(training, "assign_targets", "loss.assign_targets")
    t.wrap(training, "compute_loss", "loss.compute_loss")
    t.wrap(training, "adam_step", "training.adam_step")
    t.wrap(detection, "decode", "detection.decode", count=lambda _a, out: len(out))
    t.wrap(detection, "nms", "detection.nms", count=lambda _a, out: len(out))
    t.wrap(evaluation, "match_detections", "evaluation.match")
    t.wrap(evaluation, "average_precision", "evaluation.ap")
    t.wrap(ppm, "ppm_read", "ppm.read")
    for module in (data, training, evaluation):
        t.wrap(module, "image_to_tensor", "data.letterbox")


def per_layer(spans: list[Span], ops: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-operation metrics from the spans of `ops` traced operations, and
    per-set-up ones from `setups` traced set-ups, as {name: (value, unit)}.
    A layer the workload never calls reads 0."""
    total: dict[tuple[str, bool], float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    child = [0.0] * len(spans)
    for _name, _op, parent, t0, t1, _count in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, op, _parent, t0, t1, count) in enumerate(spans):
        in_op = op != "setup"
        total[name, in_op] += t1 - t0
        if in_op:
            self_s[name] += t1 - t0 - child[i]
            if count is not None:
                counts[name] += count

    def op_ms(*names):
        return 1e3 * sum(total[n, True] for n in names) / ops, "ms"

    def setup_ms(name):
        return 1e3 * total[name, False] / setups, "ms"

    def self_ms(*names):
        return 1e3 * sum(self_s[n] for n in names) / ops, "ms"

    flop = counts["layers.conv_forward"] / ops
    conv_s = total["layers.conv_forward", True] / ops
    cand = counts["detection.decode"] / ops
    kept = counts["detection.nms"] / ops
    return {
        "network.forward_ms": op_ms("network.forward"),
        "network.backward_ms": op_ms("network.backward"),
        "network.graph_self_ms": self_ms("network.forward", "network.backward"),
        "network.load_weights_ms": setup_ms("network.load_weights"),
        "layers.conv_forward_ms": op_ms("layers.conv_forward"),
        "layers.conv_backward_ms": op_ms("layers.conv_backward", "layers.conv1_backward"),
        "layers.conv1_backward_ms": op_ms("layers.conv1_backward"),
        "layers.conv_forward_gflop": (flop / 1e9, "GFLOP"),
        "layers.conv_forward_gflops": (flop / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s"),
        "layers.batchnorm_forward_ms": op_ms("layers.batchnorm_forward"),
        "layers.batchnorm_backward_ms": op_ms("layers.batchnorm_backward"),
        "layers.leaky_forward_ms": op_ms("layers.leaky_forward"),
        "layers.leaky_backward_ms": op_ms("layers.leaky_backward"),
        "layers.pool2x2_forward_ms": op_ms("layers.pool2x2_forward"),
        "layers.pool2x2_backward_ms": op_ms("layers.pool2x2_backward"),
        "layers.spp_forward_ms": op_ms("layers.spp_forward"),
        "layers.spp_backward_ms": op_ms("layers.spp_backward"),
        "layers.reorg_ms": op_ms("layers.reorg"),
        "loss.decode_predictions_ms": op_ms("loss.decode_predictions"),
        "loss.assign_targets_ms": op_ms("loss.assign_targets"),
        "loss.compute_loss_ms": op_ms("loss.compute_loss"),
        "training.adam_step_ms": op_ms("training.adam_step"),
        "training.loop_self_ms": self_ms("training.train"),
        "training.synth_ms": setup_ms("training.synth"),
        "anchors.kmeans_ms": setup_ms("anchors.kmeans"),
        "detection.decode_ms": op_ms("detection.decode"),
        "detection.nms_ms": op_ms("detection.nms"),
        "detection.candidates": (cand, "count"),
        "detection.kept": (kept, "count"),
        "detection.nms_keep_ratio": (kept / cand if cand else 0.0, "ratio"),
        "evaluation.match_ms": op_ms("evaluation.match"),
        "evaluation.ap_ms": op_ms("evaluation.ap"),
        "evaluation.self_ms": self_ms("evaluation.evaluate"),
        "ppm.read_ms": op_ms("ppm.read"),
        "data.letterbox_ms": op_ms("data.letterbox"),
    }
