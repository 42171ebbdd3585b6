"""Smoke test of the benchmark's tracer (`bench/tracing.py`): every name it
wraps in the program must still be called, so each per-layer metric keeps
measuring the work it names."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from dcspp_yolo import detection, network
from dcspp_yolo.anchors import kmeans_anchors, load_boxes_from_labels
from dcspp_yolo.evaluation import evaluate
from dcspp_yolo.network import NetworkConfig, build_network
from dcspp_yolo.training import TrainConfig, synth_dataset, train

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

WRAPPED_SPANS = {
    "network.forward", "network.backward", "network.load_weights",
    "layers.conv_forward", "layers.conv_backward", "layers.conv1_backward",
    "layers.batchnorm_forward", "layers.batchnorm_backward",
    "layers.leaky_forward", "layers.leaky_backward",
    "layers.pool2x2_forward", "layers.pool2x2_backward",
    "layers.spp_forward", "layers.spp_backward", "layers.reorg",
    "loss.decode_predictions", "loss.assign_targets", "loss.compute_loss",
    "training.adam_step", "detection.decode", "detection.nms",
    "evaluation.match", "evaluation.ap", "ppm.read", "data.letterbox",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_span_is_recorded(tmp_path):
    assert len(WRAPPED_SPANS) == 25
    tracing = _load_tracing()
    originals = (network.conv2d_forward, detection.nms, network.NetworkGraph.forward)
    tracer = tracing.Tracer()
    tracing.install_program_spans(tracer)
    try:
        manifest = synth_dataset(4, image_size=64, seed=0, out_dir=tmp_path / "data")
        anchors = kmeans_anchors(load_boxes_from_labels(tmp_path / "data", 2), 2, seed=0)
        cfg = NetworkConfig(input_size=64, num_classes=3, num_anchors=2, anchors=anchors,
                            channel_scale=Fraction(1, 8))
        net = build_network(cfg)
        net.init_weights(0)
        train(net, manifest, TrainConfig(batch_size=4, epochs=1, seed=0), max_iterations=1)
        net.save_weights(tmp_path / "w.weights")
        twin = build_network(cfg)
        twin.load_weights(tmp_path / "w.weights")
        evaluate(twin, manifest, conf_thres=0.005)
    finally:
        tracer.uninstall()
    assert {span[0] for span in tracer.spans} == WRAPPED_SPANS
    assert (network.conv2d_forward, detection.nms, network.NetworkGraph.forward) == originals
