"""Acceptance gate: every shipping criterion, one test each, with an
explicit PASS/FAIL line printed per criterion.

The learning criterion trains the tiny preset from scratch and is the
long pole (about five minutes on a desktop CPU); everything else runs in
seconds.
"""

import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from dcspp_yolo import gradcheck
from dcspp_yolo.anchors import AnchorSet, kmeans_anchors, load_boxes_from_labels
from dcspp_yolo.cli import main as cli_main
from dcspp_yolo.data import image_to_tensor
from dcspp_yolo.detection import BBox, decode_predictions, detect_image, nms
from dcspp_yolo.evaluation import average_precision, evaluate, match_detections
from dcspp_yolo.loss import assign_targets, compute_loss
from dcspp_yolo.network import MaxPoolNode, NetworkConfig, REFERENCE_SHAPES_416, build_network
from dcspp_yolo.ppm import ppm_read, ppm_write
from dcspp_yolo.training import TrainConfig, synth_dataset, train, write_loss_log

from test_anchors import iou_dist
from test_detection import as_detections, brute_force_nms, _random_dets
from test_evaluation import brute_force_match, det, truth_arrays
from test_loss import make_labels, straight_line_loss


def _report(name: str):
    """Context manager printing one PASS/FAIL line per criterion.

    Lines go to the unbuffered real stdout so they stay visible under
    pytest's output capture.
    """

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {status}: {name}", file=sys.__stdout__)
            return False

    return _Ctx()


# -- criterion: reference shape table ------------------------------------------------


def test_acceptance_shape_table():
    with _report("layer shape table at input 416 (C=20, K=5), exact"):
        t0 = time.time()
        net = build_network(NetworkConfig(input_size=416, num_classes=20, num_anchors=5))
        shapes = dict(net.infer_shapes())
        for name, c, hw in REFERENCE_SHAPES_416:
            assert shapes[name] == (c, hw, hw), name
        assert shapes["conv31"] == (125, 13, 13)
        assert shapes["pool5"] == (512, 13, 13)
        assert shapes["dc_out"] == (2304, 13, 13)
        assert shapes["spp_cat"] == (2048, 13, 13)
        assert shapes["head_cat"] == (1280, 13, 13)
        assert cli_main(["shapecheck", "--input-size", "416", "--classes", "20",
                         "--anchors-k", "5"]) == 0
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"shape checks took {elapsed:.1f}s"


# -- criterion: gradient suite ----------------------------------------------------------


def test_acceptance_gradient_suite():
    with _report("analytic gradients vs central finite differences"):
        t0 = time.time()
        results = gradcheck.run_all()
        for name in ("conv", "conv_strided", "batchnorm", "leaky", "maxpool", "reorg"):
            assert results[name] < 1e-4, (name, results[name])
        assert results["network"] < 1e-3, results["network"]
        assert results["loss"] < 1e-5, results["loss"]
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- criterion: loss oracle equivalence ---------------------------------------------------


def test_acceptance_loss_oracle():
    with _report("loss equals straight-line recomputation; perfect prediction is 0"):
        anchors = AnchorSet(dims=[(0.9, 1.1)])
        raw = np.array(
            [
                [[0.31, -0.44], [0.05, 1.2]],
                [[-0.21, 0.16], [0.4, -0.9]],
                [[0.12, -0.3], [0.25, 0.5]],
                [[-0.05, 0.2], [-0.4, 0.1]],
                [[0.6, -1.1], [0.2, -0.3]],
                [[0.8, 0.3], [-0.6, 0.45]],
                [[-0.2, 0.7], [0.1, -0.25]],
            ]
        )
        truths = make_labels((0, 0.3, 0.26, 0.33, 0.42), (1, 0.77, 0.74, 0.25, 0.2))
        preds = decode_predictions(raw[None], anchors)
        for images_seen in (0, 1000):
            asg = assign_targets([truths], preds, 1000, images_seen=images_seen)
            parts, _ = compute_loss(preds, asg)
            expected = straight_line_loss(raw, truths, asg, anchors)
            assert abs(parts.total - expected) <= 1e-10

        # perfect prediction: saturated logits give exact zeros
        anchors = AnchorSet(dims=[(0.7, 0.9)])
        raw = np.zeros((7, 2, 2))
        raw[4, :, :] = -800.0
        raw[4, 0, 1] = 800.0
        raw[5, 0, 1] = -800.0
        raw[6, 0, 1] = 800.0
        truth = make_labels((1, 0.75, 0.25, 0.7 / 2, 0.9 / 2))
        preds = decode_predictions(raw[None], anchors)
        asg = assign_targets([truth], preds, 1000, images_seen=1000)
        parts, _ = compute_loss(preds, asg)
        assert parts.total == 0.0


# -- criterion: pyramid pooling windows ------------------------------------------------------


def test_acceptance_spp_windows():
    with _report("pyramid windows at feature size 13 are 5, 7, 13 and preserve dims"):
        net = build_network(NetworkConfig(input_size=416, num_classes=20, num_anchors=5))
        windows = {n.name: n.pool_size for n in net.nodes if n.name.startswith("spp_")
                   and isinstance(n, MaxPoolNode)}
        assert windows == {"spp_a": 5, "spp_b": 7, "spp_c": 13}
        shapes = dict(net.infer_shapes())
        for tag in ("spp_a", "spp_b", "spp_c"):
            assert shapes[tag] == shapes["conv23"]


# -- criterion: NMS / matching / AP oracles ----------------------------------------------------


def test_acceptance_postprocessing_oracles():
    with _report("NMS, matching, and AP agree with brute-force references"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            dets = _random_dets(rng, int(rng.integers(0, 11)), classes=3)
            assert list(nms(as_detections(dets), 0.45)) == brute_force_nms(dets, 0.45)

        rng = np.random.default_rng(100)
        for _ in range(1000):
            truths = []
            for _ in range(int(rng.integers(0, 5))):
                x0, y0 = rng.uniform(0, 60, 2)
                truths.append((int(rng.integers(2)),
                               BBox(x0, y0, x0 + rng.uniform(5, 30), y0 + rng.uniform(5, 30))))
            dets = []
            for _ in range(int(rng.integers(0, 10))):
                x0, y0 = rng.uniform(0, 60, 2)
                dets.append(det(x0, y0, x0 + rng.uniform(5, 30), y0 + rng.uniform(5, 30),
                                cid=int(rng.integers(2)), score=float(rng.uniform())))
            dets.sort(key=lambda d: -d.score)
            flags = match_detections(as_detections(dets), *truth_arrays(truths), 0.5)
            assert flags.tolist() == brute_force_match(dets, truths, 0.5)

        assert average_precision([True, False, True], 2) == pytest.approx(5 / 6, abs=1e-12)


# -- criterion: anchor clustering ---------------------------------------------------------------


def test_acceptance_anchor_clustering():
    with _report("anchor clustering: recovery, monotone cost, exact distances"):
        out = kmeans_anchors([(1.0, 1.0)] * 10 + [(8.0, 8.0)] * 10, 2, seed=0)
        assert sorted(out.dims) == [(1.0, 1.0), (8.0, 8.0)]

        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(5, 50))
            boxes = rng.uniform(0.2, 12.0, (n, 2))
            k = int(rng.integers(1, min(n, 6)))
            res = kmeans_anchors(boxes, k, seed=trial)
            costs = res.cost_history
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:])), trial

        assert iou_dist((2, 2), (4, 4)) == 0.75


# -- criterion: learning -------------------------------------------------------------------------


TINY_PRESET = dict(
    data_seed=7,
    anchor_seed=3,
    net_seed=11,
    image_size=96,
    num_images=16,
    k=2,
    channel_scale=Fraction(1, 8),
)


def _train_tiny(tmp_path, iterations=900):
    manifest = synth_dataset(TINY_PRESET["num_images"], image_size=TINY_PRESET["image_size"],
                             seed=TINY_PRESET["data_seed"], out_dir=tmp_path / "data")
    boxes = load_boxes_from_labels(tmp_path / "data", TINY_PRESET["image_size"] // 32)
    anchors = kmeans_anchors(boxes, TINY_PRESET["k"], seed=TINY_PRESET["anchor_seed"])
    cfg = NetworkConfig(input_size=TINY_PRESET["image_size"], num_classes=3,
                        num_anchors=TINY_PRESET["k"], anchors=anchors,
                        channel_scale=TINY_PRESET["channel_scale"])
    net = build_network(cfg)
    net.init_weights(TINY_PRESET["net_seed"])
    # the whole dataset forms one batch so inference-time batch-norm
    # statistics reproduce the training-time ones exactly
    tcfg = TrainConfig(batch_size=16, epochs=iterations, seed=TINY_PRESET["net_seed"],
                       n_prior=12800, lr_drops=((400, 0.1), (500, 0.1)))
    result = train(net, manifest, tcfg, max_iterations=iterations)
    return net, manifest, result


def test_acceptance_learning_criterion(tmp_path):
    with _report("tiny-preset overfit: loss < 5% of initial within 2000 iterations, "
                 "training-set mAP >= 0.90"):
        t0 = time.time()
        net, manifest, result = _train_tiny(tmp_path)
        assert len(result.rows) <= 2000
        initial = result.rows[0].parts.total
        best = min(r.parts.total for r in result.rows)
        assert best < 0.05 * initial, f"loss ratio {best / initial:.4f}"
        ev = evaluate(net, manifest)
        elapsed = time.time() - t0
        print(f"  learning run: {len(result.rows)} iterations, loss ratio "
              f"{best / initial:.5f}, mAP {ev.map:.4f}, {elapsed / 60:.1f} min",
              file=sys.__stdout__)
        assert ev.map >= 0.90, f"mAP {ev.map:.4f}"
        assert elapsed < 30 * 60


# -- criterion: determinism ------------------------------------------------------------------------


def test_acceptance_determinism(tmp_path):
    with _report("seeded training and detection are bit-stable"):
        blobs = []
        for run in range(2):
            run_dir = tmp_path / f"run{run}"
            net, manifest, result = _train_tiny(run_dir, iterations=12)
            weights = run_dir / "w.weights"
            log = run_dir / "loss.csv"
            net.save_weights(weights)
            write_loss_log(result.rows, log)
            blobs.append((weights.read_bytes(), log.read_bytes()))
        assert blobs[0][0] == blobs[1][0], "weight files differ between seeded runs"
        assert blobs[0][1] == blobs[1][1], "loss logs differ between seeded runs"

        net, manifest, _ = _train_tiny(tmp_path / "det", iterations=12)
        img = ppm_read(manifest.entries[0][0])
        x = image_to_tensor(img, net.cfg.input_size)
        a = detect_image(net, x, 0.005, 0.45)
        b = detect_image(net, x, 0.005, 0.45)
        assert list(a) == list(b)


# -- criterion: format round trips --------------------------------------------------------------------


def test_acceptance_format_round_trips(tmp_path):
    with _report("weight and PPM files round-trip byte-identically"):
        cfg = NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                            channel_scale=Fraction(1, 8))
        net = build_network(cfg)
        net.init_weights(77)
        w1, w2 = tmp_path / "a.weights", tmp_path / "b.weights"
        net.save_weights(w1)
        twin = build_network(cfg)
        twin.load_weights(w1)
        twin.save_weights(w2)
        assert w1.read_bytes() == w2.read_bytes()

        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (33, 17, 3)).astype(np.uint8)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        ppm_write(p1, img)
        ppm_write(p2, ppm_read(p1))
        assert p1.read_bytes() == p2.read_bytes()
