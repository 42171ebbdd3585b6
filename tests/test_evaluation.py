import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detection import as_detections, box_array, boxes, det_lists, iou

from dcspp_yolo import evaluation
from dcspp_yolo.anchors import AnchorSet
from dcspp_yolo.detection import BBox, Detection, DetectionError
from dcspp_yolo.evaluation import (
    EvalError,
    average_precision,
    evaluate,
    match_detections,
    pr_points,
)
from dcspp_yolo.network import NetworkConfig, build_network
from dcspp_yolo.training import DatasetManifest, synth_dataset


def det(x0, y0, x1, y1, cid=0, score=0.9):
    return Detection(box=BBox(x0, y0, x1, y1), class_id=cid, score=score)


def truth_arrays(truths):
    """Class ids and (T, 4) corner boxes of a list of (class id, BBox) truths."""
    return np.array([cid for cid, _ in truths], dtype=np.int64), box_array(b for _, b in truths)


# -- matching -----------------------------------------------------------------


def test_single_detection_on_truth_is_tp():
    truths = [(0, BBox(10, 10, 30, 30))]
    flags = match_detections(as_detections([det(10, 10, 30, 30)]), *truth_arrays(truths))
    assert flags.tolist() == [True]


def test_second_detection_on_same_truth_is_fp():
    truths = [(0, BBox(10, 10, 30, 30))]
    dets = [det(10, 10, 30, 30, score=0.9), det(11, 11, 31, 31, score=0.8)]
    assert match_detections(as_detections(dets), *truth_arrays(truths)).tolist() == [True, False]


def test_class_must_match():
    truths = [(1, BBox(10, 10, 30, 30))]
    flags = match_detections(as_detections([det(10, 10, 30, 30, cid=0)]), *truth_arrays(truths))
    assert flags.tolist() == [False]


def brute_force_match(dets, truths, thres):
    used = set()
    flags = []
    for d in dets:
        candidates = [
            (iou(d.box, b), i)
            for i, (cid, b) in enumerate(truths)
            if i not in used and cid == d.class_id and iou(d.box, b) >= thres
        ]
        if candidates:
            best = max(candidates, key=lambda t: t[0])
            used.add(best[1])
            flags.append(True)
        else:
            flags.append(False)
    return flags


def test_matching_agrees_with_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(300):
        truths = []
        for _ in range(int(rng.integers(0, 4))):
            x0, y0 = rng.uniform(0, 60, 2)
            truths.append((int(rng.integers(2)), BBox(x0, y0, x0 + rng.uniform(5, 30), y0 + rng.uniform(5, 30))))
        dets = []
        for _ in range(int(rng.integers(0, 6))):
            x0, y0 = rng.uniform(0, 60, 2)
            dets.append(det(x0, y0, x0 + rng.uniform(5, 30), y0 + rng.uniform(5, 30),
                            cid=int(rng.integers(2)), score=float(rng.uniform())))
        dets.sort(key=lambda d: -d.score)
        flags = match_detections(as_detections(dets), *truth_arrays(truths), 0.5)
        assert flags.tolist() == brute_force_match(dets, truths, 0.5)


@st.composite
def matching_cases(draw):
    """Score-sorted detections (NaN scores last) and truths of three
    classes; some truths repeat a detection's box, and some boxes have zero
    width or NaN edges."""
    dets = sorted(draw(det_lists()), key=lambda d: (math.isnan(d.score), -d.score))
    truths = []
    for _ in range(draw(st.integers(0, 6))):
        box = draw(st.sampled_from(dets)).box if dets and draw(st.booleans()) else draw(boxes())
        truths.append((draw(st.integers(0, 2)), box))
    return dets, truths


@given(matching_cases(), st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_matching_equals_brute_force_property(case, thres):
    dets, truths = case
    flags = match_detections(as_detections(dets), *truth_arrays(truths), thres)
    assert flags.dtype == bool and flags.shape == (len(dets),)
    # a detection that overlaps no truth never matches, so at iou_thres 0
    # the oracle runs at the smallest positive threshold instead
    assert flags.tolist() == brute_force_match(dets, truths, max(thres, math.ulp(0.0)))


# -- average precision ------------------------------------------------------------


def test_ap_all_tp_full_recall():
    assert average_precision([True, True, True], 3) == pytest.approx(1.0)


def test_ap_all_fp():
    assert average_precision([False, False], 4) == 0.0


def test_ap_tp_fp_tp_hand_computed():
    assert average_precision([True, False, True], 2) == pytest.approx(5 / 6)


def test_ap_no_detections():
    assert average_precision([], 3) == 0.0


def test_ap_requires_truths():
    with pytest.raises(EvalError):
        average_precision([True], 0)


def test_ap_depends_only_on_score_order():
    # monotone rescaling changes scores but not ordering, so pooled flags
    # and therefore AP are unchanged
    rng = np.random.default_rng(29)
    scores = sorted(rng.uniform(0.1, 0.9, 6), reverse=True)
    flags = [True, False, True, False, False, True]
    pooled_a = sorted(zip([s for s in scores], flags), key=lambda t: -t[0])
    pooled_b = sorted(zip([s ** 3 for s in scores], flags), key=lambda t: -t[0])
    ap_a = average_precision([f for _, f in pooled_a], 4)
    ap_b = average_precision([f for _, f in pooled_b], 4)
    assert ap_a == ap_b


def loop_pr_points(flags, num_truths):
    """Oracle: recall and precision after each flag, counted in a loop."""
    tp = fp = 0
    pts = []
    for f in flags:
        tp += 1 if f else 0
        fp += 0 if f else 1
        pts.append((tp / num_truths, tp / (tp + fp)))
    return pts


def loop_average_precision(flags, num_truths):
    """Oracle: all-point AP with the envelope and the sum taken in loops."""
    if not flags:
        return 0.0
    pts = loop_pr_points(flags, num_truths)
    mrec = [0.0] + [r for r, _ in pts] + [pts[-1][0]]
    mpre = [0.0] + [p for _, p in pts] + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(1, len(mrec)):
        ap += (mrec[i] - mrec[i - 1]) * mpre[i]
    return ap


def test_pr_curve_equals_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(500):
        flags = [bool(f) for f in rng.random(int(rng.integers(0, 40))) < rng.random()]
        truths = int(rng.integers(max(1, sum(flags)), sum(flags) + 5))
        assert pr_points(flags, truths) == loop_pr_points(flags, truths)
        assert pr_points(np.array(flags, dtype=bool), truths) == loop_pr_points(flags, truths)
        assert average_precision(flags, truths) == loop_average_precision(flags, truths)


def test_extra_low_scored_fp_never_increases_ap():
    rng = np.random.default_rng(23)
    for _ in range(50):
        flags = [bool(rng.integers(2)) for _ in range(rng.integers(1, 8))]
        truths = max(2, sum(flags))
        base = average_precision(flags, truths)
        assert average_precision(flags + [False], truths) <= base + 1e-12


# -- dataset evaluation --------------------------------------------------------------


def _random_net():
    anchors = AnchorSet(dims=[(0.8, 0.8), (1.4, 1.4)])
    cfg = NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                        anchors=anchors, channel_scale=Fraction(1, 8))
    net = build_network(cfg)
    net.init_weights(123)
    return net


def test_evaluate_empty_dataset_is_error():
    net = _random_net()
    with pytest.raises(EvalError):
        evaluate(net, DatasetManifest(entries=[], class_names=["a"]))


@pytest.mark.parametrize("kwargs, error, match", [
    (dict(iou_thres=0.0), EvalError, r"iou_thres must be in \(0, 1\], got 0.0"),
    (dict(iou_thres=1.5), EvalError, r"iou_thres must be in \(0, 1\], got 1.5"),
    (dict(iou_thres=math.nan), EvalError, r"iou_thres must be in \(0, 1\], got nan"),
    (dict(conf_thres=math.nan), DetectionError, r"conf_thres must be in \[0, 1\], got nan"),
    (dict(nms_thres=-0.5), DetectionError, r"nms_thres must be in \[0, 1\], got -0.5"),
], ids=["iou-0", "iou-1.5", "iou-nan", "conf-nan", "nms-negative"])
def test_evaluate_rejects_a_threshold_before_reading_an_image(tmp_path, kwargs, error, match):
    manifest = DatasetManifest(entries=[(tmp_path / "none.ppm", tmp_path / "none.txt")],
                               class_names=["a"])
    with pytest.raises(error, match=f"^{match}$"):
        evaluate(_random_net(), manifest, **kwargs)


def test_evaluate_accepts_an_iou_threshold_of_one(tmp_path):
    manifest = synth_dataset(1, image_size=96, seed=40, out_dir=tmp_path)
    evaluate(_random_net(), manifest, conf_thres=0.0, nms_thres=1.0, iou_thres=1.0)


def test_untrained_net_scores_near_zero(tmp_path):
    manifest = synth_dataset(6, image_size=96, seed=40, out_dir=tmp_path)
    result = evaluate(_random_net(), manifest)
    assert result.map < 0.05


def test_duplicated_dataset_same_map(tmp_path):
    manifest = synth_dataset(4, image_size=96, seed=41, out_dir=tmp_path)
    net = _random_net()
    single = evaluate(net, manifest)
    doubled = DatasetManifest(entries=manifest.entries * 2, class_names=manifest.class_names)
    assert evaluate(net, doubled).map == pytest.approx(single.map, abs=1e-9)


def test_nan_scores_pool_after_every_finite_score(tmp_path, monkeypatch):
    manifest = synth_dataset(4, image_size=96, seed=44, out_dir=tmp_path)
    net = _random_net()
    head = net.nodes[-1].conv
    head.bias.reshape(net.cfg.num_anchors, -1)[1, 4] = np.nan  # anchor 1's objectness
    seen = []  # (detections, flags) per image, in evaluation order

    def spy(dets, *args):
        flags = match_detections(dets, *args)
        seen.append((list(dets), flags.tolist()))
        return flags

    monkeypatch.setattr(evaluation, "match_detections", spy)
    # the smallest positive threshold: any overlap matches
    result = evaluate(net, manifest, conf_thres=0.005, iou_thres=math.ulp(0.0))
    assert sum(math.isnan(d.score) for dets, _ in seen for d in dets) > 0
    for cid, cr in result.per_class.items():
        rows = [(d.score, f) for dets, flags in seen
                for d, f in zip(dets, flags) if d.class_id == cid]
        finite = sorted((r for r in rows if not math.isnan(r[0])), key=lambda r: -r[0])
        nan = [r for r in rows if math.isnan(r[0])]
        assert finite and nan
        want = [f for _, f in finite] + [f for _, f in nan]
        assert want != [f for _, f in nan] + [f for _, f in finite]  # the order shows in pr_points
        assert cr.pr_points == loop_pr_points(want, cr.num_truths)


def test_out_of_range_class_id_is_eval_error(tmp_path):
    manifest = synth_dataset(2, image_size=96, seed=42, out_dir=tmp_path)
    label = manifest.entries[1][1]
    label.write_text(label.read_text() + "7 0.5 0.5 0.2 0.2\n")
    with pytest.raises(EvalError, match=rf"^{re.escape(str(label))}: class id 7 .* 3 classes$"):
        evaluate(_random_net(), manifest)
