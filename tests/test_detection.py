import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcspp_yolo import detection
from dcspp_yolo.anchors import AnchorSet
from dcspp_yolo.detection import (
    BBox,
    Detection,
    DetectionError,
    Detections,
    decode,
    detect_image,
    format_detections,
    iou_matrix,
    nms,
    sigmoid,
)
from dcspp_yolo.network import NetworkConfig, build_network


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


# -- IoU ------------------------------------------------------------------------


def _nan_min(u: float, v: float) -> float:
    # Python's min and max keep or drop a NaN depending on operand order;
    # np.minimum and np.maximum, which iou_matrix uses, always return it
    return math.nan if math.isnan(u) or math.isnan(v) else min(u, v)


def _nan_max(u: float, v: float) -> float:
    return math.nan if math.isnan(u) or math.isnan(v) else max(u, v)


def iou(a: BBox, b: BBox) -> float:
    """Scalar oracle: intersection over union of one pair of boxes; 0 by
    convention when they do not overlap or the union is empty. A NaN edge
    makes the overlap NaN, which fails those tests, so the IoU is NaN
    unless the other axis shows no overlap."""
    ix = _nan_min(a.x_max, b.x_max) - _nan_max(a.x_min, b.x_min)
    iy = _nan_min(a.y_max, b.y_max) - _nan_max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def box_array(boxes) -> np.ndarray:
    """(N, 4) float64 corners (x_min, y_min, x_max, y_max) of N `BBox`es."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _iou_rows(a, b):
    return iou_matrix(box_array(a), box_array(b)).tolist()


def test_iou_identical_boxes():
    boxes = [BBox(1.0, 2.0, 4.0, 7.0), BBox(0.5, 0.5, 0.75, 3.0), BBox(10, 10, 11, 12)]
    m = iou_matrix(box_array(boxes), box_array(boxes))
    assert np.diag(m).tolist() == [1.0, 1.0, 1.0]


def test_iou_disjoint_boxes():
    far = [BBox(5, 5, 6, 6), BBox(1, 0, 2, 1), BBox(0, 1, 1, 2)]  # apart, touching x, touching y
    assert _iou_rows([BBox(0, 0, 1, 1)], far) == [[0.0, 0.0, 0.0]]


def test_iou_hand_geometry():
    # inter 2 of union 6; identical; inter 1 of union 4
    others = [BBox(1, 0, 3, 2), BBox(0, 0, 2, 2), BBox(0.5, 0.5, 1.5, 1.5)]
    assert _iou_rows([BBox(0, 0, 2, 2)], others)[0] == pytest.approx([1 / 3, 1.0, 0.25])


def test_iou_empty_sides_give_empty_matrix():
    assert iou_matrix(box_array([]), box_array([BBox(0, 0, 1, 1)])).shape == (0, 1)
    assert iou_matrix(box_array([BBox(0, 0, 1, 1)]), box_array([])).shape == (1, 0)


def test_iou_pixel_count_oracle():
    # brute force on a fine lattice approximates the analytic ratio
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(20):
        ax0, ay0 = rng.uniform(0, 5, 2)
        a = BBox(ax0, ay0, ax0 + rng.uniform(0.5, 4), ay0 + rng.uniform(0.5, 4))
        bx0, by0 = rng.uniform(0, 5, 2)
        b = BBox(bx0, by0, bx0 + rng.uniform(0.5, 4), by0 + rng.uniform(0.5, 4))
        pairs.append((a, b))
    m = iou_matrix(box_array(a for a, _ in pairs), box_array(b for _, b in pairs))
    n = 400
    gx, gy = np.meshgrid(np.linspace(0, 10, n), np.linspace(0, 10, n))
    for idx, (a, b) in enumerate(pairs):
        in_a = (gx >= a.x_min) & (gx <= a.x_max) & (gy >= a.y_min) & (gy <= a.y_max)
        in_b = (gx >= b.x_min) & (gx <= b.x_max) & (gy >= b.y_min) & (gy <= b.y_max)
        union = (in_a | in_b).sum()
        if union == 0:
            continue
        approx = (in_a & in_b).sum() / union
        assert m[idx, idx] == pytest.approx(approx, abs=0.02)


def test_iou_zero_area_box():
    flat = [BBox(1, 1, 1, 1), BBox(1, 0, 1, 5), BBox(0, 2, 5, 2)]
    assert _iou_rows(flat, [BBox(0, 0, 5, 5)]) == [[0.0], [0.0], [0.0]]
    # a zero-area box against itself has an empty union
    assert np.diag(iou_matrix(box_array(flat), box_array(flat))).tolist() == [0.0, 0.0, 0.0]


# coordinates drawn often from a few values, so boxes share edges and corners
_coord = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 3.0, 10.0]),
                   st.floats(-50, 150, allow_nan=False))


@st.composite
def boxes(draw):
    x0, x1 = sorted((draw(_coord), draw(_coord)))
    y0, y1 = sorted((draw(_coord), draw(_coord)))
    return BBox(x0, y0, x1, y1)


def _relatives(b):
    """The box itself, one nested in it, one touching its right edge and a
    zero-width one on its left edge."""
    mx, my = (b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2
    return [b, BBox(mx, my, b.x_max, b.y_max), BBox(b.x_max, b.y_min, b.x_max + 1.0, b.y_max),
            BBox(b.x_min, b.y_min, b.x_min, b.y_max)]


@given(st.lists(boxes(), min_size=1, max_size=8))
@settings(max_examples=100)
def test_iou_symmetry(bs):
    m = iou_matrix(box_array(bs), box_array(bs))
    assert np.array_equal(m, m.T)


@given(st.lists(boxes(), min_size=1, max_size=5), st.lists(boxes(), max_size=5))
@settings(max_examples=300)
def test_iou_matrix_equals_scalar_oracle(a, b):
    b = b + [r for box in a for r in _relatives(box)]
    m = iou_matrix(box_array(a), box_array(b))
    assert m.shape == (len(a), len(b))
    assert m.tolist() == [[iou(x, y) for y in b] for x in a]


def test_degenerate_box_rejected():
    with pytest.raises(DetectionError):
        BBox(3, 0, 1, 2)


# -- decode ----------------------------------------------------------------------


def _anchors1():
    return AnchorSet(dims=[(1.0, 1.0)])


def test_decode_all_large_negative_empty():
    grid = np.full((1, 6, 13, 13), -40.0)
    assert list(decode(grid, _anchors1(), 416, 416, 0.25)) == []


def test_decode_center_of_first_cell():
    grid = np.full((1, 6, 13, 13), -40.0)
    grid[0, 0:2, 0, 0] = 0.0   # tx = ty = 0 in cell (0, 0)
    grid[0, 4, 0, 0] = 40.0    # conf ~ 1
    grid[0, 5, 0, 0] = 40.0    # class prob ~ 1
    dets = list(decode(grid, _anchors1(), 416, 416, 0.25))
    assert len(dets) == 1
    box = dets[0].box
    assert (box.x_min + box.x_max) / 2 == pytest.approx(16.0)
    assert (box.y_min + box.y_max) / 2 == pytest.approx(16.0)


def test_decode_single_hot_cell_score_is_sigmoid_product():
    grid = np.full((1, 7, 4, 4), -40.0)
    tc, tcls = 0.7, -0.4
    grid[0, 4, 2, 1] = tc
    grid[0, 5, 2, 1] = tcls
    grid[0, 6, 2, 1] = tcls - 1.0
    anchors = _anchors1()
    dets = list(decode(grid, anchors, 128, 128, 0.01))
    assert len(dets) == 1
    assert dets[0].score == pytest.approx(_sig(tc) * _sig(tcls))
    assert dets[0].class_id == 0


def test_decode_channel_mismatch():
    with pytest.raises(DetectionError):
        decode(np.zeros((1, 7, 4, 4)), AnchorSet(dims=[(1, 1), (2, 2)]), 128, 128, 0.1)


def test_decode_rejects_a_batch_of_two():
    with pytest.raises(DetectionError, match="single image, got batch of 2"):
        decode(np.zeros((2, 6, 4, 4)), _anchors1(), 128, 128, 0.1)


@pytest.mark.parametrize("conf", [math.nan, -0.01, 1.5, math.inf])
def test_decode_rejects_a_conf_threshold_outside_zero_one(conf):
    with pytest.raises(DetectionError, match=f"^conf_thres must be in \\[0, 1\\], got {conf}$"):
        decode(np.zeros((1, 6, 4, 4)), _anchors1(), 128, 128, conf)


@pytest.mark.parametrize("thres", [math.nan, -0.01, 1.5])
def test_nms_rejects_a_threshold_outside_zero_one(thres):
    with pytest.raises(DetectionError, match=f"^nms_thres must be in \\[0, 1\\], got {thres}$"):
        nms(as_detections([]), thres)


def test_decode_conf_threshold_one_empty():
    grid = np.full((1, 6, 4, 4), 3.0)
    assert list(decode(grid, _anchors1(), 128, 128, 1.0)) == []


def test_decode_centers_stay_in_cell():
    # sigmoid offsets pin the pre-clip center to the cell; with tiny boxes
    # clipping never moves it
    rng = np.random.default_rng(5)
    s, img = 4, 128
    cell = img / s
    for i in range(s):
        for j in range(s):
            g = np.full((1, 6, s, s), -40.0)
            g[0, 0, i, j] = rng.standard_normal() * 3
            g[0, 1, i, j] = rng.standard_normal() * 3
            g[0, 2:4, i, j] = -4.0  # shrink w/h so the box stays inside
            g[0, 4, i, j] = 40.0
            g[0, 5, i, j] = 40.0
            d = list(decode(g, _anchors1(), img, img, 0.5))[0]
            cx = (d.box.x_min + d.box.x_max) / 2
            cy = (d.box.y_min + d.box.y_max) / 2
            assert j * cell <= cx <= (j + 1) * cell
            assert i * cell <= cy <= (i + 1) * cell


def per_cell_decode(grid, anchors, img_w, img_h, conf_thres):
    """Scalar oracle: the per-anchor, per-cell loop that `decode` replaced,
    with the same float64 arithmetic in the same order."""
    arr = np.asarray(grid)[0]
    channels, s, _ = arr.shape
    k = anchors.k
    c = channels // k - 5
    vol = arr.astype(np.float64).reshape(k, 5 + c, s, s)
    dims = anchors.as_array()
    cell_w = img_w / s
    cell_h = img_h / s
    dets = []
    for a in range(k):
        sx = sigmoid(vol[a, 0])
        sy = sigmoid(vol[a, 1])
        bw = dims[a, 0] * np.exp(vol[a, 2]) * cell_w
        bh = dims[a, 1] * np.exp(vol[a, 3]) * cell_h
        conf = sigmoid(vol[a, 4])
        cls = sigmoid(vol[a, 5:])
        best_cls = cls.argmax(axis=0)
        best_p = np.take_along_axis(cls, best_cls[None], axis=0)[0]
        score = conf * best_p
        for i in range(s):
            for j in range(s):
                if score[i, j] <= conf_thres:
                    continue
                bx = (j + sx[i, j]) * cell_w
                by = (i + sy[i, j]) * cell_h
                x0 = min(max(bx - bw[i, j] / 2, 0.0), img_w)
                x1 = min(max(bx + bw[i, j] / 2, 0.0), img_w)
                y0 = min(max(by - bh[i, j] / 2, 0.0), img_h)
                y1 = min(max(by + bh[i, j] / 2, 0.0), img_h)
                dets.append(Detection(box=BBox(x0, y0, x1, y1), class_id=int(best_cls[i, j]),
                                      score=float(score[i, j])))
    dets.sort(key=lambda d: -d.score)
    return dets


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    s=st.integers(1, 7),
    k=st.integers(1, 4),
    c=st.integers(1, 5),
    scale=st.sampled_from([0.0, 0.1, 1.0, 3.0, 10.0]),
    values=st.sampled_from(["random", "constant", "few"]),
    conf_thres=st.sampled_from([0.0, 0.005, 0.1, 0.25, 0.5]),
)
@settings(max_examples=200, deadline=None)
def test_decode_equals_per_cell_oracle(seed, s, k, c, scale, values, conf_thres):
    rng = np.random.default_rng(seed)
    anchors = AnchorSet(dims=[tuple(d) for d in rng.uniform(0.3, 4.0, (k, 2))])
    shape = (1, k * (5 + c), s, s)
    if values == "constant":  # every slot ties on score
        grid = np.full(shape, rng.standard_normal() * scale)
    elif values == "few":  # many slots, but not all, tie on score
        grid = rng.integers(-1, 2, shape) * scale
    else:
        grid = rng.standard_normal(shape) * scale
    grid = grid.astype(np.float32)
    img = 32.0 * s
    got = decode(grid, anchors, img, img, conf_thres)
    want = per_cell_decode(grid, anchors, img, img, conf_thres)
    assert list(got) == want


def test_decode_scales_with_image_dims():
    rng = np.random.default_rng(6)
    grid = rng.standard_normal((1, 6, 4, 4))
    small = decode(grid, _anchors1(), 128, 128, 0.01)
    big = decode(grid, _anchors1(), 256, 256, 0.01)
    assert len(small) == len(big)
    for a, b in zip(small, big):
        assert a.class_id == b.class_id
        assert b.box.x_min == pytest.approx(2 * a.box.x_min, abs=1e-6)
        assert b.box.y_max == pytest.approx(2 * a.box.y_max, abs=1e-6)


# -- NMS --------------------------------------------------------------------------


def brute_force_nms(dets, thres):
    """Reference with explicit kept-set semantics: repeatedly take the
    highest-scored remaining detection, discard same-class overlaps."""
    remaining = list(dets)
    remaining.sort(key=lambda d: (math.isnan(d.score), -d.score))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            d for d in remaining
            if d.class_id != best.class_id or iou(d.box, best.box) <= thres
        ]
    return kept


def as_detections(dets) -> Detections:
    """The `Detections` record of a list of `Detection`s, rows in list order."""
    return Detections(boxes=box_array(d.box for d in dets),
                      scores=np.array([d.score for d in dets], dtype=np.float64),
                      class_ids=np.array([d.class_id for d in dets], dtype=np.int64))


def as_rows(dets) -> np.ndarray:
    """(N, 6) class id, score and corners per detection, to compare with NaN == NaN."""
    return np.array([(d.class_id, d.score, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
                     for d in dets], dtype=np.float64).reshape(-1, 6)


def _random_dets(rng, n, classes=2):
    out = []
    for _ in range(n):
        x0, y0 = rng.uniform(0, 60, 2)
        out.append(
            Detection(
                box=BBox(x0, y0, x0 + rng.uniform(5, 40), y0 + rng.uniform(5, 40)),
                class_id=int(rng.integers(classes)),
                score=float(rng.uniform(0.05, 1.0)),
            )
        )
    return out


def test_nms_single_detection_unchanged():
    d = Detection(box=BBox(0, 0, 10, 10), class_id=0, score=0.7)
    assert list(nms(as_detections([d]), 0.45)) == [d]


def test_nms_identical_boxes_keep_best():
    hi = Detection(box=BBox(0, 0, 10, 10), class_id=0, score=0.9)
    lo = Detection(box=BBox(0, 0, 10, 10), class_id=0, score=0.8)
    assert list(nms(as_detections([lo, hi]), 0.45)) == [hi]


def test_nms_different_classes_do_not_suppress():
    a = Detection(box=BBox(0, 0, 10, 10), class_id=0, score=0.9)
    b = Detection(box=BBox(0, 0, 10, 10), class_id=1, score=0.8)
    assert list(nms(as_detections([a, b]), 0.45)) == [a, b]


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dets = _random_dets(rng, int(rng.integers(0, 10)))
        assert list(nms(as_detections(dets), 0.45)) == brute_force_nms(dets, 0.45)


def test_nms_output_subset_and_no_overlap():
    rng = np.random.default_rng(8)
    for _ in range(50):
        dets = _random_dets(rng, 8)
        out = list(nms(as_detections(dets), 0.45))
        assert all(d in dets for d in out)
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.45


@st.composite
def det_lists(draw, max_size=12):
    """Detections with scores from three values and NaN (so scores tie),
    three classes, identical boxes (an earlier box drawn again),
    zero-width boxes, and at most one box whose x edges, y edges or both
    are NaN, as `decode` gives a slot with a NaN width or height."""
    dets = []
    for _ in range(draw(st.integers(0, max_size))):
        if dets and draw(st.booleans()):
            box = draw(st.sampled_from(dets)).box
        else:
            x0, y0 = draw(st.floats(0, 50)), draw(st.floats(0, 50))
            w = draw(st.sampled_from([0.0, 5.0, 20.0]) | st.floats(0, 30))
            box = BBox(x0, y0, x0 + w, y0 + draw(st.floats(1, 30)))
        dets.append(Detection(box=box, class_id=draw(st.integers(0, 2)),
                              score=draw(st.sampled_from([0.3, 0.6, 0.9, math.nan]))))
    if dets and draw(st.booleans()):
        i = draw(st.integers(0, len(dets) - 1))
        b = dets[i].box
        nan_x, nan_y = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
        x0, x1 = (math.nan, math.nan) if nan_x else (b.x_min, b.x_max)
        y0, y1 = (math.nan, math.nan) if nan_y else (b.y_min, b.y_max)
        dets[i] = replace(dets[i], box=BBox(x0, y0, x1, y1))
    return dets


def _oracle_rows(dets, thres) -> np.ndarray:
    # the oracle keeps the input order among tied scores across classes,
    # while nms lists tied classes in ascending class id; NaN scores keep
    # the oracle's input order, since neither of two NaN keys sorts first
    return as_rows(sorted(brute_force_nms(dets, thres),
                          key=lambda d: (math.isnan(d.score), -d.score, d.class_id)))


@given(det_lists(max_size=40), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([1, 2, 3, 4, 5, detection._NMS_BLOCK]))
@settings(max_examples=300, deadline=None)
def test_nms_equals_brute_force_property(dets, thres, block):
    # blocks of 1-5 rows split a class group into many blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "_NMS_BLOCK", block)
        got = as_rows(nms(as_detections(dets), thres))
    assert np.array_equal(got, _oracle_rows(dets, thres), equal_nan=True)


# VOC anchors on a 13x13 grid: at conf 0.005 all 845 slots of a 416 image
# are candidates, a few hundred per class
VOC_ANCHORS = AnchorSet(dims=[(1.3221, 1.73145), (3.19275, 4.00944), (5.05587, 8.09892),
                              (9.47112, 4.84053), (11.2364, 10.0071)])


def _dense_candidates(seed, spread) -> Detections:
    raw = np.random.default_rng(seed).standard_normal((1, 5 * (5 + 3), 13, 13)) * spread
    dets = decode(raw, VOC_ANCHORS, 416.0, 416.0, 0.005)
    assert len(dets) == 845
    assert np.bincount(dets.class_ids).min() > 2 * detection._NMS_BLOCK
    return dets


@pytest.mark.parametrize("seed, spread", [(0, 1.0), (1, 0.1)])
def test_nms_of_dense_candidates_equals_brute_force(seed, spread):
    dets = _dense_candidates(seed, spread)
    assert np.array_equal(as_rows(nms(dets, 0.45)), _oracle_rows(list(dets), 0.45))


def test_nms_takes_iou_of_a_fraction_of_all_pairs(monkeypatch):
    # One row loop over each class group's full n x n IoU matrix passes all
    # of sum(n_g^2). The blocked pass compares each block with the boxes kept
    # so far, so its work grows with the share kept. Logits of a small spread
    # keep about 40%, as an untrained detector's near-constant output does
    # (unit-spread logits keep 54% and pass 31-34% of the pairs).
    dets = _dense_candidates(0, 0.1)
    elements = []

    def counting_iou(a, b):
        elements.append(len(a) * len(b))
        return iou_matrix(a, b)

    monkeypatch.setattr(detection, "iou_matrix", counting_iou)
    nms(dets, 0.45)
    pairs = (np.bincount(dets.class_ids) ** 2).sum()
    assert sum(elements) < 0.35 * pairs, sum(elements) / pairs


@pytest.mark.parametrize("scores", [[math.nan, 0.9, 0.5], [0.9, 0.5, math.nan], [0.9, math.nan, 0.5]])
def test_nms_puts_nan_scores_last(scores):
    dets = [Detection(box=BBox(20.0 * i, 0, 20.0 * i + 10, 10), class_id=i % 2, score=v)
            for i, v in enumerate(scores)]
    kept = list(nms(as_detections(dets), 0.45))
    assert [d.score for d in kept[:2]] == [0.9, 0.5]
    assert math.isnan(kept[2].score)


# -- detect_image -------------------------------------------------------------------


def _tiny_detector():
    anchors = AnchorSet(dims=[(0.7, 0.7), (1.3, 1.3)])
    cfg = NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                        anchors=anchors, channel_scale=Fraction(1, 8))
    net = build_network(cfg)
    net.init_weights(3)
    return net


def test_detect_image_deterministic():
    net = _tiny_detector()
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (1, 3, 96, 96)).astype(np.float32)
    a = detect_image(net, x, 0.01, 0.45)
    b = detect_image(net, x, 0.01, 0.45)
    assert list(a) == list(b)


def test_detect_image_conf_one_empty():
    net = _tiny_detector()
    x = np.full((1, 3, 96, 96), 0.5, dtype=np.float32)
    assert list(detect_image(net, x, 1.0, 0.45)) == []


def test_format_detections_layout():
    d = Detection(box=BBox(1.25, 2.0, 30.5, 44.125), class_id=2, score=0.875)
    line = format_detections(as_detections([d])).strip()
    assert line == "2 0.875000 1.250000 2.000000 30.500000 44.125000"
