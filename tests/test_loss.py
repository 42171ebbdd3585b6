import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detection import iou

from dcspp_yolo.anchors import AnchorSet
from dcspp_yolo.detection import BBox, DetectionError, decode_predictions
from dcspp_yolo.gradcheck import check_loss
from dcspp_yolo.loss import (
    CLASS_WEIGHT,
    COORD_WEIGHT,
    NOOBJ_IOU_THRES,
    NOOBJ_WEIGHT,
    OBJ_WEIGHT,
    PRIOR_WEIGHT,
    Assignment,
    Labels,
    LossError,
    assign_targets,
    compute_loss,
)

ANCHORS2 = AnchorSet(dims=[(0.8, 0.9), (1.6, 1.2)])


def make_labels(*rows) -> Labels:
    """The `Labels` of (class_id, cx, cy, w, h) rows."""
    return Labels(np.array([r[0] for r in rows], dtype=np.int64),
                  np.array([r[1:] for r in rows], dtype=np.float64).reshape(-1, 4))


NO_LABELS = make_labels()


def _sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _raw(s, k, c, rng=None, fill=0.0):
    """A batch of one raw output volume, (1, K*(5+C), S, S)."""
    if rng is None:
        return np.full((1, k * (5 + c), s, s), fill)
    return rng.standard_normal((1, k * (5 + c), s, s))


# -- decode ------------------------------------------------------------------


def test_decode_predictions_values():
    raw = np.zeros((2, 1 * 7, 2, 2))
    raw[1, 0, 0, 1] = 0.4   # tx at cell (0,1) of image 1
    raw[1, 2, 1, 0] = 0.25  # tw at cell (1,0) of image 1
    anchors = AnchorSet(dims=[(0.7, 0.9)])
    g = decode_predictions(raw, anchors)
    assert g.b == 2 and g.s == 2 and g.k == 1 and g.c == 2
    assert g.cls.shape == (2, 1, 2, 2, 2)
    assert g.x_off[1, 0, 0, 1] == pytest.approx(_sig(0.4))
    assert g.x_off[0, 0, 0, 1] == 0.5
    assert g.w[1, 0, 1, 0] == pytest.approx(0.7 * math.exp(0.25))
    assert g.conf[1, 0, 0, 0] == pytest.approx(0.5)


def test_decode_predictions_keeps_raw_slot_order():
    rng = np.random.default_rng(7)
    b, k, c, s = 2, 3, 2, 4
    raw = rng.standard_normal((b, k * (5 + c), s, s))
    g = decode_predictions(raw, AnchorSet(dims=[(1, 1), (2, 1), (1, 2)]))
    assert g.x_off.shape == (b, k, s, s) and g.cls.shape == (b, k, s, s, c)
    for bi, a, i, j in np.ndindex(b, k, s, s):
        base = a * (5 + c)
        assert g.x_off[bi, a, i, j] == pytest.approx(_sig(raw[bi, base, i, j]), rel=1e-14)
        assert g.cls[bi, a, i, j, 1] == pytest.approx(_sig(raw[bi, base + 6, i, j]), rel=1e-14)


def test_decode_predictions_channel_mismatch():
    with pytest.raises(DetectionError):
        decode_predictions(np.zeros((1, 9, 2, 2)), AnchorSet(dims=[(1, 1), (2, 2)]))


def test_decode_predictions_needs_a_batch_axis():
    with pytest.raises(DetectionError, match="B, K"):
        decode_predictions(np.zeros((7, 2, 2)), AnchorSet(dims=[(1, 1)]))


# -- assignment ----------------------------------------------------------------


def test_no_truths_all_noobj():
    preds = decode_predictions(_raw(3, 2, 2), ANCHORS2)
    asg = assign_targets([NO_LABELS], preds, n_prior=0)
    assert not asg.obj.any()
    assert asg.noobj.all()


def test_best_shape_anchor_wins():
    anchors = AnchorSet(dims=[(1.0, 1.0), (3.0, 3.0)])
    s = 13
    preds = decode_predictions(_raw(s, 2, 2), anchors)
    truth = make_labels((0, 6.5 / s, 6.5 / s, 3.0 / s, 3.0 / s))
    asg = assign_targets([truth], preds, n_prior=0)
    assert asg.obj[0, 1, 6, 6]
    assert not asg.obj[0, 0, 6, 6]
    assert asg.obj.sum() == 1


def test_two_truths_two_obj_slots_match_bruteforce():
    rng = np.random.default_rng(0)
    preds = decode_predictions(_raw(4, 2, 3, rng), ANCHORS2)
    truths = make_labels((0, 0.2, 0.3, 0.2, 0.25), (2, 0.8, 0.75, 0.4, 0.3))
    asg = assign_targets([truths], preds, n_prior=0)
    assert asg.obj.sum() == 2
    # brute-force expectation over all S*S*K slots
    s = 4
    expected = set()
    for cx, cy, tw, th in truths.boxes.tolist():
        j, i = min(int(cx * s), s - 1), min(int(cy * s), s - 1)
        best_k, best_v = -1, -1.0
        for k, (aw, ah) in enumerate(ANCHORS2.dims):
            inter = min(tw * s, aw) * min(th * s, ah)
            union = tw * s * th * s + aw * ah - inter
            v = inter / union
            if v > best_v:
                best_k, best_v = k, v
        expected.add((best_k, i, j))
    assert {tuple(idx) for idx in np.argwhere(asg.obj[0])} == expected


def test_obj_and_noobj_mutually_exclusive():
    rng = np.random.default_rng(1)
    preds = decode_predictions(_raw(4, 2, 3, rng), ANCHORS2)
    truths = make_labels((1, 0.4, 0.6, 0.3, 0.3))
    asg = assign_targets([truths], preds, n_prior=0)
    assert not (asg.obj & asg.noobj).any()


def test_truth_out_of_range_rejected_with_index():
    preds = decode_predictions(_raw(2, 2, 2), ANCHORS2)
    bad = make_labels((0, 0.5, 0.5, 0.2, 0.2), (0, 1.4, 0.5, 0.2, 0.2))
    with pytest.raises(LossError, match="truth 1"):
        assign_targets([bad], preds, n_prior=0)


def test_class_id_out_of_range_rejected_with_image_and_truth():
    preds = decode_predictions(np.zeros((2, 14, 2, 2)), ANCHORS2)
    good = make_labels((1, 0.5, 0.5, 0.2, 0.2))
    bad = make_labels((0, 0.5, 0.5, 0.2, 0.2), (2, 0.3, 0.3, 0.2, 0.2))
    message = r"^image 1, truth 1: class id 2 out of range for 2 classes$"
    with pytest.raises(LossError, match=message):
        assign_targets([good, bad], preds, n_prior=0)


def test_truth_list_per_image_required():
    preds = decode_predictions(np.zeros((2, 14, 2, 2)), ANCHORS2)
    with pytest.raises(LossError, match="1 truth lists for a batch of 2"):
        assign_targets([NO_LABELS], preds, n_prior=0)


def test_class_ids_not_one_dimensional_rejected_with_image():
    preds = decode_predictions(np.zeros((2, 14, 2, 2)), ANCHORS2)
    good = make_labels((0, 0.5, 0.5, 0.2, 0.2))
    bad = Labels(good.class_ids[:, None], good.boxes)
    message = r"^image 1: class_ids must be \(T,\), got shape \(1, 1\)$"
    with pytest.raises(LossError, match=message):
        assign_targets([good, bad], preds, n_prior=0)


def test_boxes_not_t_by_4_rejected_with_image():
    # (4, 5) holds 20 numbers, as (5, 4) does; it must not be read as five boxes
    preds = decode_predictions(_raw(2, 2, 2), ANCHORS2)
    bad = Labels(np.zeros(5, dtype=np.int64), np.full((4, 5), 0.25))
    with pytest.raises(LossError, match=r"^image 0: boxes must be \(5, 4\), got shape \(4, 5\)$"):
        assign_targets([bad], preds, n_prior=0)


def test_slot_collision_later_truth_owns_slot():
    # both centres fall in cell (1, 1), and both best match anchor 0 (dims 1x1)
    anchors = AnchorSet(dims=[(1.0, 1.0), (2.0, 2.0)])
    preds = decode_predictions(_raw(3, 2, 2), anchors)
    truths = make_labels((0, 0.45, 0.45, 0.2, 0.2), (1, 0.55, 0.55, 0.2, 0.2))
    asg = assign_targets([truths], preds, n_prior=0)
    assert asg.obj.sum() == 1
    assert asg.obj[0, 0, 1, 1]
    assert asg.truth_idx[0, 0, 1, 1] == 1
    assert asg.collisions == 1
    # the same two truths in two images of a batch do not collide
    batch = decode_predictions(np.zeros((2, 14, 3, 3)), anchors)
    split = [make_labels((0, 0.45, 0.45, 0.2, 0.2)), make_labels((1, 0.55, 0.55, 0.2, 0.2))]
    assert assign_targets(split, batch, n_prior=0).collisions == 0


def test_prior_indicator_follows_images_seen():
    preds = decode_predictions(_raw(2, 2, 2), ANCHORS2)
    assert assign_targets([NO_LABELS], preds, 100, images_seen=99).prior_active.tolist() == [True]
    assert assign_targets([NO_LABELS], preds, 100, images_seen=100).prior_active.tolist() == [False]
    batch = decode_predictions(np.zeros((3, 14, 2, 2)), ANCHORS2)
    asg = assign_targets([NO_LABELS] * 3, batch, 100, images_seen=98)
    assert asg.prior_active.tolist() == [True, True, False]


# -- loss values -----------------------------------------------------------------


def _perfect_instance():
    """One truth exactly matched; extreme logits give exact 0/1 sigmoids."""
    anchors = AnchorSet(dims=[(0.7, 0.9)])
    s, k, c = 2, 1, 2
    raw = np.zeros((1, k * (5 + c), s, s))
    raw[0, 4, :, :] = -800.0       # conf -> exactly 0 everywhere
    i, j = 0, 1
    raw[0, 4, i, j] = 800.0        # conf -> exactly 1 on the object slot
    raw[0, 5, i, j] = -800.0
    raw[0, 6, i, j] = 800.0        # true class (1) prob -> exactly 1
    truth = make_labels((1, (j + 0.5) / s, (i + 0.5) / s, 0.7 / s, 0.9 / s))
    return raw, truth, anchors


def test_perfect_prediction_loss_exactly_zero():
    raw, truths, anchors = _perfect_instance()
    preds = decode_predictions(raw, anchors)
    asg = assign_targets([truths], preds, n_prior=0)
    parts, grad = compute_loss(preds, asg)
    assert parts.total == 0.0
    assert parts.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_empty_image_all_conf_zero_loss_zero():
    anchors = AnchorSet(dims=[(1.0, 1.0)])
    raw = np.zeros((1, 6, 2, 2))
    raw[0, 4] = -800.0
    preds = decode_predictions(raw, anchors)
    asg = assign_targets([NO_LABELS], preds, n_prior=0)
    parts, _ = compute_loss(preds, asg)
    assert parts.total == 0.0


def test_loss_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        preds = decode_predictions(_raw(3, 2, 2, rng), ANCHORS2)
        truths = make_labels((0, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                              rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)))
        asg = assign_targets([truths], preds, 10, images_seen=0)
        parts, _ = compute_loss(preds, asg)
        assert parts.total >= 0.0
        for v in parts.as_tuple():
            assert v >= 0.0


def test_zero_class_probability_is_clamped():
    anchors = AnchorSet(dims=[(1.0, 1.0)])
    raw = np.zeros((1, 6, 2, 2))
    raw[0, 5] = -800.0  # true-class probability exactly 0
    truths = make_labels((0, 0.25, 0.25, 0.4, 0.4))
    preds = decode_predictions(raw, anchors)
    asg = assign_targets([truths], preds, n_prior=0)
    parts, grad = compute_loss(preds, asg)
    assert math.isfinite(parts.total)
    assert np.isfinite(grad).all()


def test_owned_slot_gradient_stays_in_its_anchor_channels_at_its_cell():
    anchors = AnchorSet(dims=[(1.0, 1.0), (3.0, 3.0)])
    s, k, c = 5, 2, 2
    raw = np.random.default_rng(8).standard_normal((2, k * (5 + c), s, s))
    # every other slot's confidence is exactly 0, so its no-object gradient is exactly 0
    conf = raw[:, 4::5 + c]
    owned = conf[1, 1, 3, 1]
    conf[...] = -800.0
    conf[1, 1, 3, 1] = owned
    preds = decode_predictions(raw, anchors)
    # image 1's one truth is centred in row 3, column 1 and best fits anchor 1
    truths = [NO_LABELS, make_labels((1, 1.5 / s, 3.5 / s, 3.0 / s, 3.0 / s))]
    asg = assign_targets(truths, preds, n_prior=0)  # past warm-up: no prior pull
    assert asg.truth_idx[1, 1, 3, 1] == 0
    _, grad = compute_loss(preds, asg)
    assert np.argwhere(grad).tolist() == [[1, ch, 3, 1] for ch in range(5 + c, 2 * (5 + c))]


# -- prior term --------------------------------------------------------------------


def test_prior_term_zero_at_priors():
    preds = decode_predictions(_raw(3, 2, 2, fill=0.0), ANCHORS2)
    asg = assign_targets([NO_LABELS], preds, n_prior=1)
    assert asg.prior_active.all()
    assert compute_loss(preds, asg)[0].prior == 0.0


def test_prior_contributes_nothing_after_warmup():
    rng = np.random.default_rng(4)
    raw = _raw(2, 2, 2, rng)
    preds = decode_predictions(raw, ANCHORS2)
    asg_on = assign_targets([NO_LABELS], preds, 5, images_seen=0)
    asg_off = assign_targets([NO_LABELS], preds, 5, images_seen=5)
    assert compute_loss(preds, asg_on)[0].prior > 0.0
    assert compute_loss(preds, asg_off)[0].prior == 0.0


def test_prior_single_cell_scalar_recomputation():
    # one slot with x offset 0.6 against the 0.5 prior, everything else at prior
    anchors = AnchorSet(dims=[(1.0, 1.0)])
    raw = np.zeros((1, 6, 1, 1))
    off = 0.6
    raw[0, 0, 0, 0] = math.log(off / (1 - off))  # sigmoid -> 0.6
    preds = decode_predictions(raw, anchors)
    asg = assign_targets([NO_LABELS], preds, n_prior=1)
    got = compute_loss(preds, asg)[0].prior
    expected = PRIOR_WEIGHT * (0.5 - off) ** 2
    assert got == pytest.approx(expected, abs=1e-12)


# -- oracle equivalence --------------------------------------------------------------


def straight_line_loss(raw, truths, asg: Assignment, anchors: AnchorSet):
    """Independent scalar recomputation: plain loops, plain floats.

    `raw` is one image's (K*(5+C), S, S) volume and `truths` its
    `Labels`, read a row at a time; `asg` is the assignment of a batch
    whose image 0 it is."""
    k = anchors.k
    c = raw.shape[0] // k - 5
    s = raw.shape[1]
    total = 0.0
    for i in range(s):
        for j in range(s):
            for a in range(k):
                base = a * (5 + c)
                sx = _sig(raw[base + 0, i, j])
                sy = _sig(raw[base + 1, i, j])
                bw = anchors.dims[a][0] * math.exp(raw[base + 2, i, j])
                bh = anchors.dims[a][1] * math.exp(raw[base + 3, i, j])
                bc = _sig(raw[base + 4, i, j])
                if asg.noobj[0, a, i, j]:
                    total += NOOBJ_WEIGHT * (0.0 - bc) ** 2
                if asg.obj[0, a, i, j]:
                    g_c = asg.conf_target[0, a, i, j]
                    total += OBJ_WEIGHT * (g_c - bc) ** 2
                    t_i = asg.truth_idx[0, a, i, j]
                    cx, cy, tw, th = truths.boxes[t_i].tolist()
                    gx, gy = cx * s - j, cy * s - i
                    gw, gh = tw * s, th * s
                    total += COORD_WEIGHT * (
                        (gx - sx) ** 2
                        + (gy - sy) ** 2
                        + (gw - bw) ** 2
                        + (gh - bh) ** 2
                    )
                    for l in range(c):
                        p_l = _sig(raw[base + 5 + l, i, j])
                        if l == truths.class_ids[t_i]:
                            total += CLASS_WEIGHT * -math.log(max(p_l, 1e-15))
                        else:
                            total += CLASS_WEIGHT * -math.log(max(1.0 - p_l, 1e-15))
                if asg.prior_active[0]:
                    total += PRIOR_WEIGHT * (
                        (0.5 - sx) ** 2
                        + (0.5 - sy) ** 2
                        + (anchors.dims[a][0] - bw) ** 2
                        + (anchors.dims[a][1] - bh) ** 2
                    )
    return total


def test_loss_matches_straight_line_oracle():
    anchors = AnchorSet(dims=[(0.9, 1.1)])
    s, k, c = 2, 1, 2
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
    assert raw.shape == (k * (5 + c), s, s)
    truths = make_labels((0, 0.3, 0.26, 0.33, 0.42), (1, 0.77, 0.74, 0.25, 0.2))
    preds = decode_predictions(raw[None], anchors)

    for images_seen in (0, 1000):  # prior on and off
        asg = assign_targets([truths], preds, 1000, images_seen=images_seen)
        parts, _ = compute_loss(preds, asg)
        expected = straight_line_loss(raw, truths, asg, anchors)
        assert parts.total == pytest.approx(expected, abs=1e-10)


def _pred_box(preds, i, j, a) -> BBox:
    """Predicted box of slot (i, j, a) of image 0 in normalized image coordinates."""
    s = preds.s
    cx = (j + preds.x_off[0, a, i, j]) / s
    cy = (i + preds.y_off[0, a, i, j]) / s
    w = preds.w[0, a, i, j] / s
    h = preds.h[0, a, i, j] / s
    return BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def triple_loop_assignment(truths, preds, anchors):
    """Scalar oracle: (obj, noobj, truth_idx, conf_target) of image 0
    from one IoU call per (slot, truth) pair, the later truth winning a
    shared slot."""
    s, k = preds.s, preds.k
    obj = np.zeros((k, s, s), dtype=bool)
    noobj = np.ones((k, s, s), dtype=bool)
    truth_idx = np.full((k, s, s), -1, dtype=np.int64)
    conf_target = np.zeros((k, s, s), dtype=np.float64)
    if len(truths.class_ids):
        truth_boxes = [BBox(cx - tw / 2, cy - th / 2, cx + tw / 2, cy + th / 2)
                       for cx, cy, tw, th in truths.boxes.tolist()]
        for i in range(s):
            for j in range(s):
                for a in range(k):
                    pb = _pred_box(preds, i, j, a)
                    best = max(iou(pb, tb) for tb in truth_boxes)
                    if best > NOOBJ_IOU_THRES:
                        noobj[a, i, j] = False
        for t_i, (cx, cy, tw, th) in enumerate(truths.boxes.tolist()):
            j = min(int(cx * s), s - 1)
            i = min(int(cy * s), s - 1)
            tw, th = tw * s, th * s
            ious = []
            for aw, ah in anchors.dims[:k]:
                inter = min(tw, aw) * min(th, ah)
                ious.append(inter / (tw * th + aw * ah - inter))
            a_best = int(np.argmax(ious))
            obj[a_best, i, j] = True
            noobj[a_best, i, j] = False
            truth_idx[a_best, i, j] = t_i
            conf_target[a_best, i, j] = iou(_pred_box(preds, i, j, a_best), truth_boxes[t_i])
    return obj, noobj, truth_idx, conf_target


_centre = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
_truth = st.tuples(st.integers(0, 2), _centre, _centre, st.floats(0.01, 1), st.floats(0.01, 1))


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    s=st.integers(1, 6),
    k=st.integers(1, 4),
    truths=st.lists(_truth, max_size=5),
    collide=st.booleans(),
    images_seen=st.sampled_from([0, 20000]),
)
@settings(max_examples=200, deadline=None)
def test_assignment_equals_triple_loop_oracle(seed, s, k, truths, collide, images_seen):
    if collide and len(truths) >= 2:  # the last truth claims the first one's slot
        truths[-1] = (truths[-1][0], *truths[0][1:])
    truths = make_labels(*truths)
    rng = np.random.default_rng(seed)
    c = 3
    anchors = AnchorSet(dims=[tuple(d) for d in rng.uniform(0.2, 4.0, (k, 2))])
    raw = rng.standard_normal((k * (5 + c), s, s))
    preds = decode_predictions(raw[None], anchors)
    asg = assign_targets([truths], preds, 12800, images_seen=images_seen)
    obj, noobj, truth_idx, conf_target = triple_loop_assignment(truths, preds, anchors)
    assert np.array_equal(asg.obj[0], obj)
    assert np.array_equal(asg.noobj[0], noobj)
    assert np.array_equal(asg.truth_idx[0], truth_idx)
    assert np.array_equal(asg.conf_target[0], conf_target)
    parts, _ = compute_loss(preds, asg)
    expected = straight_line_loss(raw, truths, asg, anchors)
    assert parts.total == pytest.approx(expected, rel=1e-10, abs=1e-10)



@given(
    seed=st.integers(0, 2 ** 32 - 1),
    b=st.integers(1, 5),
    s=st.integers(1, 4),
    k=st.integers(1, 3),
    truths=st.lists(st.lists(_truth, max_size=4), min_size=5, max_size=5),
    collide=st.booleans(),
    images_seen=st.integers(0, 12),
)
@settings(max_examples=200, deadline=None)
def test_batch_equals_batch_of_one_calls(seed, b, s, k, truths, collide, images_seen):
    truths = truths[:b]
    if collide:  # in every image with two truths, the last claims the first one's slot
        truths = [ts[:-1] + [(ts[-1][0], *ts[0][1:])] if len(ts) >= 2 else ts for ts in truths]
    truths = [make_labels(*ts) for ts in truths]
    rng = np.random.default_rng(seed)
    c = 3
    anchors = AnchorSet(dims=[tuple(d) for d in rng.uniform(0.2, 4.0, (k, 2))])
    raw = rng.standard_normal((b, k * (5 + c), s, s))
    preds = decode_predictions(raw, anchors)
    # a warm-up of 6 images and images_seen in [0, 12] put it before, in and after the batch
    asg = assign_targets(truths, preds, 6, images_seen=images_seen)
    parts, grad = compute_loss(preds, asg)
    assert grad.shape == raw.shape and grad.dtype == np.float64 and grad.flags.c_contiguous

    offset = 0
    single_parts = []
    for i in range(b):
        one = decode_predictions(raw[i:i + 1], anchors)
        one_asg = assign_targets([truths[i]], one, 6, images_seen=images_seen + i)
        one_parts, one_grad = compute_loss(one, one_asg)
        assert np.array_equal(asg.obj[i], one_asg.obj[0])
        assert np.array_equal(asg.noobj[i], one_asg.noobj[0])
        assert np.array_equal(asg.conf_target[i], one_asg.conf_target[0])
        assert asg.prior_active[i] == one_asg.prior_active[0]
        local = one_asg.truth_idx[0]
        assert np.array_equal(asg.truth_idx[i], np.where(local >= 0, local + offset, -1))
        assert grad[i].tobytes() == (one_grad[0] / b).tobytes()
        single_parts.append(one_parts.as_tuple())
        offset += len(truths[i].class_ids)
    for got, want in zip(parts.as_tuple(), np.mean(single_parts, axis=0)):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_loss_gradient_matches_finite_differences():
    assert check_loss() < 1e-5
