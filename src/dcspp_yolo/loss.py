"""Composite detection loss and target assignment.

Five terms, with YOLOv2's fixed weights, which no weight file records:
no-object confidence (`NOOBJ_WEIGHT` 1.0), object confidence
(`OBJ_WEIGHT` 5.0), coordinate regression (`COORD_WEIGHT` 1.0),
classification cross-entropy (`CLASS_WEIGHT` 1.0), and an early-training
pull of every box toward its anchor prior (`PRIOR_WEIGHT` 0.1). A slot
whose box overlaps a truth above `NOOBJ_IOU_THRES` 0.5 is exempt from
the no-object term. Confidence and intra-cell x/y terms are squared
errors on the post-sigmoid values (so their gradients carry the sigmoid
slope, the delta convention of Darknet-style region losses); w/h
residuals are squared differences in decoded grid units; classification
is binary cross-entropy over independent per-class sigmoids against a
one-hot target, which at the true class reduces to the negative log
probability.

Scaling the squared residual itself by the sigmoid derivative is a
tempting alternative reading, but it is degenerate as a training
objective: the no-object term would then vanish at confidence 1 as well
as 0, and gradient descent actively saturates any slot that wanders
above 2/3. The squared-error-on-activations form keeps zero loss
equivalent to zero residuals.

Everything works on a batch of B images (one image is a batch of one):
each part is summed over an image's slots and averaged over the images.
Warm-up is per image: image b of a batch that starts after `images_seen`
images is pulled toward the priors while images_seen + b < n_prior.

Targets (which slot owns which truth, and the confidence target for
owned slots) are frozen into the Assignment when it is built, so
`compute_loss` is a pure differentiable function of the raw network
output for a fixed assignment. Gradients are returned with respect to
the raw pre-activation outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .anchors import shape_iou_matrix
from .detection import PredGrid, box_corners, iou_matrix


class LossError(ValueError):
    pass


NOOBJ_WEIGHT = 1.0
OBJ_WEIGHT = 5.0
COORD_WEIGHT = 1.0
CLASS_WEIGHT = 1.0
PRIOR_WEIGHT = 0.1
NOOBJ_IOU_THRES = 0.5


class Labels(NamedTuple):
    """One image's annotated boxes: (T,) int64 class ids from 0 and (T, 4)
    float64 `cx cy w h` rows, centre and size normalized to [0, 1]."""

    class_ids: np.ndarray
    boxes: np.ndarray

    def corners(self) -> np.ndarray:
        """(T, 4) float64 corners `x_min y_min x_max y_max`."""
        return box_corners(*self.boxes.T)


@dataclass
class Assignment:
    """Per-slot indicators plus the targets frozen at assignment time,
    (B, K, S, S) arrays in the slot order of `PredGrid`."""

    noobj: np.ndarray         # (B, K, S, S) bool
    prior_active: np.ndarray  # (B,) bool, True while image b is in warm-up
    truth_idx: np.ndarray     # (B, K, S, S) int into `labels`, -1 when unassigned
    conf_target: np.ndarray   # (B, K, S, S) IoU(pred, truth) for owned slots
    labels: Labels            # the batch's truths, concatenated in image order

    @property
    def obj(self) -> np.ndarray:
        """(B, K, S, S) bool, the slots that own a truth."""
        return self.truth_idx >= 0

    @property
    def collisions(self) -> int:
        """Truths dropped because a later truth took their slot."""
        return len(self.labels.class_ids) - int(self.obj.sum())


def _batch_labels(truths: list[Labels], preds: PredGrid) -> Labels:
    """The batch's truths as one `Labels`, images in order, after checking that there
    is one `Labels` per image of `preds`, well formed, with class ids in [0, preds.c)."""
    b, c = preds.b, preds.c
    if len(truths) != b:
        raise LossError(f"{len(truths)} truth lists for a batch of {b} images")
    for img, (ids, boxes) in enumerate(truths):
        if np.ndim(ids) != 1:
            raise LossError(f"image {img}: class_ids must be (T,), got shape {np.shape(ids)}")
        if np.shape(boxes) != (len(ids), 4):
            raise LossError(f"image {img}: boxes must be ({len(ids)}, 4), got shape {np.shape(boxes)}")
        centre_ok = ((0.0 <= boxes[:, :2]) & (boxes[:, :2] <= 1.0)).all(axis=1)
        size_ok = ((0.0 < boxes[:, 2:]) & (boxes[:, 2:] <= 1.0)).all(axis=1)
        bad = np.flatnonzero(~(centre_ok & size_ok & (ids >= 0) & (ids < c)))
        if len(bad):
            idx = int(bad[0])
            cx, cy, w, h = boxes[idx].tolist()
            if not centre_ok[idx]:
                raise LossError(f"image {img}, truth {idx}: center ({cx}, {cy}) outside [0, 1]")
            if not size_ok[idx]:
                raise LossError(f"image {img}, truth {idx}: size ({w}, {h}) outside (0, 1]")
            raise LossError(f"image {img}, truth {idx}: class id {ids[idx]} out of range for {c} classes")
    return Labels(np.concatenate([ids for ids, _ in truths]),
                  np.concatenate([boxes for _, boxes in truths]))


def assign_targets(
    truths: list[Labels],
    preds: PredGrid,
    n_prior: int,
    images_seen: int = 0,
) -> Assignment:
    """Choose the responsible slot per truth and the no-object mask.

    `truths` holds one `Labels` per image of the batch; `truth_idx`
    indexes their concatenation in image order, kept as `labels`. Each
    truth is owned by the slot in its center cell of its own image whose
    anchor shape, from `preds.anchor_dims`, has the highest co-centered IoU
    with it (the first such anchor on a tie); that slot's confidence target
    is the IoU of the current predicted box against the truth. Slots whose
    predicted box overlaps any truth of the same image above
    `NOOBJ_IOU_THRES` are exempted from the no-object penalty; everything
    else is a no-object slot.
    Both come from one (K*S*S, T_b) IoU matrix per image b, of its
    predicted boxes against its own T_b truths.
    Image b is in prior warm-up while images_seen + b < n_prior.

    When two truths of one image claim the same (cell, anchor) slot, the
    later truth owns it and the earlier one is dropped; `collisions`
    counts the dropped truths of the batch.
    """
    b, s, k = preds.b, preds.s, preds.k
    flat = _batch_labels(truths, preds)
    noobj = np.ones((b, k, s, s), dtype=bool)
    truth_idx = np.full((b, k, s, s), -1, dtype=np.int64)
    conf_target = np.zeros((b, k, s, s), dtype=np.float64)

    if len(flat.class_ids):
        first = np.cumsum([0, *(len(ids) for ids, _ in truths)])  # image b's: first[b]:first[b+1]
        image_of = np.repeat(np.arange(b), np.diff(first))
        pred_boxes = preds.corners(1.0, 1.0)  # normalized image coordinates
        corners = flat.corners()
        ious = [iou_matrix(pred_boxes[img].reshape(-1, 4), corners[first[img]:first[img + 1]])
                .reshape(k, s, s, -1) for img in range(b)]
        noobj = ~np.array([(iou > NOOBJ_IOU_THRES).any(axis=-1) for iou in ious])
        cell = np.minimum((flat.boxes[:, :2] * s).astype(np.int64), s - 1)
        best_anchor = shape_iou_matrix(flat.boxes[:, 2:] * s, preds.anchor_dims).argmax(axis=1)
        # one truth at a time, so that the later of two colliding truths wins
        for t_i, (img, (j, i), a) in enumerate(zip(image_of.tolist(), cell.tolist(),
                                                   best_anchor.tolist())):
            noobj[img, a, i, j] = False
            truth_idx[img, a, i, j] = t_i
            conf_target[img, a, i, j] = ious[img][a, i, j, t_i - first[img]]

    return Assignment(
        noobj=noobj,
        prior_active=images_seen + np.arange(b) < n_prior,
        truth_idx=truth_idx,
        conf_target=conf_target,
        labels=flat,
    )


@dataclass
class LossParts:
    noobj: float
    obj: float
    coord: float
    cls: float
    prior: float

    @property
    def total(self) -> float:
        return self.noobj + self.obj + self.coord + self.cls + self.prior

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.total, self.noobj, self.obj, self.coord, self.cls, self.prior)


def compute_loss(
    preds: PredGrid,
    assignment: Assignment,
) -> tuple[LossParts, np.ndarray]:
    """Batch-mean weighted loss parts and the gradient of their total
    w.r.t. the raw output volume.

    `assignment` is what `assign_targets` returned for `preds`. The
    returned gradient has shape (B, K*(5+C), S, S) in float64 and matches
    central finite differences of the mean total for a fixed assignment.
    """
    b, s, k, c = preds.b, preds.s, preds.k, preds.c
    obj = assignment.obj
    noobj = assignment.noobj

    # every term adds into its channels of one C-contiguous (B, K, 5+C, S, S)
    # array, laid out like the raw output: backward's float32 sums follow the layout
    grad = np.zeros((b, k, 5 + c, s, s))
    d_tx, d_ty, d_tw, d_th, d_tc = (grad[:, :, ch] for ch in range(5))
    d_cls = grad[:, :, 5:].transpose(0, 1, 3, 4, 2)

    # confidence: target 0 on no-object slots, stored IoU on owned slots;
    # squared errors on the sigmoid values carry the sigmoid slope
    conf = preds.conf
    conf_res = np.where(obj, assignment.conf_target, 0.0) - conf
    conf_val = conf_res ** 2
    slot_lam = np.where(obj, OBJ_WEIGHT, 0.0) + np.where(noobj, NOOBJ_WEIGHT, 0.0)
    noobj_part = NOOBJ_WEIGHT * float(conf_val[noobj].sum())
    obj_part = OBJ_WEIGHT * float(conf_val[obj].sum())
    d_tc += slot_lam * (-2.0 * conf_res * (conf * (1.0 - conf)))

    def box_term(sel, scale, tx, ty, tw, th) -> float:
        """`scale` times the squared x, y, w, h residuals of the slots `sel`
        against the targets, with their gradient added into `grad`."""
        x_off, y_off, w, h = preds.x_off[sel], preds.y_off[sel], preds.w[sel], preds.h[sel]
        rx, ry, rw, rh = tx - x_off, ty - y_off, tw - w, th - h
        d_tx[sel] += scale * (-2.0 * rx * (x_off * (1.0 - x_off)))
        d_ty[sel] += scale * (-2.0 * ry * (y_off * (1.0 - y_off)))
        d_tw[sel] += scale * 2.0 * rw * (-w)
        d_th[sel] += scale * 2.0 * rh * (-h)
        return scale * float((rx ** 2 + ry ** 2 + rw ** 2 + rh ** 2).sum())

    # coordinates and classification on owned slots
    coord_part = 0.0
    cls_part = 0.0
    if obj.any():
        own = np.nonzero(obj)
        _, _, i, j = own
        t_idx = assignment.truth_idx[own]
        t_cx, t_cy, t_w, t_h = assignment.labels.boxes[t_idx].T
        coord_part = box_term(own, COORD_WEIGHT, t_cx * s - j, t_cy * s - i, t_w * s, t_h * s)

        p = preds.cls[own]
        onehot = np.eye(c)[assignment.labels.class_ids[t_idx]]
        log_p = np.log(np.maximum(np.where(onehot > 0, p, 1.0 - p), 1e-15))
        cls_part = CLASS_WEIGHT * -float(log_p.sum(axis=1).sum())
        d_cls[own] += CLASS_WEIGHT * (p - onehot)

    # prior pull on every slot of the images in warm-up (none selected after it)
    dims = preds.anchor_dims[:, :, None, None]
    prior_part = box_term(assignment.prior_active, PRIOR_WEIGHT, 0.5, 0.5, dims[:, 0], dims[:, 1])

    parts = LossParts(noobj=noobj_part / b, obj=obj_part / b, coord=coord_part / b,
                      cls=cls_part / b, prior=prior_part / b)
    return parts, grad.reshape(b, k * (5 + c), s, s) / b
