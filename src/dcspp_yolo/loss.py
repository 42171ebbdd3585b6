"""Composite detection loss and target assignment.

Five weighted terms: no-object confidence, object confidence, coordinate
regression, classification cross-entropy, and an early-training pull of
every box toward its anchor prior. Confidence and intra-cell x/y terms
are squared errors on the post-sigmoid values (so their gradients carry
the sigmoid slope, the delta convention of Darknet-style region losses);
w/h residuals are squared differences in decoded grid units;
classification is binary cross-entropy over independent per-class
sigmoids against a one-hot target, which at the true class reduces to
the negative log probability.

Scaling the squared residual itself by the sigmoid derivative is a
tempting alternative reading, but it is degenerate as a training
objective: the no-object term would then vanish at confidence 1 as well
as 0, and gradient descent actively saturates any slot that wanders
above 2/3. The squared-error-on-activations form keeps zero loss
equivalent to zero residuals.

Targets (which slot owns which truth, and the confidence target for
owned slots) are frozen into the Assignment when it is built, so
`compute_loss` is a pure differentiable function of the raw network
output for a fixed assignment. Gradients are returned with respect to
the raw pre-activation outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, shape_iou_matrix
# decode_predictions is re-exported: the loss is defined on its PredGrid
from .detection import BBox, PredGrid, box_array, decode_predictions, iou_matrix


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class LossWeights:
    noobj: float = 1.0
    obj: float = 5.0
    coord: float = 1.0
    cls: float = 1.0
    prior: float = 0.1
    iou_thres: float = 0.5
    n_prior: int = 12800

    def __post_init__(self) -> None:
        for name in ("noobj", "obj", "coord", "cls", "prior"):
            if getattr(self, name) < 0:
                raise LossError(f"loss weight {name} must be >= 0")
        if not (0 < self.iou_thres < 1):
            raise LossError(f"iou_thres must be in (0, 1), got {self.iou_thres}")


@dataclass(frozen=True)
class TruthBox:
    """Annotated box: center/size normalized to [0, 1], class id from 0."""

    cx: float
    cy: float
    w: float
    h: float
    class_id: int

    def corners(self) -> BBox:
        return BBox(self.cx - self.w / 2, self.cy - self.h / 2,
                    self.cx + self.w / 2, self.cy + self.h / 2)


@dataclass
class Assignment:
    """Per-slot indicators plus the targets frozen at assignment time."""

    obj: np.ndarray          # (S, S, K) bool
    noobj: np.ndarray        # (S, S, K) bool
    prior_active: bool
    truth_idx: np.ndarray    # (S, S, K) int, -1 when unassigned
    conf_target: np.ndarray  # (S, S, K) IoU(pred, truth) for owned slots


def _validate_truths(truths: list[TruthBox]) -> None:
    for idx, t in enumerate(truths):
        if not (0.0 <= t.cx <= 1.0 and 0.0 <= t.cy <= 1.0):
            raise LossError(f"truth {idx}: center ({t.cx}, {t.cy}) outside [0, 1]")
        if not (0.0 < t.w <= 1.0 and 0.0 < t.h <= 1.0):
            raise LossError(f"truth {idx}: size ({t.w}, {t.h}) outside (0, 1]")
        if t.class_id < 0:
            raise LossError(f"truth {idx}: negative class id {t.class_id}")


def assign_targets(
    truths: list[TruthBox],
    preds: PredGrid,
    anchors: AnchorSet,
    weights: LossWeights,
    images_seen: int = 0,
) -> Assignment:
    """Choose the responsible slot per truth and the no-object mask.

    Each truth is owned by the slot in its center cell whose anchor shape
    has the highest co-centered IoU with it (the first such anchor on a
    tie); that slot's confidence target is the IoU of the current
    predicted box against the truth. Slots whose predicted box overlaps
    any truth above iou_thres are exempted from the no-object penalty;
    everything else is a no-object slot. Both come from one
    (S, S, K, T) IoU matrix of every predicted box against every truth.
    The prior indicator covers all slots while fewer than n_prior images
    were seen.

    When two truths claim the same (cell, anchor) slot, the later truth in
    `truths` owns it and the earlier one is dropped.
    """
    _validate_truths(truths)
    s, k = preds.s, preds.k
    obj = np.zeros((s, s, k), dtype=bool)
    noobj = np.ones((s, s, k), dtype=bool)
    truth_idx = np.full((s, s, k), -1, dtype=np.int64)
    conf_target = np.zeros((s, s, k), dtype=np.float64)

    if truths:
        # predicted boxes in normalized image coordinates
        rows, cols, _ = np.indices((s, s, k))
        cx = (cols + preds.x_off) / s
        cy = (rows + preds.y_off) / s
        w = preds.w / s
        h = preds.h / s
        pred_boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)
        ious = iou_matrix(pred_boxes.reshape(-1, 4), box_array(t.corners() for t in truths))
        ious = ious.reshape(s, s, k, len(truths))
        noobj = ~(ious > weights.iou_thres).any(axis=-1)
        shapes = np.array([(t.w * s, t.h * s) for t in truths])
        best_anchor = shape_iou_matrix(shapes, anchors.as_array()).argmax(axis=1)
        # one truth at a time, so that the later of two colliding truths wins
        for t_i, (t, a) in enumerate(zip(truths, best_anchor.tolist())):
            j = min(int(t.cx * s), s - 1)
            i = min(int(t.cy * s), s - 1)
            obj[i, j, a] = True
            noobj[i, j, a] = False
            truth_idx[i, j, a] = t_i
            conf_target[i, j, a] = ious[i, j, a, t_i]

    return Assignment(
        obj=obj,
        noobj=noobj,
        prior_active=images_seen < weights.n_prior,
        truth_idx=truth_idx,
        conf_target=conf_target,
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


def _dsig(s: np.ndarray) -> np.ndarray:
    """Sigmoid derivative at the logit, from the post-sigmoid value."""
    return s * (1.0 - s)


def _sq_term_and_grad(residual, s):
    """Value and d/d(raw logit) of (target - sigmoid(raw))**2, treating the
    target as a constant. `residual` is target - s with s the sigmoid value."""
    val = residual ** 2
    grad = -2.0 * residual * _dsig(s)
    return val, grad


def _prior_residuals(preds: PredGrid, dims: np.ndarray):
    rx = 0.5 - preds.x_off
    ry = 0.5 - preds.y_off
    rw = dims[None, None, :, 0] - preds.w
    rh = dims[None, None, :, 1] - preds.h
    return rx, ry, rw, rh


def prior_term(preds: PredGrid, anchors: AnchorSet) -> float:
    """Unweighted sum over all slots of the prior-matching penalty."""
    rx, ry, rw, rh = _prior_residuals(preds, anchors.as_array())
    return float((rx ** 2 + ry ** 2 + rw ** 2 + rh ** 2).sum())


def compute_loss(
    preds: PredGrid,
    truths: list[TruthBox],
    assignment: Assignment,
    weights: LossWeights,
) -> tuple[LossParts, np.ndarray]:
    """Weighted loss parts and the gradient w.r.t. the raw output volume.

    The returned gradient has shape (K*(5+C), S, S) in float64 and matches
    central finite differences of the total for a fixed assignment.
    """
    s, k, c = preds.s, preds.k, preds.c
    lam = weights
    obj = assignment.obj
    noobj = assignment.noobj

    d_tx = np.zeros((s, s, k))
    d_ty = np.zeros((s, s, k))
    d_tw = np.zeros((s, s, k))
    d_th = np.zeros((s, s, k))
    d_tc = np.zeros((s, s, k))
    d_cls = np.zeros((s, s, k, c))

    # confidence: target 0 on no-object slots, stored IoU on owned slots
    conf_res = np.where(obj, assignment.conf_target, 0.0) - preds.conf
    conf_val, conf_grad = _sq_term_and_grad(conf_res, preds.conf)
    slot_lam = np.where(obj, lam.obj, 0.0) + np.where(noobj, lam.noobj, 0.0)
    noobj_part = lam.noobj * float(conf_val[noobj].sum())
    obj_part = lam.obj * float(conf_val[obj].sum())
    d_tc += slot_lam * conf_grad

    # coordinates and classification on owned slots
    coord_part = 0.0
    cls_part = 0.0
    if truths:
        own = np.nonzero(obj)
        i, j, _ = own
        t_idx = assignment.truth_idx[own]
        t_cx, t_cy, t_w, t_h = np.array([(t.cx, t.cy, t.w, t.h) for t in truths])[t_idx].T
        t_cls = np.array([t.class_id for t in truths])[t_idx]
        x_off, y_off, w, h = preds.x_off[own], preds.y_off[own], preds.w[own], preds.h[own]
        vx, gx_grad = _sq_term_and_grad(t_cx * s - j - x_off, x_off)
        vy, gy_grad = _sq_term_and_grad(t_cy * s - i - y_off, y_off)
        rw = t_w * s - w
        rh = t_h * s - h
        coord_part = lam.coord * float((vx + vy + rw ** 2 + rh ** 2).sum())
        d_tx[own] += lam.coord * gx_grad
        d_ty[own] += lam.coord * gy_grad
        d_tw[own] += lam.coord * 2.0 * rw * (-w)
        d_th[own] += lam.coord * 2.0 * rh * (-h)

        p = preds.cls[own]
        onehot = np.eye(c)[t_cls]
        log_p = np.log(np.maximum(np.where(onehot > 0, p, 1.0 - p), 1e-15))
        cls_part = lam.cls * -float(log_p.sum(axis=1).sum())
        d_cls[own] += lam.cls * (p - onehot)

    # prior pull on every slot during warm-up
    prior_part = 0.0
    if assignment.prior_active and lam.prior > 0:
        rx, ry, rw, rh = _prior_residuals(preds, preds.anchor_dims)
        vx, gx_grad = _sq_term_and_grad(rx, preds.x_off)
        vy, gy_grad = _sq_term_and_grad(ry, preds.y_off)
        prior_part = lam.prior * float((vx + vy + rw ** 2 + rh ** 2).sum())
        d_tx += lam.prior * gx_grad
        d_ty += lam.prior * gy_grad
        d_tw += lam.prior * 2.0 * rw * (-preds.w)
        d_th += lam.prior * 2.0 * rh * (-preds.h)

    parts = LossParts(noobj=noobj_part, obj=obj_part, coord=coord_part,
                      cls=cls_part, prior=prior_part)

    # assemble (S,S,K,5+C) then fold into the raw channel layout
    grad_slots = np.concatenate(
        [
            d_tx[..., None], d_ty[..., None], d_tw[..., None], d_th[..., None],
            d_tc[..., None], d_cls,
        ],
        axis=-1,
    )
    grad = grad_slots.transpose(2, 3, 0, 1).reshape(k * (5 + c), s, s)
    return parts, grad
