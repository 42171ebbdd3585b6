"""Per-class average precision at a fixed IoU threshold, and dataset mAP.

Matching is greedy per image: detections in descending score order claim
the unmatched same-class truth of highest overlap. AP integrates the
all-point interpolated precision envelope over recall.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ppm
from .data import image_to_tensor, read_label_file, truths_to_pixel_boxes, unletterbox_boxes
from .detection import Detections, check_threshold, detect_image, iou_matrix
from .layers import Workspace


class EvalError(ValueError):
    pass


@dataclass
class ClassResult:
    ap: float
    num_truths: int
    pr_points: list[tuple[float, float]]  # (recall, precision)


@dataclass
class EvalResult:
    per_class: dict[int, ClassResult]
    map: float


def match_detections(
    dets: Detections,
    truth_ids: np.ndarray,
    truth_boxes: np.ndarray,
    iou_thres: float = 0.5,
) -> np.ndarray:
    """True/False flag per detection, in the given row order, which must be
    by descending score: each claims the unclaimed same-class truth of
    highest IoU (the first on a tie) when that IoU is > 0 and >= iou_thres.
    Classes match independently, so one call per image equals one call
    per class."""
    flags = np.zeros(len(dets), dtype=bool)
    if not len(dets) or not len(truth_ids):
        return flags
    ious = iou_matrix(dets.boxes, truth_boxes)
    same_class = dets.class_ids[:, None] == truth_ids[None, :]
    ious = np.where(same_class & (ious >= iou_thres), ious, 0.0)  # a NaN IoU never matches
    free = np.ones(len(truth_ids), dtype=bool)
    for r in np.flatnonzero(ious.any(axis=1)):
        row = np.where(free, ious[r], 0.0)
        t = int(row.argmax())
        if row[t] > 0:
            free[t] = False
            flags[r] = True
    return flags


def _pr_curve(flags, num_truths: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision after each of the ordered TP/FP flags."""
    tp = np.cumsum(np.asarray(flags, dtype=bool))
    return tp / num_truths, tp / np.arange(1, len(tp) + 1)


def average_precision(flags, num_truths: int) -> float:
    """All-point interpolated AP from ordered TP/FP flags."""
    if num_truths < 1:
        raise EvalError("average_precision needs at least one ground truth")
    if not len(flags):
        return 0.0
    recall, precision = _pr_curve(flags, num_truths)
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    return float(np.cumsum(np.diff(mrec) * mpre[1:])[-1])  # in order: np.sum adds pairwise


def pr_points(flags, num_truths: int) -> list[tuple[float, float]]:
    recall, precision = _pr_curve(flags, num_truths)
    return list(zip(recall.tolist(), precision.tolist()))


def evaluate(
    net,
    manifest,
    conf_thres: float = 0.005,
    nms_thres: float = 0.45,
    iou_thres: float = 0.5,
) -> EvalResult:
    """Detect every manifest image and aggregate per-class AP and mAP.

    Each class pools its detections over all images by descending score,
    ties in detection order, NaN scores last. Classes without any ground
    truth are excluded from the mean. The conf and NMS thresholds must be
    in [0, 1] and the IoU threshold in (0, 1], each checked before any image
    is read. One workspace serves every image's letterbox and forward.
    """
    check_threshold("conf_thres", conf_thres)
    check_threshold("nms_thres", nms_thres)
    if not 0 < iou_thres <= 1:  # NaN too
        raise EvalError(f"iou_thres must be in (0, 1], got {iou_thres}")
    if not len(manifest.entries):
        raise EvalError("cannot evaluate an empty dataset")
    size = net.cfg.input_size
    ws, canvas = Workspace(), (1, 3, size, size)
    truth_ids, class_ids, scores, flags = [], [], [], []
    for img_path, lab_path in manifest.entries:
        img = ppm.ppm_read(img_path)
        h, w = img.shape[:2]
        labels = read_label_file(lab_path)
        if (cid := labels.class_ids.max(initial=0)) >= net.cfg.num_classes:
            raise EvalError(f"{lab_path}: class id {cid} out of range for {net.cfg.num_classes} classes")
        truth_boxes = truths_to_pixel_boxes(labels, w, h)
        # no name holds the canvas, so the next image's letterbox reuses its memory
        dets = detect_image(net, image_to_tensor(img, size, out=ws.empty(canvas, np.float32)),
                            conf_thres, nms_thres, workspace=ws)
        dets = replace(dets, boxes=unletterbox_boxes(dets.boxes, w, h, size))
        truth_ids.append(labels.class_ids)
        class_ids.append(dets.class_ids)
        scores.append(dets.scores)
        flags.append(match_detections(dets, labels.class_ids, truth_boxes, iou_thres))
    class_ids, scores, flags = (np.concatenate(a) for a in (class_ids, scores, flags))

    per_class: dict[int, ClassResult] = {}
    classes, counts = np.unique(np.concatenate(truth_ids), return_counts=True)
    for cid, count in zip(classes.tolist(), counts.tolist()):
        rows = np.flatnonzero(class_ids == cid)
        ordered = flags[rows[np.argsort(-scores[rows], kind="stable")]]
        per_class[cid] = ClassResult(ap=average_precision(ordered, count), num_truths=count,
                                     pr_points=pr_points(ordered, count))
    aps = [cr.ap for cr in per_class.values()]
    mean_ap = float(np.mean(aps)) if aps else 0.0
    return EvalResult(per_class=per_class, map=mean_ap)


def format_report(result: EvalResult, class_names: list[str] | None = None) -> str:
    lines = [f"{'class':<16} {'truths':>6} {'AP':>8}"]
    for cid, cr in sorted(result.per_class.items()):
        name = class_names[cid] if class_names and cid < len(class_names) else f"class_{cid}"
        lines.append(f"{name:<16} {cr.num_truths:>6} {cr.ap:>8.4f}")
    lines.append(f"mAP {result.map:.4f}")
    return "\n".join(lines) + "\n"


def report_csv(result: EvalResult, class_names: list[str] | None = None) -> str:
    lines = ["class,truths,ap"]
    for cid, cr in sorted(result.per_class.items()):
        name = class_names[cid] if class_names and cid < len(class_names) else f"class_{cid}"
        lines.append(f"{name},{cr.num_truths},{cr.ap:.6f}")
    lines.append(f"mAP,,{result.map:.6f}")
    return "\n".join(lines) + "\n"
