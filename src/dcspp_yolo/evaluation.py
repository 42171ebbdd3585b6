"""Per-class average precision at a fixed IoU threshold, and dataset mAP.

Matching is greedy per image: detections in descending score order claim
the unmatched same-class truth of highest overlap. AP integrates the
all-point interpolated precision envelope over recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ppm
from .data import image_to_tensor, read_label_file, truths_to_pixel_boxes, unletterbox_box
from .detection import BBox, Detection, box_array, detect_image, iou_matrix


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
    dets: list[Detection],
    truths: list[tuple[int, BBox]],
    iou_thres: float = 0.5,
) -> list[bool]:
    """True/False flag per detection, which must arrive sorted by score
    desc: each claims the unclaimed same-class truth of highest IoU (the
    first on a tie) when that IoU is > 0 and >= iou_thres. Classes match
    independently, so one call per image equals one call per class."""
    flags = [False] * len(dets)
    if not dets or not truths:
        return flags
    ious = iou_matrix(box_array(d.box for d in dets), box_array(b for _, b in truths))
    same_class = (np.array([d.class_id for d in dets])[:, None]
                  == np.array([cid for cid, _ in truths])[None, :])
    ious = np.where(same_class & (ious >= iou_thres), ious, 0.0)  # a NaN IoU never matches
    free = np.ones(len(truths), dtype=bool)
    for r in np.flatnonzero(ious.any(axis=1)):
        row = np.where(free, ious[r], 0.0)
        t = int(row.argmax())
        if row[t] > 0:
            free[t] = False
            flags[r] = True
    return flags


def average_precision(flags: list[bool], num_truths: int) -> float:
    """All-point interpolated AP from ordered TP/FP flags."""
    if num_truths < 1:
        raise EvalError("average_precision needs at least one ground truth")
    if not flags:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    recall = tp / num_truths
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(1, len(mrec)):
        ap += (mrec[i] - mrec[i - 1]) * mpre[i]
    return float(ap)


def pr_points(flags: list[bool], num_truths: int) -> list[tuple[float, float]]:
    tp = fp = 0
    pts = []
    for f in flags:
        tp += 1 if f else 0
        fp += 0 if f else 1
        pts.append((tp / num_truths, tp / (tp + fp)))
    return pts


def evaluate(
    net,
    manifest,
    conf_thres: float = 0.005,
    nms_thres: float = 0.45,
    iou_thres: float = 0.5,
) -> EvalResult:
    """Detect every manifest image and aggregate per-class AP and mAP.

    Classes without any ground truth are excluded from the mean.
    """
    if not len(manifest.entries):
        raise EvalError("cannot evaluate an empty dataset")
    size = net.cfg.input_size
    # (score, order, flag) per class, pooled across images
    pooled: dict[int, list[tuple[float, int, bool]]] = {}
    truth_counts: dict[int, int] = {}
    order = 0
    for img_path, lab_path in manifest.entries:
        img = ppm.ppm_read(img_path)
        h, w = img.shape[:2]
        truths = read_label_file(lab_path)
        if (cid := max((t.class_id for t in truths), default=0)) >= net.cfg.num_classes:
            raise EvalError(f"{lab_path}: class id {cid} out of range for {net.cfg.num_classes} classes")
        truth_boxes = truths_to_pixel_boxes(truths, w, h)
        for cid, _ in truth_boxes:
            truth_counts[cid] = truth_counts.get(cid, 0) + 1
        dets = detect_image(net, image_to_tensor(img, size), conf_thres, nms_thres)
        dets = [
            Detection(box=unletterbox_box(d.box, w, h, size), class_id=d.class_id, score=d.score)
            for d in dets
        ]
        for d, f in zip(dets, match_detections(dets, truth_boxes, iou_thres)):
            pooled.setdefault(d.class_id, []).append((d.score, order, f))
            order += 1

    per_class: dict[int, ClassResult] = {}
    aps = []
    for cid, count in sorted(truth_counts.items()):
        entries = sorted(pooled.get(cid, []), key=lambda e: (-e[0], e[1]))
        flags = [f for _, _, f in entries]
        ap = average_precision(flags, count) if count else 0.0
        per_class[cid] = ClassResult(ap=ap, num_truths=count, pr_points=pr_points(flags, count))
        aps.append(ap)
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
