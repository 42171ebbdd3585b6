"""The benchmark's own post-processing, written apart from the program, to
check the program's outputs: a vectorised grid decode, a brute-force
greedy per-class NMS, the letterbox inverse, greedy matching and
all-point AP.

Arithmetic follows the definitions the program documents (sigmoid
offsets, anchor * exp sizes, IoU as intersection over union with 0 for
disjoint boxes), so equal inputs give equal decisions.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    # the overflow-safe two-branch form
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def decode(raw: np.ndarray, dims: np.ndarray, img_w: float, img_h: float,
           conf_thres: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class ids, scores, (n, 4) x0 y0 x1 y1 boxes) of every slot scoring
    above conf_thres, sorted by descending score, ties in (anchor, row,
    column) order."""
    vol = np.asarray(raw, dtype=np.float64)[0]
    k = len(dims)
    s = vol.shape[-1]
    vol = vol.reshape(k, -1, s, s)
    cell_w, cell_h = img_w / s, img_h / s
    cols = np.arange(s)[None, None, :]
    rows = np.arange(s)[None, :, None]
    bx = (cols + sigmoid(np.ascontiguousarray(vol[:, 0]))) * cell_w
    by = (rows + sigmoid(np.ascontiguousarray(vol[:, 1]))) * cell_h
    bw = dims[:, 0, None, None] * np.exp(np.ascontiguousarray(vol[:, 2])) * cell_w
    bh = dims[:, 1, None, None] * np.exp(np.ascontiguousarray(vol[:, 3])) * cell_h
    cls_p = sigmoid(np.ascontiguousarray(vol[:, 5:]))
    best = cls_p.argmax(axis=1)
    score = sigmoid(np.ascontiguousarray(vol[:, 4])) * cls_p.max(axis=1)
    boxes = np.stack([
        np.minimum(np.maximum(bx - bw / 2, 0.0), img_w),
        np.minimum(np.maximum(by - bh / 2, 0.0), img_h),
        np.minimum(np.maximum(bx + bw / 2, 0.0), img_w),
        np.minimum(np.maximum(by + bh / 2, 0.0), img_h),
    ], axis=-1).reshape(-1, 4)
    score, best = score.reshape(-1), best.reshape(-1)
    keep = np.flatnonzero(score > conf_thres)
    order = keep[np.argsort(-score[keep], kind="stable")]
    return best[order], score[order], boxes[order]


def iou_many(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    ix = np.minimum(box[2], boxes[:, 2]) - np.maximum(box[0], boxes[:, 0])
    iy = np.minimum(box[3], boxes[:, 3]) - np.maximum(box[1], boxes[:, 1])
    inter = ix * iy
    area = (box[2] - box[0]) * (box[3] - box[1])
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area + areas - inter
    ok = (ix > 0) & (iy > 0) & (union > 0)
    return np.where(ok, inter / np.where(ok, union, 1.0), 0.0)


def greedy_nms(cls: np.ndarray, score: np.ndarray, boxes: np.ndarray,
               thres: float) -> np.ndarray:
    """Indices kept by greedy per-class suppression, in descending score
    order (ties: ascending class, then input order)."""
    kept: list[int] = []
    for c in np.unique(cls):
        members = np.flatnonzero(cls == c)
        members = members[np.argsort(-score[members], kind="stable")]
        chosen: list[int] = []
        for i in members:
            if not chosen or (iou_many(boxes[i], boxes[chosen]) <= thres).all():
                chosen.append(int(i))
        kept.extend(chosen)
    kept_arr = np.asarray(kept, dtype=np.intp)
    return kept_arr[np.argsort(-score[kept_arr], kind="stable")]


def unletterbox(boxes: np.ndarray, orig_w: int, orig_h: int, target: int) -> np.ndarray:
    scale = min(target / orig_w, target / orig_h)
    pad_x = (target - max(1, round(orig_w * scale))) // 2
    pad_y = (target - max(1, round(orig_h * scale))) // 2
    out = np.empty_like(boxes)
    out[:, 0::2] = np.clip((boxes[:, 0::2] - pad_x) / scale, 0.0, orig_w)
    out[:, 1::2] = np.clip((boxes[:, 1::2] - pad_y) / scale, 0.0, orig_h)
    return out


def read_truths(label_text: str, w: int, h: int) -> list[tuple[int, np.ndarray]]:
    """`class cx cy w h` lines (normalised) to pixel corner boxes."""
    out = []
    for line in label_text.splitlines():
        if not line.strip():
            continue
        c, cx, cy, bw, bh = line.split()
        cx, cy, bw, bh = float(cx), float(cy), float(bw), float(bh)
        out.append((int(c), np.array([max(cx - bw / 2, 0.0) * w, max(cy - bh / 2, 0.0) * h,
                                      min(cx + bw / 2, 1.0) * w, min(cy + bh / 2, 1.0) * h])))
    return out


def match(boxes: np.ndarray, truths: np.ndarray, iou_thres: float) -> list[bool]:
    """Greedy: each detection, in the given order, claims the unclaimed
    truth of highest IoU (first on ties) when that IoU reaches iou_thres."""
    free = np.ones(len(truths), dtype=bool)
    flags = []
    for box in boxes:
        ious = iou_many(box, truths) if len(truths) else np.zeros(0)
        ious = np.where(free, ious, 0.0)
        j = int(ious.argmax()) if len(ious) else -1
        hit = j >= 0 and ious[j] > 0 and ious[j] >= iou_thres
        if hit:
            free[j] = False
        flags.append(hit)
    return flags


def average_precision(flags: list[bool], num_truths: int) -> float:
    """All-point interpolated AP: sum of recall steps times the best
    precision at that recall or beyond."""
    if not flags:
        return 0.0
    hits = np.asarray(flags, dtype=np.float64)
    tp = np.cumsum(hits)
    precision = tp / np.arange(1, len(hits) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float((hits / num_truths * envelope).sum())


def mean_ap(images, dims: np.ndarray, size: int, conf_thres: float, nms_thres: float,
            iou_thres: float) -> tuple[float, dict[int, tuple[float, int, int]]]:
    """mAP from raw forward outputs. `images` yields (raw, w, h, truths)
    with truths from `read_truths`. Returns the mean and, per class with a
    truth, (AP, truth count, pooled detection count)."""
    pooled: dict[int, list[tuple[float, bool]]] = {}
    truth_counts: dict[int, int] = {}
    for raw, w, h, truths in images:
        for c, _ in truths:
            truth_counts[c] = truth_counts.get(c, 0) + 1
        cls, score, boxes = decode(raw, dims, float(size), float(size), conf_thres)
        keep = greedy_nms(cls, score, boxes, nms_thres)
        cls, score, boxes = cls[keep], score[keep], unletterbox(boxes[keep], w, h, size)
        for c in np.unique(cls):
            sel = cls == c
            t = [b for tc, b in truths if tc == c]
            flags = match(boxes[sel], np.asarray(t).reshape(-1, 4), iou_thres)
            pooled.setdefault(int(c), []).extend(zip(score[sel].tolist(), flags))
    per_class = {}
    for c, n in sorted(truth_counts.items()):
        entries = sorted(pooled.get(c, []), key=lambda e: -e[0])
        per_class[c] = (average_precision([f for _, f in entries], n), n, len(entries))
    aps = [ap for ap, _, _ in per_class.values()]
    return (float(np.mean(aps)) if aps else 0.0), per_class
