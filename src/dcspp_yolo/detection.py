"""Grid decode of the raw output volume, shared by the loss and by
inference, plus confidence thresholding, class-aware non-maximum
suppression and `iou_matrix`, the one corner-box IoU, which suppression,
evaluation matching and training target assignment share.

Suppression is exact greedy NMS taken in blocks of rows: each block is
compared with the boxes kept so far, and then within itself, so the IoU
work follows the kept boxes rather than every pair of candidates."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet


class DetectionError(ValueError):
    pass


@dataclass(frozen=True)
class BBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise DetectionError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )


@dataclass(frozen=True)
class Detection:
    box: BBox
    class_id: int
    score: float


@dataclass(frozen=True, eq=False)
class Detections:
    """N detections as arrays: (N, 4) float64 corner boxes (x_min, y_min,
    x_max, y_max), (N,) float64 scores and (N,) int64 class ids, which
    `decode`, `nms` and `detect_image` return in descending score order,
    NaN scores last. Iterating yields one `Detection` per row."""

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:
        for box, c, v in zip(self.boxes.tolist(), self.class_ids.tolist(), self.scores.tolist()):
            yield Detection(box=BBox(*box), class_id=c, score=v)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of (N, 4) and (M, 4) corner boxes; 0 where the boxes do
    not overlap in x or in y or the union is empty (a NaN fails those tests)."""
    a = np.asarray(a, dtype=np.float64)[:, None]
    b = np.asarray(b, dtype=np.float64)[None]
    with np.errstate(all="ignore"):
        ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = ix * iy
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        union = area_a + area_b - inter
        zero = (ix <= 0) | (iy <= 0) | (union <= 0)
        return np.where(zero, 0.0, inter / union)


def box_corners(cx: np.ndarray, cy: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(..., 4) corners `x_min y_min x_max y_max` of boxes given by centre and size."""
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class PredGrid:
    """Decoded predictions for a batch, (B, K, S, S) arrays in the slot
    order of the raw output.

    x_off/y_off are sigmoid intra-cell offsets; w/h are decoded box dims
    in grid units (anchor * exp(raw)); conf is the sigmoid objectness;
    cls is a (B, K, S, S, C) view of the per-class sigmoid probabilities.
    """

    x_off: np.ndarray
    y_off: np.ndarray
    w: np.ndarray
    h: np.ndarray
    conf: np.ndarray
    cls: np.ndarray
    anchor_dims: np.ndarray  # (K, 2) grid units

    @property
    def b(self) -> int:
        return self.x_off.shape[0]

    @property
    def k(self) -> int:
        return self.x_off.shape[1]

    @property
    def s(self) -> int:
        return self.x_off.shape[2]

    @property
    def c(self) -> int:
        return self.cls.shape[4]

    def corners(self, width: float, height: float) -> np.ndarray:
        """(B, K, S, S, 4) box corners in a `width` x `height` frame over the grid.

        The centre is (cell + offset) and the size anchor * exp(raw), both in
        grid units, divided by S / width (S / height for y and h). Width 1
        gives normalized coordinates. Width 32 * S gives the network input's
        pixels; there S / width is exactly 1/32, so the division is exact.
        """
        rows, cols = np.indices((self.s, self.s))
        sx, sy = self.s / width, self.s / height
        return box_corners((cols + self.x_off) / sx, (rows + self.y_off) / sy,
                           self.w / sx, self.h / sy)


def decode_predictions(raw: np.ndarray, anchors: AnchorSet) -> PredGrid:
    """Split a raw (B, K*(5+C), S, S) output volume into a PredGrid.

    Channel layout per anchor: tx, ty, tw, th, tc, then C class logits.
    """
    raw = np.asarray(raw)
    if raw.ndim != 4:
        raise DetectionError(f"expected a (B, K*(5+C), S, S) volume, got shape {raw.shape}")
    b, channels, s, s2 = raw.shape
    if s != s2:
        raise DetectionError(f"grid must be square, got {s}x{s2}")
    k = anchors.k
    if channels % k or channels // k < 6:
        raise DetectionError(
            f"channel count {channels} does not factor as K*(5+C) with K={k} and C >= 1"
        )
    c = channels // k - 5
    vol = raw.astype(np.float64).reshape(b, k, 5 + c, s, s)
    dims = anchors.as_array()
    return PredGrid(
        x_off=sigmoid(vol[:, :, 0]),
        y_off=sigmoid(vol[:, :, 1]),
        w=dims[:, 0, None, None] * np.exp(vol[:, :, 2]),
        h=dims[:, 1, None, None] * np.exp(vol[:, :, 3]),
        conf=sigmoid(vol[:, :, 4]),
        cls=sigmoid(vol[:, :, 5:]).transpose(0, 1, 3, 4, 2),
        anchor_dims=dims,
    )


def check_threshold(name: str, value: float) -> None:
    """Raise DetectionError unless value is in [0, 1]; NaN is not."""
    if not 0 <= value <= 1:
        raise DetectionError(f"{name} must be in [0, 1], got {value}")


def decode(
    grid: np.ndarray,
    anchors: AnchorSet,
    img_w: float,
    img_h: float,
    conf_thres: float,
) -> Detections:
    """Turn one (1, K*(5+C), S, S) output volume into scored detections.

    Per slot the box center is (cell + sigmoid offset) scaled to pixels,
    dims are anchor * exp(raw) scaled to pixels, and the score is the
    objectness sigmoid times the best per-class sigmoid. Boxes are
    clipped to the image; slots at or below conf_thres are dropped.
    Slots are taken in (anchor, row, column) order, then stably sorted
    by descending score, NaN scores last. conf_thres must be in [0, 1].
    """
    check_threshold("conf_thres", conf_thres)
    p = decode_predictions(grid, anchors)
    if p.b != 1:
        raise DetectionError(f"decode expects a single image, got batch of {p.b}")
    boxes = np.minimum(np.maximum(p.corners(img_w, img_h)[0], 0.0),
                       (img_w, img_h, img_w, img_h)).reshape(-1, 4)
    class_id = p.cls[0].argmax(axis=-1).ravel().astype(np.int64)
    score = (p.conf[0] * p.cls[0].max(axis=-1)).ravel()
    keep = np.flatnonzero(~(score <= conf_thres))  # a NaN score is kept, not dropped
    keep = keep[np.argsort(-score[keep], kind="stable")]
    return Detections(boxes=boxes[keep], scores=score[keep], class_ids=class_id[keep])


_NMS_BLOCK = 64  # rows of a class group that `nms` resolves at a time


def nms(dets: Detections, nms_thres: float) -> Detections:
    """Greedy class-aware suppression.

    Per class, in descending score order, keep a detection unless it
    overlaps an already kept same-class detection above nms_thres (a
    NaN overlap suppresses). Output is in descending score order, ties
    in ascending class id and then input order; NaN scores come last,
    in input order.

    Each class group is taken in blocks of _NMS_BLOCK rows. A block first
    drops the rows that overlap a box kept by earlier blocks, in one IoU
    against the kept boxes only, then resolves its survivors in order from
    their own IoU matrix. IoU is symmetric to the bit, so this keeps the
    same rows as comparing every row with every earlier kept row, with no
    full n x n matrix. nms_thres must be in [0, 1].
    """
    check_threshold("nms_thres", nms_thres)
    chosen = np.zeros(len(dets), dtype=bool)
    for cid in np.unique(dets.class_ids):
        group = np.flatnonzero(dets.class_ids == cid)
        group = group[np.argsort(-dets.scores[group], kind="stable")]
        boxes = dets.boxes[group]
        kept: list[int] = []
        for b0 in range(0, len(group), _NMS_BLOCK):
            rows = np.arange(b0, min(b0 + _NMS_BLOCK, len(group)))
            rows = rows[(iou_matrix(boxes[kept], boxes[rows]) <= nms_thres).all(axis=0)]
            # bit j of over[i] (little-endian bytes): survivor j overlaps survivor i
            over = np.packbits(~(iou_matrix(boxes[rows], boxes[rows]) <= nms_thres),
                               axis=1, bitorder="little")
            suppressed = 0
            for i, r in enumerate(rows.tolist()):
                if not suppressed >> i & 1:
                    kept.append(r)
                    suppressed |= int.from_bytes(over[i], "little")
        chosen[group[kept]] = True
    rows = np.flatnonzero(chosen)
    scores = dets.scores[rows]
    tie = np.where(np.isnan(scores), 0, dets.class_ids[rows])
    rows = rows[np.lexsort((tie, -scores))]
    return Detections(dets.boxes[rows], dets.scores[rows], dets.class_ids[rows])


def detect_image(
    net,
    image: np.ndarray,
    conf_thres: float = 0.25,
    nms_thres: float = 0.45,
    workspace=None,
) -> Detections:
    """Forward, decode, and suppress for one network-sized input image.

    Pixel coordinates are in the network input space; callers that
    letterboxed the original image undo that mapping themselves. A
    workspace, when given, is passed to the forward.
    """
    if net.cfg.anchors is None:
        raise DetectionError("network config has no anchor set; detection needs one")
    out = net.forward(image, training=False, workspace=workspace)
    size = float(net.cfg.input_size)
    dets = decode(out, net.cfg.anchors, size, size, conf_thres)
    return nms(dets, nms_thres)


def format_detections(dets: Detections) -> str:
    """One 'class_id score x_min y_min x_max y_max' line per detection."""
    lines = [
        f"{c} {v:.6f} {x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}"
        for c, v, (x0, y0, x1, y1)
        in zip(dets.class_ids.tolist(), dets.scores.tolist(), dets.boxes.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")
