"""Label file parsing, letterbox preprocessing, and annotated rendering."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .detection import BBox, Detections
from .loss import Labels


class LabelError(ValueError):
    pass


# box edges may poke a hair past the image from 6-decimal label rounding
_EDGE_TOL = 1e-6


def read_lines(path: str | Path, error: type[Exception]) -> list[str]:
    """The lines of a UTF-8 text file. A file that does not decode raises
    `error`, the caller's own error type, naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from exc


def parse_label_line(line: str, where: str) -> Labels:
    """The one-row `Labels` of a label line; errors name the line by `where`."""
    parts = line.split()
    if len(parts) != 5:
        raise LabelError(f"{where}: expected 'class_id cx cy w h', got {len(parts)} fields")
    try:
        cid = int(parts[0])
        cx, cy, w, h = (float(v) for v in parts[1:])
    except ValueError as exc:
        raise LabelError(f"{where}: malformed value: {exc}") from exc
    if cid < 0:
        raise LabelError(f"{where}: class id must be >= 0, got {cid}")
    if cid > np.iinfo(np.int64).max:
        raise LabelError(f"{where}: class id {cid} does not fit a 64-bit integer")
    if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
        raise LabelError(f"{where}: center ({cx}, {cy}) out of [0, 1]")
    if not (0.0 < w <= 1.0 and 0.0 < h <= 1.0):
        raise LabelError(f"{where}: size ({w}, {h}) out of (0, 1]")
    if (
        cx - w / 2 < -_EDGE_TOL
        or cy - h / 2 < -_EDGE_TOL
        or cx + w / 2 > 1 + _EDGE_TOL
        or cy + h / 2 > 1 + _EDGE_TOL
    ):
        raise LabelError(f"{where}: box ({cx}, {cy}, {w}, {h}) extends outside the image")
    return Labels(np.array([cid], dtype=np.int64), np.array([[cx, cy, w, h]], dtype=np.float64))


def read_label_file(path: str | Path) -> Labels:
    """The `Labels` of a label file, one row per non-blank line."""
    path = Path(path)
    rows = [parse_label_line(line, f"{path}:{lineno}")
            for lineno, line in enumerate(read_lines(path, LabelError), start=1) if line.strip()]
    return Labels(np.concatenate([np.zeros(0, dtype=np.int64)] + [ids for ids, _ in rows]),
                  np.concatenate([np.zeros((0, 4))] + [boxes for _, boxes in rows]))


def write_label_file(path: str | Path, labels: Labels) -> None:
    lines = [f"{c} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}"
             for c, (cx, cy, w, h) in zip(labels.class_ids.tolist(), labels.boxes.tolist())]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_class_names(path: str | Path) -> list[str]:
    names = [ln.strip() for ln in read_lines(path, LabelError) if ln.strip()]
    if not names:
        raise LabelError(f"{path}: empty class list")
    return names


def write_class_names(path: str | Path, names: list[str]) -> None:
    Path(path).write_text("\n".join(names) + "\n")


# ---------------------------------------------------------------------------
# letterboxing


class LetterboxParams(NamedTuple):
    scale: float
    pad_x: int
    pad_y: int
    new_w: int
    new_h: int


def letterbox_params(w: int, h: int, target: int) -> LetterboxParams:
    scale = min(target / w, target / h)
    new_w = max(1, round(w * scale))
    new_h = max(1, round(h * scale))
    return LetterboxParams(scale, (target - new_w) // 2, (target - new_h) // 2, new_w, new_h)


def image_to_tensor(img: np.ndarray, target: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Aspect-preserving resize onto a target x target gray canvas.

    Output is a C-contiguous (1, 3, target, target) float32 array in
    [0, 1] with channel planes R, G, B; padding bands hold exactly 0.5.
    The image is divided by 255 in float32 straight into the canvas planes,
    which are `out` when given: a C-contiguous float32 array of that shape.
    """
    if target % 32 != 0:
        raise LabelError(f"target size must be a multiple of 32, got {target}")
    if img.ndim != 3 or img.shape[2] != 3:
        raise LabelError(f"image must be (h, w, 3), got {img.shape}")
    h, w = img.shape[:2]
    p = letterbox_params(w, h, target)
    if (p.new_h, p.new_w) != (h, w):  # nearest-neighbour resize
        rows = np.minimum((np.arange(p.new_h) + 0.5) * h / p.new_h, h - 1).astype(np.intp)
        cols = np.minimum((np.arange(p.new_w) + 0.5) * w / p.new_w, w - 1).astype(np.intp)
        img = img[rows][:, cols]
    canvas = np.empty((1, 3, target, target), dtype=np.float32) if out is None else out
    canvas.fill(0.5)
    np.divide(img.transpose(2, 0, 1), 255, dtype=np.float32,
              out=canvas[0, :, p.pad_y:p.pad_y + p.new_h, p.pad_x:p.pad_x + p.new_w])
    return canvas


def unletterbox_boxes(boxes: np.ndarray, orig_w: int, orig_h: int, target: int) -> np.ndarray:
    """Map (N, 4) corner boxes from network-input pixels back to
    original-image pixels, clipped to the original image."""
    p = letterbox_params(orig_w, orig_h, target)
    out = (boxes - np.array([p.pad_x, p.pad_y, p.pad_x, p.pad_y])) / p.scale
    return np.minimum(np.maximum(out, 0.0), np.array([orig_w, orig_h, orig_w, orig_h]))


def unletterbox_box(box: BBox, orig_w: int, orig_h: int, target: int) -> BBox:
    """`unletterbox_boxes` for one box."""
    corners = np.array([[box.x_min, box.y_min, box.x_max, box.y_max]], dtype=np.float64)
    return BBox(*unletterbox_boxes(corners, orig_w, orig_h, target)[0].tolist())


def truths_to_pixel_boxes(labels: Labels, w: int, h: int) -> np.ndarray:
    """(T, 4) corner boxes of the labels in image pixels, clipped to the image."""
    return np.clip(labels.corners(), 0.0, 1.0) * np.array([w, h, w, h])


# ---------------------------------------------------------------------------
# rendering


def class_color(class_id: int) -> tuple[int, int, int]:
    """Deterministic bright-ish color per class id."""
    x = (class_id * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    return (64 + (x & 0x7F), 64 + ((x >> 8) & 0x7F), 64 + ((x >> 16) & 0x7F))


def render_detections(img: np.ndarray, dets: Detections) -> np.ndarray:
    """Copy of the image with 2-pixel box outlines per detection."""
    out = img.copy()
    h, w = out.shape[:2]
    for cid, (bx0, by0, bx1, by1) in zip(dets.class_ids.tolist(), dets.boxes.tolist()):
        color = np.array(class_color(cid), dtype=np.uint8)
        x0 = int(max(0, min(round(bx0), w - 1)))
        x1 = int(max(0, min(round(bx1), w - 1)))
        y0 = int(max(0, min(round(by0), h - 1)))
        y1 = int(max(0, min(round(by1), h - 1)))
        for t in range(2):
            yt = min(y0 + t, h - 1)
            yb = max(y1 - t, 0)
            out[yt, x0:x1 + 1] = color
            out[yb, x0:x1 + 1] = color
            xl = min(x0 + t, w - 1)
            xr = max(x1 - t, 0)
            out[y0:y1 + 1, xl] = color
            out[y0:y1 + 1, xr] = color
    return out
