"""Anchor priors via k-means over box shapes under the 1 - IoU distance.

Boxes are compared co-centered, so only width/height matter. Centroids
are updated as the coordinate-wise mean of their members; iteration
stops at an assignment fixpoint, at max_iter, or as soon as a mean
update would raise the total cost (the mean is not the exact minimizer
of this metric, so that guard keeps the recorded cost non-increasing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class AnchorError(ValueError):
    pass


def _valid_dims(w: float, h: float) -> bool:
    """Positive and finite: NaN would also never equal itself in the anchors
    a weight file records."""
    return w > 0 and h > 0 and math.isfinite(w) and math.isfinite(h)


@dataclass
class AnchorSet:
    """K prior (w, h) pairs in grid units, sorted by area ascending."""

    dims: list[tuple[float, float]]
    seed: int = 0
    iterations: int = 0
    mean_iou: float = 0.0
    cost_history: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.dims:
            raise AnchorError("an anchor set needs at least one (w, h) pair")
        for w, h in self.dims:
            if not _valid_dims(w, h):
                raise AnchorError(f"anchor dims must be positive and finite, got ({w}, {h})")

    @property
    def k(self) -> int:
        return len(self.dims)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.dims, dtype=np.float64)


def shape_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of (N, 2) and (M, 2) (w, h) shapes compared co-centered."""
    aw, ah = a[:, None, 0], a[:, None, 1]
    bw, bh = b[None, :, 0], b[None, :, 1]
    inter = np.minimum(aw, bw) * np.minimum(ah, bh)
    union = aw * ah + bw * bh - inter
    return inter / union


def _dist_matrix(boxes: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(N, K) matrix of 1 - IoU between boxes and centroids."""
    return 1.0 - shape_iou_matrix(boxes, cents)


def _plus_plus_init(boxes: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    cents = [boxes[rng.integers(len(boxes))]]
    while len(cents) < k:
        d = _dist_matrix(boxes, np.asarray(cents)).min(axis=1)
        d2 = d * d
        total = d2.sum()
        if total <= 0:
            cents.append(boxes[rng.integers(len(boxes))])
            continue
        cents.append(boxes[rng.choice(len(boxes), p=d2 / total)])
    return np.asarray(cents, dtype=np.float64)


def kmeans_anchors(
    boxes: list[tuple[float, float]] | np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
) -> AnchorSet:
    data = np.asarray(boxes, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != 2:
        raise AnchorError(f"boxes must be (w, h) pairs, got array of shape {data.shape}")
    if np.any(data <= 0):
        raise AnchorError("all box dims must be positive")
    if k < 1:
        raise AnchorError(f"k must be >= 1, got {k}")
    if max_iter < 1:
        raise AnchorError(f"max_iter must be >= 1, got {max_iter}")
    if seed < 0:
        raise AnchorError(f"seed must be >= 0, got {seed}")
    if len(data) < k:
        raise AnchorError(f"need at least k={k} boxes, got {len(data)}")

    rng = np.random.default_rng(seed)
    cents = _plus_plus_init(data, k, rng)
    costs: list[float] = []
    prev_assign = None
    prev_cents = cents

    for _ in range(max_iter):
        d = _dist_matrix(data, cents)
        assign = d.argmin(axis=1)
        cost = float(d[np.arange(len(data)), assign].sum())
        if costs and cost > costs[-1] + 1e-12:
            # mean update made things worse: keep the previous centroids
            cents = prev_cents
            break
        costs.append(cost)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        prev_cents = cents.copy()

        new_cents = cents.copy()
        for j in range(k):
            members = data[assign == j]
            if len(members):
                new_cents[j] = members.mean(axis=0)
            else:
                # reseed an empty cluster at the worst-fit box
                worst = int(d[np.arange(len(data)), assign].argmax())
                new_cents[j] = data[worst]
        cents = new_cents

    best_iou = 1.0 - _dist_matrix(data, cents).min(axis=1)
    order = np.argsort(cents[:, 0] * cents[:, 1], kind="stable")
    dims = [(float(w), float(h)) for w, h in cents[order]]
    return AnchorSet(
        dims=dims,
        seed=seed,
        iterations=len(costs),
        mean_iou=float(best_iou.mean()),
        cost_history=costs,
    )


def load_boxes_from_labels(label_dir: str | Path, grid_size: int) -> np.ndarray:
    """(N, 2) (w, h) pairs from every label file, scaled to grid units.

    Files are visited in lexicographic order so the result is stable, and
    each is read by `data.read_label_file`, so a file `train` rejects is
    rejected here too.
    """
    from .data import LabelError, read_label_file  # imported here: data -> detection -> anchors

    root = Path(label_dir)
    files = sorted(root.glob("*.txt"))
    if not files:
        raise AnchorError(f"no label files found in {root}")
    sizes = []
    for path in files:
        try:
            sizes.append(read_label_file(path).boxes[:, 2:])
        except LabelError as exc:
            raise AnchorError(str(exc)) from exc
    return np.concatenate(sizes) * grid_size


def save_anchors(anchors: AnchorSet, path: str | Path) -> None:
    lines = [f"# mean_iou={anchors.mean_iou:.6f} seed={anchors.seed}"]
    lines += [f"{w:.4f} {h:.4f}" for w, h in anchors.dims]
    Path(path).write_text("\n".join(lines) + "\n")


def load_anchors(path: str | Path) -> AnchorSet:
    from .data import read_lines  # imported here: data -> detection -> anchors

    text = read_lines(path, AnchorError)
    mean_iou, seed = 0.0, 0
    dims: list[tuple[float, float]] = []
    for lineno, line in enumerate(text, start=1):
        line = line.strip()
        if not line:
            continue
        comment = line.startswith("#")
        if not comment and len(line.split()) != 2:
            raise AnchorError(f"{path}:{lineno}: expected 'w h', got {line!r}")
        try:
            if comment:
                for tok in line[1:].split():
                    if tok.startswith("mean_iou="):
                        mean_iou = float(tok.split("=", 1)[1])
                    elif tok.startswith("seed="):
                        seed = int(tok.split("=", 1)[1])
            else:
                w, h = (float(v) for v in line.split())
        except ValueError as exc:
            raise AnchorError(f"{path}:{lineno}: malformed number: {exc}") from exc
        if not comment:
            if not _valid_dims(w, h):
                raise AnchorError(f"{path}:{lineno}: anchor dims must be positive and finite, "
                                  f"got {line!r}")
            dims.append((w, h))
    if not dims:
        raise AnchorError(f"{path}: no anchor rows found")
    return AnchorSet(dims=dims, seed=seed, mean_iou=mean_iou)
