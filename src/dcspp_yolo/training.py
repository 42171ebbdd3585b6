"""Adam training loop, learning-rate schedule, light augmentation, and a
synthetic-shapes dataset generator for desk-scale experiments."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import ppm
from .data import (
    image_to_tensor,
    read_class_names,
    read_label_file,
    read_lines,
    write_class_names,
    write_label_file,
)
from .detection import decode_predictions
from .loss import Labels, LossParts, LossWeights, assign_targets, compute_loss
from .network import NetworkGraph, Param


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 100
    lr0: float = 1e-3
    lr_drops: tuple[tuple[int, float], ...] = ((400, 0.1), (500, 0.1))
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 5e-4
    seed: int = 0
    n_prior: int = 12800
    flip: bool = False
    crop: bool = False
    checkpoint_every: int = 0  # epochs between checkpoint callbacks; 0 = never

    def __post_init__(self) -> None:
        for name, low in (("batch_size", 1), ("epochs", 1), ("checkpoint_every", 0)):
            if getattr(self, name) < low:
                raise TrainingError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.lr0 <= 0:
            raise TrainingError(f"lr0 must be > 0, got {self.lr0}")


@dataclass
class DatasetManifest:
    """Image/label path pairs plus the class name list."""

    entries: list[tuple[Path, Path]]
    class_names: list[str]

    def __len__(self) -> int:
        return len(self.entries)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    root = path.parent
    lines = []
    for img, lab in manifest.entries:
        try:
            img_s = str(Path(img).relative_to(root))
            lab_s = str(Path(lab).relative_to(root))
        except ValueError:
            img_s, lab_s = str(img), str(lab)
        lines.append(f"{img_s}\t{lab_s}")
    path.write_text("\n".join(lines) + "\n")


def load_manifest(path: str | Path, classes_path: str | Path) -> DatasetManifest:
    path = Path(path)
    root = path.parent
    entries: list[tuple[Path, Path]] = []
    for lineno, line in enumerate(read_lines(path, TrainingError), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TrainingError(f"{path}:{lineno}: expected 'image<TAB>label', got {line!r}")
        entries.append((root / parts[0], root / parts[1]))
    if not entries:
        raise TrainingError(f"{path}: empty manifest")
    return DatasetManifest(entries=entries, class_names=read_class_names(classes_path))


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """Per-parameter first/second moments and the shared step counter."""

    def __init__(self) -> None:
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: int = 0


def adam_step(
    params: list[Param],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place.

    Decoupled weight decay applies to conv weights only, the parameters
    named '<node>.weights'; biases and batch norm affine parameters are
    never decayed.
    """
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p in params:
        g = grads.get(p.name)
        if g is None:
            continue
        g = np.asarray(g, dtype=p.array.dtype)
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.array)
            state.v[p.name] = np.zeros_like(p.array)
        m, v = state.m[p.name], state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.array[...] -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
        if cfg.weight_decay > 0 and p.name.endswith(".weights"):
            p.array[...] -= lr * cfg.weight_decay * p.array


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-constant schedule: each drop multiplies from its epoch on."""
    lr = cfg.lr0
    for drop_epoch, factor in cfg.lr_drops:
        if epoch >= drop_epoch:
            lr *= factor
    return lr


# ---------------------------------------------------------------------------
# augmentation


def hflip(image: np.ndarray, labels: Labels) -> tuple[np.ndarray, Labels]:
    boxes = labels.boxes.copy()
    boxes[:, 0] = 1.0 - boxes[:, 0]
    return image[:, ::-1].copy(), labels._replace(boxes=boxes)


def crop_to_window(
    image: np.ndarray,
    labels: Labels,
    ox: int,
    oy: int,
    cw: int,
    ch: int,
) -> tuple[np.ndarray, Labels]:
    """Extract a window (gray-padded where it leaves the image) and map the
    boxes into it, clipping; boxes cropped away entirely are dropped."""
    h, w = image.shape[:2]
    canvas = np.full((ch, cw, 3), 128, dtype=np.uint8)
    sx0, sx1 = max(0, ox), min(w, ox + cw)
    sy0, sy1 = max(0, oy), min(h, oy + ch)
    if sx1 > sx0 and sy1 > sy0:
        canvas[sy0 - oy:sy1 - oy, sx0 - ox:sx1 - ox] = image[sy0:sy1, sx0:sx1]
    x0, y0, x1, y1 = labels.corners().T
    x0 = np.maximum(x0 * w - ox, 0.0)
    x1 = np.minimum(x1 * w - ox, float(cw))
    y0 = np.maximum(y0 * h - oy, 0.0)
    y1 = np.minimum(y1 * h - oy, float(ch))
    keep = (x1 > x0) & (y1 > y0)
    boxes = np.stack([(x0 + x1) / 2 / cw, (y0 + y1) / 2 / ch, (x1 - x0) / cw, (y1 - y0) / ch],
                     axis=-1)
    return canvas, Labels(labels.class_ids[keep], boxes[keep])


def augment(
    image: np.ndarray,
    labels: Labels,
    rng: np.random.Generator,
    flip: bool = True,
    crop: bool = True,
) -> tuple[np.ndarray, Labels]:
    """Random crop with scale jitter in [0.8, 1.2] plus p=0.5 horizontal
    flip. With both flags off this is the identity."""
    if crop:
        h, w = image.shape[:2]
        s = rng.uniform(0.8, 1.2)
        cw = max(1, round(w / s))
        ch = max(1, round(h / s))
        lo_x, hi_x = min(0, w - cw), max(0, w - cw)
        lo_y, hi_y = min(0, h - ch), max(0, h - ch)
        ox, oy = (w - cw) // 2, (h - ch) // 2
        centres = labels.boxes[:, :2] * (w, h)
        for _ in range(10):
            cand_x = int(rng.integers(lo_x, hi_x + 1))
            cand_y = int(rng.integers(lo_y, hi_y + 1))
            # take the window if it keeps some box's centre, or if there is no box
            inside = (centres >= (cand_x, cand_y)) & (centres < (cand_x + cw, cand_y + ch))
            if not len(centres) or inside.all(axis=1).any():
                ox, oy = cand_x, cand_y
                break
        image, labels = crop_to_window(image, labels, ox, oy, cw, ch)
    if flip and rng.random() < 0.5:
        image, labels = hflip(image, labels)
    return image, labels


# ---------------------------------------------------------------------------
# synthetic dataset

SHAPE_CLASSES = ("circle", "square", "triangle")
_BASE_COLORS = {
    "circle": (220, 60, 50),
    "square": (70, 200, 80),
    "triangle": (70, 110, 230),
}


def _draw_shape(img: np.ndarray, kind: str, cx: int, cy: int, size: int,
                color: np.ndarray) -> np.ndarray:
    sz = img.shape[0]
    half = size // 2
    yy, xx = np.mgrid[0:sz, 0:sz]
    if kind == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half ** 2
    elif kind == "square":
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    elif kind == "triangle":
        # isoceles, apex up: width grows linearly from apex row to base row
        rel = (yy - (cy - half)) / max(size - 1, 1)
        hw = rel * half
        mask = (rel >= 0) & (rel <= 1) & (np.abs(xx - cx) <= hw)
    else:
        raise TrainingError(f"unknown shape class {kind!r}")
    img[mask] = color
    return mask


def synth_dataset(
    n: int,
    classes: tuple[str, ...] = SHAPE_CLASSES,
    image_size: int = 96,
    seed: int = 0,
    out_dir: str | Path = "synth",
) -> DatasetManifest:
    """Write n noise-background images of 1-3 colored shapes with exact
    bounding-box labels, a manifest, and a class list. Deterministic for a
    given seed."""
    if image_size <= 0 or image_size % 32 != 0:
        raise TrainingError(f"image_size must be a positive multiple of 32, got {image_size}")
    if not classes or not set(classes) <= set(SHAPE_CLASSES):
        raise TrainingError(f"classes must be a non-empty subset of {SHAPE_CLASSES}, got {classes}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    sz = image_size
    grid = sz // 32
    min_size, max_size = sz // 6, sz // 3
    min_sep = sz * 3 // 8

    entries: list[tuple[Path, Path]] = []
    for idx in range(n):
        img = rng.integers(0, 50, size=(sz, sz, 3)).astype(np.uint8)
        count = int(rng.integers(1, 4))
        centers: list[tuple[int, int]] = []
        cells: set[tuple[int, int]] = set()
        class_ids, boxes = [], []
        for _ in range(count):
            placed = False
            for _ in range(40):
                size = int(rng.integers(min_size, max_size + 1))
                half = size // 2
                cx = int(rng.integers(half + 2, sz - half - 2))
                cy = int(rng.integers(half + 2, sz - half - 2))
                cell = (min(cy * grid // sz, grid - 1), min(cx * grid // sz, grid - 1))
                far = all((cx - px) ** 2 + (cy - py) ** 2 >= min_sep ** 2 for px, py in centers)
                if cell not in cells and far:
                    placed = True
                    break
            if not placed:
                continue
            cls_idx = int(rng.integers(len(classes)))
            color = np.clip(
                np.asarray(_BASE_COLORS[classes[cls_idx]], dtype=np.int64)
                + rng.integers(-25, 26, size=3),
                0,
                255,
            ).astype(np.uint8)
            mask = _draw_shape(img, classes[cls_idx], cx, cy, size, color)
            ys, xs = np.nonzero(mask)
            x0, x1 = int(xs.min()), int(xs.max())
            y0, y1 = int(ys.min()), int(ys.max())
            class_ids.append(cls_idx)
            boxes.append(((x0 + x1 + 1) / 2 / sz, (y0 + y1 + 1) / 2 / sz,
                          (x1 - x0 + 1) / sz, (y1 - y0 + 1) / sz))
            centers.append((cx, cy))
            cells.add(cell)
        img_path = out_dir / f"img_{idx:04d}.ppm"
        lab_path = out_dir / f"img_{idx:04d}.txt"
        ppm.ppm_write(img_path, img)
        write_label_file(lab_path, Labels(np.array(class_ids, dtype=np.int64),
                                          np.array(boxes, dtype=np.float64).reshape(-1, 4)))
        entries.append((img_path, lab_path))

    manifest = DatasetManifest(entries=entries, class_names=list(classes))
    save_manifest(manifest, out_dir / "manifest.tsv")
    write_class_names(out_dir / "classes.names", manifest.class_names)
    return manifest


# ---------------------------------------------------------------------------
# training loop


class LogRow(NamedTuple):
    iteration: int
    epoch: int
    lr: float
    parts: LossParts


@dataclass
class TrainResult:
    rows: list[LogRow]
    images_seen: int

    @property
    def initial_loss(self) -> float:
        return self.rows[0].parts.total

    @property
    def final_loss(self) -> float:
        return self.rows[-1].parts.total


LOSS_LOG_HEADER = "iter,epoch,lr,loss,loss_noobj,loss_obj,loss_coord,loss_class,loss_prior"


def write_loss_log(rows: list[LogRow], path: str | Path) -> None:
    lines = [LOSS_LOG_HEADER]
    for r in rows:
        vals = ",".join(f"{v:.9g}" for v in r.parts.as_tuple())
        lines.append(f"{r.iteration},{r.epoch},{r.lr:.9g},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def train(
    net: NetworkGraph,
    manifest: DatasetManifest,
    cfg: TrainConfig,
    on_checkpoint: Callable[[int, NetworkGraph], None] | None = None,
    max_iterations: int = 0,
) -> TrainResult:
    """Run the optimization loop: augment, forward, loss, backward, Adam.

    The prior warm-up follows an images-seen counter against
    `cfg.n_prior`; the per-iteration loss log holds batch means of the
    weighted loss parts. A non-finite loss aborts with the offending
    iteration. Bit-reproducible for a fixed (seed, config, dataset).
    """
    if net.cfg.anchors is None:
        raise TrainingError("network config carries no anchors; training needs them")
    if max_iterations < 0:
        raise TrainingError(f"max_iterations must be >= 0, got {max_iterations}")
    weights = LossWeights(n_prior=cfg.n_prior)
    rng = np.random.default_rng(cfg.seed)
    params = net.parameters()
    state = AdamState()
    anchors = net.cfg.anchors
    size = net.cfg.input_size

    raw_images = [ppm.ppm_read(img) for img, _ in manifest.entries]
    truth_lists = [read_label_file(lab) for _, lab in manifest.entries]
    for (_, lab), labels in zip(manifest.entries, truth_lists):
        if (cid := labels.class_ids.max(initial=0)) >= net.cfg.num_classes:
            raise TrainingError(f"{lab}: class id {cid} out of range for {net.cfg.num_classes} classes")

    rows: list[LogRow] = []
    images_seen = 0
    iteration = 0
    done = False
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(len(manifest.entries))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            iteration += 1
            xs, batch_truths = [], []
            for i in batch:
                im, ts = augment(raw_images[i], truth_lists[i], rng, flip=cfg.flip, crop=cfg.crop)
                xs.append(image_to_tensor(im, size)[0])
                batch_truths.append(ts)
            x = np.stack(xs)
            raw = net.forward(x, training=True)

            preds = decode_predictions(raw, anchors)
            asg = assign_targets(batch_truths, preds, weights, images_seen=images_seen)
            images_seen += len(batch)
            parts, grad = compute_loss(preds, asg, weights)
            if not np.isfinite(parts.as_tuple()).all():
                raise TrainingError(f"non-finite loss at iteration {iteration}")

            # no name holds the gradients, so they are freed before the next forward
            adam_step(params, net.backward(grad.astype(raw.dtype)), state, lr, cfg)
            rows.append(LogRow(iteration=iteration, epoch=epoch, lr=lr, parts=parts))
            if max_iterations and iteration >= max_iterations:
                done = True
                break
        if on_checkpoint and cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            on_checkpoint(epoch, net)
        if done:
            break
    return TrainResult(rows=rows, images_seen=images_seen)
