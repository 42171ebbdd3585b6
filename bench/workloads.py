"""The three benchmark workloads.

Each workload has a `prepare` step that writes what a user already has
(weight files), run in a process of its own and never timed; a `setup`,
which is what a user pays before the first operation; one operation
`op`; and `check`, which compares an operation's output with
computations made apart from the program. The benchmark seed makes
every image the program receives.
"""

from __future__ import annotations

import math
import shutil
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from dcspp_yolo import data, detection, evaluation, ppm
from dcspp_yolo.anchors import AnchorSet, kmeans_anchors, load_boxes_from_labels
from dcspp_yolo.network import NetworkConfig, build_network
from dcspp_yolo.training import TrainConfig, load_manifest, synth_dataset, train

import reference

# The weight files stand for a trained model, which a user has and does not
# vary, so they come from this fixed seed whatever the benchmark seed.
MODEL_SEED = 0

# YOLOv2 VOC anchors (grid units at 13x13), the prior set of the 416 builds
VOC_ANCHORS = AnchorSet(dims=[(1.3221, 1.73145), (3.19275, 4.00944), (5.05587, 8.09892),
                              (9.47112, 4.84053), (11.2364, 10.0071)])


def no_span(_name):
    return nullcontext()


class Workload:
    name = ""
    images_per_op = 1
    setup_reps = 1

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        """Write the inputs a user already has; not timed."""

    def setup(self, rep: int, span=no_span) -> None:
        raise NotImplementedError

    def op(self, span=no_span):
        raise NotImplementedError

    def reset(self) -> None:
        """Undo what an operation changed, before the next one; not timed."""

    def check(self, out) -> list[str]:
        """Problems found in an operation's output by computations made
        apart from the program; empty when it is correct."""
        raise NotImplementedError

    def _rep_dir(self, rep: int) -> Path:
        # a fresh directory per set-up so every one writes new files; the
        # previous one is removed here, before the timer starts
        if rep:
            shutil.rmtree(self.work / f"setup-{rep - 1}", ignore_errors=True)
        return self.work / f"setup-{rep}"


class TrainTiny(Workload):
    """The tiny preset: input 96, channel scale 1/8, K=2, C=3, one batch of
    all 16 images; one operation is a `train()` of ITERATIONS iterations
    from freshly seeded weights."""

    name = "train_tiny"
    ITERATIONS = 3
    IMAGES = 16
    images_per_op = ITERATIONS * IMAGES
    setup_reps = 15

    def setup(self, rep, span=no_span):
        out = self._rep_dir(rep)
        with span("training.synth"):
            self.manifest = synth_dataset(self.IMAGES, image_size=96, seed=self.seed, out_dir=out)
        with span("anchors.kmeans"):
            anchors = kmeans_anchors(load_boxes_from_labels(out, 3), 2, seed=self.seed)
        self.net = build_network(NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                                               anchors=anchors, channel_scale=Fraction(1, 8)))
        self.net.init_weights(self.seed)

    def reset(self) -> None:
        self.net.init_weights(self.seed)

    def op(self, span=no_span):
        cfg = TrainConfig(batch_size=self.IMAGES, epochs=self.ITERATIONS, seed=self.seed)
        with span("training.train"):
            result = train(self.net, self.manifest, cfg, max_iterations=self.ITERATIONS)
        return tuple((r.iteration, r.epoch, r.lr, tuple(map(float, r.parts.as_tuple())))
                     for r in result.rows)

    def check(self, out):
        problems = []
        if len(out) != self.ITERATIONS:
            problems.append(f"{len(out)} log rows, expected {self.ITERATIONS}")
        if not all(math.isfinite(v) for row in out for v in row[3]):
            problems.append("non-finite loss part")
        if out and not out[-1][3][0] < out[0][3][0]:
            problems.append(f"loss did not fall: {out[0][3][0]} -> {out[-1][3][0]}")
        return problems


def _dets(dets) -> tuple:
    return tuple((d.class_id, d.score, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
                 for d in dets)


class Detect416(Workload):
    """The reference VOC build (input 416, channel scale 1, C=20, K=5) on
    one synthetic 416 image at conf 0.25, NMS 0.45; one operation goes from
    the PPM file to un-letterboxed detections."""

    name = "detect_416"
    SIZE = 416
    CONF, NMS = 0.25, 0.45
    setup_reps = 5

    def _cfg(self) -> NetworkConfig:
        return NetworkConfig(input_size=self.SIZE, num_classes=20, num_anchors=5,
                             anchors=VOC_ANCHORS, channel_scale=Fraction(1))

    @property
    def image(self) -> Path:
        return self.work / "image" / "img_0000.ppm"

    def prepare(self):
        synth_dataset(1, image_size=self.SIZE, seed=self.seed, out_dir=self.work / "image")
        net = build_network(self._cfg())
        net.init_weights(MODEL_SEED)
        net.save_weights(self.work / "model.weights")

    def setup(self, rep, span=no_span):
        self.net = None  # release the previous model before loading the next
        net = build_network(self._cfg())
        net.load_weights(self.work / "model.weights")
        self.net = net

    def op(self, span=no_span):
        img = ppm.ppm_read(self.image)
        h, w = img.shape[:2]
        x = data.image_to_tensor(img, self.SIZE)
        kept = detection.detect_image(self.net, x, self.CONF, self.NMS)
        final = [detection.Detection(box=data.unletterbox_box(d.box, w, h, self.SIZE),
                                     class_id=d.class_id, score=d.score) for d in kept]
        return _dets(kept), _dets(final)

    def check(self, out):
        kept, final = out
        img = ppm.ppm_read(self.image)
        h, w = img.shape[:2]
        x = data.image_to_tensor(img, self.SIZE)
        problems = []
        raw = self.net.forward(x).data
        size = float(self.SIZE)
        cands = detection.decode(raw, VOC_ANCHORS, size, size, self.CONF)
        cls, score, boxes = reference.decode(raw, VOC_ANCHORS.as_array(), size, size, self.CONF)
        got = np.array([[d.class_id, d.score, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max]
                        for d in cands]).reshape(-1, 6)
        want = np.column_stack([cls, score, boxes])
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=1e-9):
            problems.append(f"decode: {len(got)} candidates differ from the reference ({len(want)})")
        else:
            keep = reference.greedy_nms(got[:, 0], got[:, 1], got[:, 2:], self.NMS)
            if kept != tuple((int(r[0]), *r[1:]) for r in got[keep].tolist()):
                problems.append(f"nms: kept {len(kept)}, reference keeps {len(keep)}")
        if not kept:
            problems.append("no detections")
        f = np.array(final).reshape(-1, 6)
        if not ((f[:, 2] >= 0) & (f[:, 4] <= w) & (f[:, 3] >= 0) & (f[:, 5] <= h)).all():
            problems.append("a box leaves the image")
        if (np.diff(f[:, 1]) > 0).any():
            problems.append("detections not sorted by score")
        return problems


class EvalDense(Workload):
    """`evaluate` at conf 0.005 over IMAGES synthetic 416 images of the three
    shape classes, channel scale 1/8, K=5: every one of the 845 slots is a
    candidate, so decode, NMS and matching carry a large share."""

    name = "eval_dense"
    SIZE = 416
    IMAGES = 8
    images_per_op = IMAGES
    setup_reps = 15
    CONF, NMS, IOU = 0.005, 0.45, 0.5

    def _cfg(self) -> NetworkConfig:
        return NetworkConfig(input_size=self.SIZE, num_classes=3, num_anchors=5,
                             anchors=VOC_ANCHORS, channel_scale=Fraction(1, 8))

    def prepare(self):
        net = build_network(self._cfg())
        net.init_weights(MODEL_SEED)
        net.save_weights(self.work / "model.weights")

    def setup(self, rep, span=no_span):
        out = self._rep_dir(rep)
        with span("training.synth"):
            synth_dataset(self.IMAGES, image_size=self.SIZE, seed=self.seed, out_dir=out)
        self.manifest = load_manifest(out / "manifest.tsv", out / "classes.names")
        self.net = build_network(self._cfg())
        self.net.load_weights(self.work / "model.weights")

    def op(self, span=no_span):
        with span("evaluation.evaluate"):
            res = evaluation.evaluate(self.net, self.manifest, self.CONF, self.NMS, self.IOU)
        return res.map, tuple((c, r.ap, r.num_truths, len(r.pr_points))
                              for c, r in sorted(res.per_class.items()))

    def check(self, out):
        def images():
            for img_path, lab_path in self.manifest.entries:
                img = ppm.ppm_read(img_path)
                h, w = img.shape[:2]
                raw = self.net.forward(data.image_to_tensor(img, self.SIZE)).data
                yield raw, w, h, reference.read_truths(Path(lab_path).read_text(), w, h)

        want_map, want = reference.mean_ap(images(), VOC_ANCHORS.as_array(), self.SIZE,
                                           self.CONF, self.NMS, self.IOU)
        got_map, got = out
        problems = []
        if not math.isclose(got_map, want_map, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"mAP {got_map} != reference {want_map}")
        got_cls = {c: (ap, n, k) for c, ap, n, k in got}
        for c, (ap, n, k) in want.items():
            g = got_cls.get(c)
            if g is None or g[1:] != (n, k) or not math.isclose(g[0], ap, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"class {c}: {g} != reference {(ap, n, k)}")
        if set(got_cls) != set(want):
            problems.append(f"classes {sorted(got_cls)} != reference {sorted(want)}")
        return problems


WORKLOADS = {w.name: w for w in (TrainTiny, Detect416, EvalDense)}
