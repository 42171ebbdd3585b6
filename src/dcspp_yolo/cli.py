"""Command-line surface: dataset synthesis, anchor clustering, training,
detection, evaluation, and the gradient/shape verification commands."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import gradcheck as gc
from . import ppm
from .anchors import (AnchorError, AnchorSet, kmeans_anchors, load_anchors, load_boxes_from_labels,
                      save_anchors)
from .data import LabelError, image_to_tensor, render_detections, unletterbox_boxes
from .detection import DetectionError, detect_image, format_detections
from .evaluation import EvalError, evaluate, format_report, report_csv
from .layers import LayerError
from .loss import LossError
from .network import (
    NetworkConfig,
    NetworkError,
    REFERENCE_SHAPES_416,
    build_network,
    read_weight_header,
)
from .training import (
    TrainConfig,
    TrainingError,
    load_manifest,
    synth_dataset,
    train,
    write_loss_log,
)

_ERRORS = (
    AnchorError,
    DetectionError,
    EvalError,
    LabelError,
    LayerError,
    LossError,
    NetworkError,
    TrainingError,
    ppm.PPMError,
    OSError,
)


def _parse_scale(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad channel scale {text!r}: {exc}") from exc


def _parse_drop(text: str) -> tuple[int, float]:
    try:
        epoch, factor = text.split(":")
        return int(epoch), float(factor)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lr drop {text!r}, expected EPOCH:FACTOR") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcspp-yolo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shapes dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--num", type=int, default=16)
    p.add_argument("--image-size", type=int, default=96)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", default="circle,square,triangle")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("anchors", help="cluster label boxes into anchor priors")
    p.add_argument("--labels", required=True, help="directory of label .txt files")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--input-size", type=int, default=416)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--log", help="loss log CSV to write")
    p.add_argument("--input-size", type=int, default=96)
    p.add_argument("--channel-scale", type=_parse_scale, default=Fraction(1, 8))
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.lr0)
    p.add_argument("--lr-drop", type=_parse_drop, action="append", default=None,
                   metavar="EPOCH:FACTOR")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-prior", type=int, default=TrainConfig.n_prior)
    p.add_argument("--max-iterations", type=int, default=0)
    p.add_argument("--flip", action="store_true")
    p.add_argument("--crop", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="EPOCHS")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run detection on one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--conf", type=float, default=0.25)
    p.add_argument("--nms", type=float, default=0.45)
    p.add_argument("--out", help="detections text file (default: stdout)")
    p.add_argument("--render", help="annotated PPM to write")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="mAP over a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--conf", type=float, default=0.005)
    p.add_argument("--nms", type=float, default=0.45)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--csv", help="also write a CSV report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("shapecheck", help="layer-by-layer output shape table")
    p.add_argument("--input-size", type=int, default=416)
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--anchors-k", type=int, default=5)
    p.add_argument("--channel-scale", type=_parse_scale, default=Fraction(1))
    p.set_defaults(func=cmd_shapecheck)

    return parser


def cmd_synth(args) -> int:
    classes = tuple(c.strip() for c in args.classes.split(",") if c.strip())
    manifest = synth_dataset(args.num, classes, args.image_size, args.seed, args.out)
    print(f"wrote {len(manifest)} images to {args.out}")
    return 0


def cmd_anchors(args) -> int:
    grid = args.input_size // 32
    boxes = load_boxes_from_labels(args.labels, grid)
    anchors = kmeans_anchors(boxes, args.k, seed=args.seed, max_iter=args.max_iter)
    save_anchors(anchors, args.out)
    print(f"k={anchors.k} mean_iou={anchors.mean_iou:.4f} iterations={anchors.iterations}")
    return 0


def cmd_train(args) -> int:
    manifest = load_manifest(args.manifest, args.classes)
    anchors = load_anchors(args.anchors)
    cfg = NetworkConfig(
        input_size=args.input_size,
        num_classes=len(manifest.class_names),
        num_anchors=anchors.k,
        anchors=anchors,
        channel_scale=args.channel_scale,
    )
    net = build_network(cfg)
    net.init_weights(args.seed)
    drops = tuple(args.lr_drop) if args.lr_drop else TrainConfig.lr_drops
    tcfg = TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr0=args.lr,
        lr_drops=drops,
        seed=args.seed,
        n_prior=args.n_prior,
        flip=args.flip,
        crop=args.crop,
        checkpoint_every=args.checkpoint_every,
    )
    out_path = Path(args.out)

    def checkpoint(epoch: int, graph) -> None:
        graph.save_weights(out_path.with_suffix(f".epoch{epoch}{out_path.suffix}"))

    t0 = time.time()
    result = train(
        net,
        manifest,
        tcfg,
        on_checkpoint=checkpoint if args.checkpoint_every else None,
        max_iterations=args.max_iterations,
    )
    net.save_weights(out_path)
    if args.log:
        write_loss_log(result.rows, args.log)
    print(
        f"trained {len(result.rows)} iterations in {time.time() - t0:.1f}s; "
        f"loss {result.initial_loss:.4f} -> {result.final_loss:.4f}"
    )
    return 0


def _load_model(model_path: str):
    """The network a weight file describes, its anchors included, loaded from it."""
    header = read_weight_header(model_path)
    if header.anchors is None:
        raise NetworkError(f"{model_path}: weight file records no anchors to decode boxes with")
    cfg = NetworkConfig(
        input_size=header.input_size,
        num_classes=header.num_classes,
        num_anchors=header.num_anchors,
        anchors=AnchorSet(list(header.anchors)),
        channel_scale=header.channel_scale,
    )
    net = build_network(cfg)
    net.load_weights(model_path)
    return net


def cmd_detect(args) -> int:
    net = _load_model(args.model)
    img = ppm.ppm_read(args.image)
    h, w = img.shape[:2]
    size = net.cfg.input_size
    dets = detect_image(net, image_to_tensor(img, size), args.conf, args.nms)
    dets = replace(dets, boxes=unletterbox_boxes(dets.boxes, w, h, size))
    text = format_detections(dets)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.render:
        ppm.ppm_write(args.render, render_detections(img, dets))
    print(f"{len(dets)} detections", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    net = _load_model(args.model)
    manifest = load_manifest(args.manifest, args.classes)
    result = evaluate(net, manifest, args.conf, args.nms, args.iou)
    sys.stdout.write(format_report(result, manifest.class_names))
    if args.csv:
        Path(args.csv).write_text(report_csv(result, manifest.class_names))
    return 0


def cmd_gradcheck(args) -> int:
    thresholds = {"network": 1e-3, "loss": 1e-5}
    failed = False
    for name, err in gc.run_all().items():
        limit = thresholds.get(name, 1e-4)
        ok = err < limit
        failed |= not ok
        print(f"{name:<14} max_rel_err={err:.3e} limit={limit:.0e} {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def cmd_shapecheck(args) -> int:
    cfg = NetworkConfig(
        input_size=args.input_size,
        num_classes=args.classes,
        num_anchors=args.anchors_k,
        channel_scale=args.channel_scale,
    )
    net = build_network(cfg)
    shapes = dict(net.infer_shapes())
    reference_mode = args.input_size == 416 and args.channel_scale == 1
    expected = dict((name, (c, hw, hw)) for name, c, hw in REFERENCE_SHAPES_416)
    expected["conv31"] = (cfg.detect_channels, 13, 13)
    bad = 0
    for name, (c, h, w) in shapes.items():
        line = f"{name:<10} {h:>4} x {w:<4} x {c}"
        if reference_mode and name in expected:
            ok = (c, h, w) == expected[name]
            bad += not ok
            line += "   ok" if ok else f"   MISMATCH (expected {expected[name]})"
        print(line)
    if reference_mode:
        missing = [n for n in expected if n not in shapes]
        if missing:
            print(f"missing layers: {missing}")
            bad += len(missing)
        print("shape table matches the reference layout" if not bad
              else f"{bad} mismatches against the reference layout")
        return 1 if bad else 0
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
