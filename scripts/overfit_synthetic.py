#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesize a shapes dataset, cluster
anchors, train the tiny preset until it overfits, then evaluate on the
training set and render annotated predictions.

Run from the repo root:

    python scripts/overfit_synthetic.py --out runs/overfit

Around five minutes on a desktop CPU. Expect the final loss to land
below 1% of the initial value and training-set mAP at or near 1.0.
"""

import argparse
import time
from fractions import Fraction
from pathlib import Path

from dcspp_yolo import ppm
from dcspp_yolo.anchors import kmeans_anchors, load_boxes_from_labels, save_anchors
from dcspp_yolo.data import image_to_tensor, render_detections
from dcspp_yolo.detection import detect_image
from dcspp_yolo.evaluation import evaluate, format_report
from dcspp_yolo.network import NetworkConfig, build_network
from dcspp_yolo.training import TrainConfig, synth_dataset, train, write_loss_log


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/overfit", help="output directory")
    ap.add_argument("--images", type=int, default=16)
    ap.add_argument("--image-size", type=int, default=96)
    ap.add_argument("--iterations", type=int, default=900)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    out = Path(args.out)
    data = out / "data"
    print(f"synthesizing {args.images} images into {data}")
    manifest = synth_dataset(args.images, image_size=args.image_size, seed=7, out_dir=data)

    grid = args.image_size // 32
    anchors = kmeans_anchors(load_boxes_from_labels(data, grid), 2, seed=3)
    save_anchors(anchors, out / "anchors.txt")
    print(f"anchors: {[(round(w, 2), round(h, 2)) for w, h in anchors.dims]} "
          f"(mean IoU {anchors.mean_iou:.3f})")

    cfg = NetworkConfig(
        input_size=args.image_size,
        num_classes=len(manifest.class_names),
        num_anchors=anchors.k,
        anchors=anchors,
        channel_scale=Fraction(1, 8),
    )
    net = build_network(cfg)
    net.init_weights(args.seed)

    # one full-dataset batch per iteration keeps batch-norm statistics
    # stationary, so inference matches training once running stats settle
    tcfg = TrainConfig(batch_size=args.images, epochs=args.iterations, seed=args.seed,
                       n_prior=12800, lr_drops=((400, 0.1), (500, 0.1)))
    t0 = time.time()
    result = train(net, manifest, tcfg, max_iterations=args.iterations)
    dt = time.time() - t0
    initial, final = result.rows[0].parts.total, result.rows[-1].parts.total
    print(f"trained {len(result.rows)} iterations in {dt / 60:.1f} min; "
          f"loss {initial:.4f} -> {final:.4f} ({final / initial:.2%} of initial)")

    net.save_weights(out / "model.weights")
    write_loss_log(result.rows, out / "loss.csv")

    report = evaluate(net, manifest)
    print(format_report(report, manifest.class_names))

    rendered = out / "rendered"
    rendered.mkdir(exist_ok=True)
    for img_path, _ in manifest.entries[:4]:
        img = ppm.ppm_read(img_path)
        dets = detect_image(net, image_to_tensor(img, cfg.input_size), 0.25, 0.45)
        ppm.ppm_write(rendered / Path(img_path).name, render_detections(img, dets))
    print(f"annotated samples in {rendered}")


if __name__ == "__main__":
    main()
