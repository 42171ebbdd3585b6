"""Single-shot object detector with a dense-connection backbone, a
stride-1 spatial-pyramid-pooling block, and a reorg passthrough head;
pure numpy, CPU only, trainable from scratch at desk scale."""

from .anchors import AnchorSet, kmeans_anchors
from .detection import BBox, Detection, Detections, decode, decode_predictions, detect_image, iou_matrix, nms
from .evaluation import average_precision, evaluate, match_detections
from .loss import Labels, assign_targets, compute_loss
from .network import NetworkConfig, NetworkGraph, build_network
from .training import TrainConfig, adam_step, augment, lr_at, synth_dataset, train

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "BBox",
    "Detection",
    "Detections",
    "Labels",
    "NetworkConfig",
    "NetworkGraph",
    "TrainConfig",
    "adam_step",
    "assign_targets",
    "augment",
    "average_precision",
    "build_network",
    "compute_loss",
    "decode",
    "decode_predictions",
    "detect_image",
    "evaluate",
    "iou_matrix",
    "kmeans_anchors",
    "lr_at",
    "match_detections",
    "nms",
    "synth_dataset",
    "train",
]
