"""Seeded outputs of the tiny preset, and the script that records them.

    PYTHONPATH=src python tests/seeded_fixture.py           # compare with the fixture
    PYTHONPATH=src python tests/seeded_fixture.py --write   # regenerate it

The outputs are those of the acceptance tiny preset after 12 training
iterations:
- the loss log, as `write_loss_log` writes it (9 significant digits);
- the text of `dcspp-yolo detect --out` at conf 0.005 on the first
  training image;
- `evaluate`'s per-class AP and precision-recall points over the
  training set.

Next to them the fixture records the SHA-256 of the weight file, numpy's
version and the OpenBLAS build string, which names the CPU kernel
OpenBLAS picked at run time. Float32 GEMM rounds differently under
another kernel, and 12 iterations of training carry that into every
output. So the outputs are compared exactly when numpy and the OpenBLAS
string match the fixture's, and within `CROSS_KERNEL` when they do not.
`tests/test_seeded_fixture.py` runs the comparison.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from dcspp_yolo.cli import main as cli_main
from dcspp_yolo.evaluation import evaluate
from dcspp_yolo.training import write_loss_log

from test_acceptance import _train_tiny

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "seeded_tiny.json"
ITERATIONS = 12
DETECT_CONF = 0.005

# Tolerances against a fixture recorded under another numpy or OpenBLAS
# kernel: two to three times the largest spread measured between a fixture
# recorded under OpenBLAS's SkylakeX kernel and runs under its Haswell,
# Sandybridge and Nehalem kernels, on one machine (numpy 2.4.6, OpenBLAS
# 0.3.31). The largest measured spread is in the comments:
CROSS_KERNEL = {
    "loss_vs_total": 0.05,  # 0.0202: a loss-log value's difference over its row's total loss
    "ap": 0.02,             # 0.0087: a class's AP, absolute
    "detect_count": 0.125,  # 0: the number of detections, relative (2 of the 16 here)
    "top_score": 0.002,     # 0.00102: the highest detection score, absolute
}


def openblas_config() -> str | None:
    """The build string of numpy's OpenBLAS, which ends in the CPU kernel
    it chose at run time (e.g. "... SkylakeX MAX_THREADS=64"), or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for suffix in ("64_", ""):  # ILP64 and LP64 builds
        conf = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        if conf is not None:
            conf.argtypes, conf.restype = [], ctypes.c_char_p
            return conf().decode()
    return None


def seeded_outputs(workdir: Path) -> dict:
    """Train the tiny preset for ITERATIONS seeded iterations in `workdir`
    and return its outputs in the fixture's layout."""
    workdir = Path(workdir)
    net, manifest, result = _train_tiny(workdir, iterations=ITERATIONS)
    weights, log, dets = (workdir / name for name in ("w.weights", "loss.csv", "dets.txt"))
    net.save_weights(weights)
    write_loss_log(result.rows, log)
    image = manifest.entries[0][0]
    cli_main(["detect", "--model", str(weights), "--image", str(image),
              "--conf", str(DETECT_CONF), "--out", str(dets)])
    ev = evaluate(net, manifest)
    return {
        "numpy": np.__version__,
        "openblas": openblas_config(),
        "weights_sha256": hashlib.sha256(weights.read_bytes()).hexdigest(),
        "loss_log": log.read_text(),
        "detect": dets.read_text(),
        "evaluate": {
            "map": ev.map,
            "per_class": {str(cid): {"ap": cr.ap, "pr_points": [list(p) for p in cr.pr_points]}
                          for cid, cr in sorted(ev.per_class.items())},
        },
    }


def _loss_rows(text: str) -> np.ndarray:
    """The loss log's numeric columns: iter, epoch, lr, total, the parts."""
    return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])


def _detect_rows(text: str) -> np.ndarray:
    """`class_id score x_min y_min x_max y_max` lines as an (N, 6) array."""
    return np.array([[float(v) for v in line.split()] for line in text.splitlines()]).reshape(-1, 6)


def differences(fixture: dict, fresh: dict) -> dict[str, float]:
    """The largest difference of each output, in the units CROSS_KERNEL uses."""
    a, b = _loss_rows(fixture["loss_log"]), _loss_rows(fresh["loss_log"])
    out = {"loss_vs_total": np.inf}
    if a.shape == b.shape and (a[:, :3] == b[:, :3]).all():
        out["loss_vs_total"] = float((np.abs(a[:, 3:] - b[:, 3:]) / a[:, 3:4]).max())
    fa, fb = fixture["evaluate"]["per_class"], fresh["evaluate"]["per_class"]
    out["ap"] = (max(abs(fa[c]["ap"] - fb[c]["ap"]) for c in fa)
                 if fa.keys() == fb.keys() else np.inf)
    da, db = _detect_rows(fixture["detect"]), _detect_rows(fresh["detect"])
    out["detect_count"] = abs(len(da) - len(db)) / max(len(da), 1)
    out["top_score"] = (abs(da[0, 1] - db[0, 1]) if len(da) and len(db)
                        else float(len(da) != len(db)))
    return out


def same_kernel(fixture: dict, fresh: dict) -> bool:
    return (fixture["numpy"], fixture["openblas"]) == (fresh["numpy"], fresh["openblas"])


def compare(fixture: dict, fresh: dict) -> list[str]:
    """What differs from the fixture beyond its tolerance: nothing at all
    under the fixture's numpy and OpenBLAS kernel, CROSS_KERNEL under another."""
    if same_kernel(fixture, fresh):
        return [f"{key} differs" for key in ("weights_sha256", "loss_log", "detect", "evaluate")
                if fixture[key] != fresh[key]]
    return [f"{key}: {diff:.3g} > {CROSS_KERNEL[key]}"
            for key, diff in differences(fixture, fresh).items() if not diff <= CROSS_KERNEL[key]]


def load() -> dict:
    return json.loads(FIXTURE.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="regenerate the fixture")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = seeded_outputs(Path(tmp))
    print(f"weights sha256 {fresh['weights_sha256']}  numpy {fresh['numpy']}  "
          f"openblas {fresh['openblas']!r}")
    if FIXTURE.exists():
        old = load()
        print("largest differences from the fixture:",
              {k: float(f"{v:.3g}") for k, v in differences(old, fresh).items()})
        problems = compare(old, fresh)
        print("matches the fixture" if not problems else "; ".join(problems))
    else:
        problems = ["no fixture"]
    if args.write:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {FIXTURE}")
        return 0
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
