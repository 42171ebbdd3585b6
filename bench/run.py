#!/usr/bin/env python3
"""Benchmark of the dcspp-yolo detector: training, detection and evaluation.

    python3 bench/run.py --workload train_tiny --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`. Each
workload runs in a process of its own: this process writes the inputs a
user would already have (weight files), then starts the measuring process,
which sets up, runs one warm-up operation, checks its output against the
benchmark's own computations, and runs operations back to back, one at a
time, for --seconds. Every timed operation must reproduce the warm-up
output exactly, or it counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced operations and prints the per-layer metrics from the traced ones,
plus the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_tiny", "detect_416", "eval_dense")
# One BLAS thread: on two cores a second thread did not shorten a tiny
# training iteration but doubled its CPU time, and made runs noisier.
BLAS_THREADS = 1
WORKLOAD_TIMEOUT_S = 170


def fix_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    package = SRC / "dcspp_yolo"
    sys.path.insert(0, str(SRC))
    import dcspp_yolo

    if Path(dcspp_yolo.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: dcspp_yolo imported from {dcspp_yolo.__file__}, not {package}")


def blas_info() -> dict:
    """The BLAS thread count numpy's OpenBLAS actually uses, and its build."""
    import numpy as np

    info = {"numpy": np.__version__, "blas_threads": None, "openblas": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for suffix in ("64_", ""):  # ILP64 and LP64 builds
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                conf = getattr(lib, f"scipy_openblas_get_config{suffix}")
                conf.restype = ctypes.c_char_p
                info["blas_threads"] = get()
                info["openblas"] = conf().decode()
                break
    return info


# ---------------------------------------------------------------------------
# the measuring process


def measure(name: str, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, install_program_spans, per_layer
    from workloads import WORKLOADS, no_span

    wl = WORKLOADS[name](work, seed)
    tracer = Tracer()
    span = tracer.span if trace else no_span

    setup_s = []
    for rep in range(wl.setup_reps):
        if trace:
            install_program_spans(tracer)
        t0 = time.perf_counter()
        wl.setup(rep, span)
        setup_s.append(time.perf_counter() - t0)
        tracer.uninstall()

    wl.reset()
    reference_out = wl.op()
    problems = wl.check(reference_out)
    for p in problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)

    op_s: list[float] = []
    traced_s: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(op_s) > len(traced_s)
        wl.reset()
        if traced:
            tracer.op = f"op-{len(traced_s)}"
            install_program_spans(tracer)
        t0 = time.perf_counter()
        try:
            out = wl.op(span if traced else no_span)
        except Exception:  # an operation that raises is a failed one; keep measuring
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        tracer.uninstall()
        (traced_s if traced else op_s).append(dt)
        if problems or out != reference_out:
            failed += 1
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(op_s) == len(traced_s)):
            break

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "traced_s": traced_s,
        "images_per_op": wl.images_per_op,
        "attempted": len(op_s) + len(traced_s),
        "failed": failed,
        **blas_info(),
    }
    if trace:
        spans_path = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        result["per_layer"] = per_layer(tracer.spans, len(traced_s), len(setup_s))
        result["spans"] = str(spans_path.relative_to(ROOT))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


# ---------------------------------------------------------------------------
# the parent process


def stage(name: str, stage_name: str, work: Path, args, deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--stage", stage_name,
           "--workload", name, "--work", str(work), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # on timeout the child is killed and waited for before this raises
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {name} {stage_name} did not finish within {WORKLOAD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"bench: {name} {stage_name} exited with code {proc.returncode}")
    return proc


def run_workload(name: str, args) -> dict:
    # Preparing runs in a process of its own: a measuring process started
    # from a parent that once held a 416 model would inherit that parent's
    # peak resident memory in its own ru_maxrss.
    work_root = ROOT / ".bench_tmp"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        stage(name, "prepare", work, args, deadline)
        proc = stage(name, "measure", work, args, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(r: dict) -> dict[str, tuple[float, str]]:
    op_s = r["op_s"]
    return {
        "images_per_s": (r["images_per_op"] * len(op_s) / sum(op_s), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
        "setup_s": (statistics.median(r["setup_s"]), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def traced_metrics(r: dict) -> dict[str, tuple[float, str]]:
    plain = r["images_per_op"] * len(r["op_s"]) / sum(r["op_s"])
    traced = r["images_per_op"] * len(r["traced_s"]) / sum(r["traced_s"])
    return {
        **r["per_layer"],
        "trace.overhead_pct": (100.0 * (plain - traced) / plain, "%"),
        "trace.overhead_images_per_s": (plain - traced, "1/s"),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stage", choices=("prepare", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    fix_blas_threads()
    # this process stays free of numpy and the program, so that its own
    # peak memory stays below any workload's
    if not (SRC / "dcspp_yolo" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'dcspp_yolo'} not found; run from the repository root")
    if args.stage:
        import_program()
        if args.stage == "prepare":
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.work, args.seed).prepare()
        else:
            print(json.dumps(measure(args.workload, args.work, args.seed, args.seconds,
                                     bool(args.trace))))
        return

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        r = run_workload(name, args)
        print(f"# {name}: nproc={os.cpu_count()} blas_threads={r['blas_threads']} "
              f"numpy={r['numpy']} openblas={r['openblas']!r} "
              f"ops={r['attempted']} setups={len(r['setup_s'])}"
              + (f" spans={r['spans']}" if args.trace else ""))
        found = traced_metrics(r) if args.trace else end_to_end(r)
        for metric, (value, unit) in found.items():
            print(f"{name:<11} {metric:<32} {value:>14.6g} {unit}")
        print(f"{name:<11} {'attempted':<32} {r['attempted']:>14d}\n"
              f"{name:<11} {'failed':<32} {r['failed']:>14d}")
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in found.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += r["attempted"]
        failed += r["failed"]
    print(json.dumps({"correct": failed < attempted, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
