"""Every committed speed record at the repository root parses and says what
was measured, where, and at which commit. A record is named
`BENCH_<workload>.json`, or `BENCH_<workload>.<tag>.json` for a later
record of the same workload, so that earlier ones stay."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MACHINE_KEYS = {"nproc", "blas_threads", "numpy", "openblas"}
FINAL_LINE_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_runs_machine_and_commit(path):
    record = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_").split(".")[0]
    assert record["workload"] == workload
    assert MACHINE_KEYS <= record.keys()
    assert record["commit"]["parent"] and record["commit"]["change"]
    assert record["command"].startswith("python3 bench/run.py")
    runs = record["runs"]
    # at least three alternating parent/change pairs, each run's final JSON
    # line as printed: `--workload all` prefixes each metric with its
    # workload, a single-workload run prints the bare name
    for side in ("parent", "change"):
        assert sum(run["side"] == side for run in runs) >= 3, side
    for run in runs:
        assert FINAL_LINE_KEYS <= run["final_line"].keys()
        assert run["final_line"]["failed"] == 0
        assert {"images_per_s", f"{workload}.images_per_s"} & run["final_line"]["metrics"].keys()
