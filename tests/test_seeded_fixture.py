"""Seeded outputs against the committed fixture (`tests/seeded_fixture.py`
regenerates it): byte for byte under the fixture's numpy and OpenBLAS
kernel, within the measured cross-kernel spread under another."""

import copy
import sys

import seeded_fixture


def test_seeded_outputs_match_fixture(tmp_path):
    fixture = seeded_fixture.load()
    fresh = seeded_fixture.seeded_outputs(tmp_path)
    print(f"seeded fixture: weights sha256 {fresh['weights_sha256']}, numpy {fresh['numpy']}, "
          f"openblas {fresh['openblas']!r}, same kernel as the fixture: "
          f"{seeded_fixture.same_kernel(fixture, fresh)}", file=sys.__stdout__)
    problems = seeded_fixture.compare(fixture, fresh)
    assert not problems, problems


def test_same_kernel_comparison_is_exact():
    fixture = seeded_fixture.load()
    assert seeded_fixture.compare(fixture, copy.deepcopy(fixture)) == []
    nudged = copy.deepcopy(fixture)
    nudged["evaluate"]["map"] += 1e-12
    assert seeded_fixture.compare(fixture, nudged) == ["evaluate differs"]


def test_cross_kernel_comparison_holds_the_measured_spread():
    fixture = seeded_fixture.load()
    other = copy.deepcopy(fixture)
    other["openblas"] += " (another kernel)"
    other["weights_sha256"] = "0" * 64
    assert seeded_fixture.compare(fixture, other) == []

    header, *rows = fixture["loss_log"].splitlines()
    for scale, expected in ((1.01, []), (1.2, ["loss_vs_total"])):
        moved = []
        for row in rows:
            cols = row.split(",")
            moved.append(",".join([*cols[:3], *(f"{float(v) * scale:.9g}" for v in cols[3:])]))
        other["loss_log"] = "\n".join([header, *moved]) + "\n"
        problems = seeded_fixture.compare(fixture, other)
        assert [p.split(":")[0] for p in problems] == expected
