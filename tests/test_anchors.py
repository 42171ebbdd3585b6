import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcspp_yolo.anchors import (
    AnchorError,
    AnchorSet,
    kmeans_anchors,
    load_anchors,
    load_boxes_from_labels,
    save_anchors,
    shape_iou_matrix,
)


# -- distance ----------------------------------------------------------------


def iou_dist(box: tuple[float, float], centroid: tuple[float, float]) -> float:
    """Scalar oracle: 1 - IoU of co-centered (w, h) shapes; 0 iff the
    shapes are identical."""
    (bw, bh), (cw, ch) = box, centroid
    if bw <= 0 or bh <= 0 or cw <= 0 or ch <= 0:
        raise AnchorError(f"boxes must have positive dims, got {box} vs {centroid}")
    inter = min(bw, cw) * min(bh, ch)
    return 1.0 - inter / (bw * bh + cw * ch - inter)


def test_iou_dist_identical_shapes():
    assert iou_dist((3, 3), (3, 3)) == 0.0


def test_iou_dist_nested_squares():
    # co-centered: inter 4, union 16
    assert iou_dist((2, 2), (4, 4)) == pytest.approx(0.75)


def test_iou_dist_crossed_rectangles():
    # inter 1, union 7
    assert iou_dist((1, 4), (4, 1)) == pytest.approx(6 / 7)


def test_iou_dist_rejects_nonpositive():
    with pytest.raises(AnchorError):
        iou_dist((0, 1), (1, 1))
    with pytest.raises(AnchorError):
        iou_dist((1, 1), (1, -2))


pos = st.floats(0.01, 100.0, allow_nan=False)


@given(pos, pos, pos, pos)
@settings(max_examples=100)
def test_iou_dist_symmetry(w1, h1, w2, h2):
    assert iou_dist((w1, h1), (w2, h2)) == pytest.approx(iou_dist((w2, h2), (w1, h1)))


@given(st.lists(st.tuples(pos, pos), min_size=1, max_size=4),
       st.lists(st.tuples(pos, pos), min_size=1, max_size=4))
@settings(max_examples=100)
def test_shape_iou_matrix_equals_iou_dist_oracle(a, b):
    got = 1.0 - shape_iou_matrix(np.array(a), np.array(b))
    assert got.tolist() == [[iou_dist(x, y) for y in b] for x in a]


@given(pos, pos, pos, pos, st.floats(0.1, 10.0))
@settings(max_examples=100)
def test_iou_dist_scale_invariance(w1, h1, w2, h2, c):
    d1 = iou_dist((w1, h1), (w2, h2))
    d2 = iou_dist((w1 * c, h1 * c), (w2 * c, h2 * c))
    assert d1 == pytest.approx(d2, abs=1e-9)


# -- clustering -----------------------------------------------------------------


def test_identical_boxes_k1():
    out = kmeans_anchors([(2.0, 3.0)] * 10, 1, seed=0)
    assert out.dims == [(2.0, 3.0)]
    assert out.mean_iou == pytest.approx(1.0)


def test_two_separated_clusters_recovered():
    boxes = [(1.0, 1.0)] * 10 + [(8.0, 8.0)] * 10
    out = kmeans_anchors(boxes, 2, seed=0)
    assert sorted(out.dims) == [(1.0, 1.0), (8.0, 8.0)]


def test_fewer_boxes_than_k():
    with pytest.raises(AnchorError):
        kmeans_anchors([(1, 1), (2, 2)], 3)


def test_converged_assignment_is_a_fixpoint():
    rng = np.random.default_rng(12)
    boxes = rng.uniform(0.5, 8.0, (30, 2))
    out = kmeans_anchors(boxes, 3, seed=5)
    cents = np.asarray(out.dims)
    # one manual Lloyd step from the returned centroids changes nothing
    d = np.zeros((len(boxes), 3))
    for i, b in enumerate(boxes):
        for j in range(3):
            d[i, j] = iou_dist(tuple(b), tuple(cents[j]))
    assign = d.argmin(axis=1)
    new_cents = np.array([boxes[assign == j].mean(axis=0) for j in range(3)])
    assert np.allclose(sorted(map(tuple, new_cents)), sorted(map(tuple, cents)), atol=1e-9)


def test_cost_history_non_increasing():
    rng = np.random.default_rng(100)
    for trial in range(20):
        n = int(rng.integers(10, 60))
        boxes = rng.uniform(0.2, 10.0, (n, 2))
        out = kmeans_anchors(boxes, int(rng.integers(1, 6)), seed=trial)
        costs = out.cost_history
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_mean_best_iou_nondecreasing_in_k():
    rng = np.random.default_rng(31)
    boxes = rng.uniform(0.3, 9.0, (60, 2))
    best = []
    for k in range(1, 6):
        best.append(max(kmeans_anchors(boxes, k, seed=s).mean_iou for s in range(5)))
    assert all(b >= a - 1e-9 for a, b in zip(best, best[1:]))


def test_anchors_sorted_by_area():
    rng = np.random.default_rng(8)
    boxes = rng.uniform(0.2, 10.0, (40, 2))
    out = kmeans_anchors(boxes, 4, seed=2)
    areas = [w * h for w, h in out.dims]
    assert areas == sorted(areas)


def test_deterministic_for_seed():
    rng = np.random.default_rng(9)
    boxes = rng.uniform(0.2, 10.0, (40, 2))
    a = kmeans_anchors(boxes, 3, seed=4)
    b = kmeans_anchors(boxes, 3, seed=4)
    assert a.dims == b.dims


# -- label loading -----------------------------------------------------------------


def test_load_boxes_scaling(tmp_path):
    (tmp_path / "a.txt").write_text("0 0.5 0.5 0.25 0.5\n")
    boxes = load_boxes_from_labels(tmp_path, 13)
    assert boxes.tolist() == [[0.25 * 13, 0.5 * 13]]


def test_load_boxes_empty_dir(tmp_path):
    with pytest.raises(AnchorError, match="no label files"):
        load_boxes_from_labels(tmp_path, 13)


def test_load_boxes_lexicographic_order(tmp_path):
    (tmp_path / "b.txt").write_text("0 0.5 0.5 0.2 0.2\n")
    (tmp_path / "a.txt").write_text("0 0.5 0.5 0.1 0.1\n")
    boxes = load_boxes_from_labels(tmp_path, 10)
    assert boxes.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_load_boxes_malformed_line_reports_location(tmp_path):
    (tmp_path / "a.txt").write_text("0 0.5 0.5 0.25 0.5\nbroken line\n")
    with pytest.raises(AnchorError, match=r"a\.txt:2"):
        load_boxes_from_labels(tmp_path, 13)


@pytest.mark.parametrize("line", ["x 1.5 0.5 0.9 0.2", "0 0.95 0.5 0.4 0.2"])
def test_load_boxes_rejects_what_the_label_reader_rejects(tmp_path, line):
    # a non-integer class id with a centre outside [0, 1]; a box past the right edge
    (tmp_path / "a.txt").write_text(f"0 0.5 0.5 0.25 0.5\n{line}\n")
    with pytest.raises(AnchorError, match=r"a\.txt:2: "):
        load_boxes_from_labels(tmp_path, 13)


def test_anchor_file_round_trip(tmp_path):
    anchors = AnchorSet(dims=[(1.25, 2.5), (3.0, 3.75)], seed=9, mean_iou=0.8125)
    path = tmp_path / "anchors.txt"
    save_anchors(anchors, path)
    text = path.read_text()
    assert text.startswith("# mean_iou=0.812500 seed=9")
    loaded = load_anchors(path)
    assert loaded.dims == [(1.25, 2.5), (3.0, 3.75)]
    assert loaded.seed == 9


def test_load_anchors_rejects_garbage(tmp_path):
    path = tmp_path / "anchors.txt"
    path.write_text("# mean_iou=0.5 seed=0\n1.0 2.0 3.0\n")
    with pytest.raises(AnchorError):
        load_anchors(path)


@pytest.mark.parametrize("dims", [(0.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (np.inf, 2.0),
                                  (1.0, -np.inf)])
def test_anchor_set_rejects_nonpositive_and_nonfinite_dims(dims):
    with pytest.raises(AnchorError, match="positive and finite"):
        AnchorSet(dims=[(1.0, 1.0), dims])


@pytest.mark.parametrize("row", ["nan 1.0", "inf 2"])
def test_load_anchors_nonfinite_row_reports_location(tmp_path, row):
    path = tmp_path / "anchors.txt"
    path.write_text(f"# mean_iou=0.5 seed=0\n1.0 2.0\n{row}\n")
    with pytest.raises(AnchorError, match=r"anchors\.txt:3: anchor dims must be positive and finite") as exc:
        load_anchors(path)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("text, lineno", [
    ("# mean_iou=0.5 seed=0\n1.0 abc\n", 2),
    ("# mean_iou=oops seed=0\n1.0 2.0\n", 1),
    ("1.0 2.0\n\n# seed=1.5\n", 3),
])
def test_load_anchors_malformed_number_reports_location(tmp_path, text, lineno):
    path = tmp_path / "anchors.txt"
    path.write_text(text)
    with pytest.raises(AnchorError, match=rf"anchors\.txt:{lineno}: malformed number"):
        load_anchors(path)
