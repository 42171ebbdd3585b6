import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detection import as_detections
from test_loss import NO_LABELS, make_labels

from dcspp_yolo.anchors import AnchorError, load_anchors
from dcspp_yolo.data import (
    LabelError,
    class_color,
    image_to_tensor,
    letterbox_params,
    parse_label_line,
    read_class_names,
    read_label_file,
    render_detections,
    unletterbox_box,
    write_label_file,
)
from dcspp_yolo.detection import BBox, Detection
from dcspp_yolo.ppm import PPMError, ppm_read, ppm_write
from dcspp_yolo.training import TrainingError, load_manifest


# -- PPM codec -----------------------------------------------------------------


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (7, 11, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    ppm_write(path, img)
    assert np.array_equal(ppm_read(path), img)


def test_ppm_exact_byte_layout(tmp_path):
    img = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)  # 2x1
    path = tmp_path / "img.ppm"
    ppm_write(path, img)
    assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])


def test_ppm_rejects_ascii(tmp_path):
    path = tmp_path / "a.ppm"
    path.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
    with pytest.raises(PPMError, match="ASCII PPM unsupported"):
        ppm_read(path)


def test_ppm_rejects_other_magic(tmp_path):
    path = tmp_path / "a.ppm"
    path.write_bytes(b"P5\n1 1\n255\nx")
    with pytest.raises(PPMError, match="not a PPM"):
        ppm_read(path)


def test_ppm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "a.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(PPMError, match="maxval"):
        ppm_read(path)


def test_ppm_short_payload(tmp_path):
    path = tmp_path / "a.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(PPMError, match="short"):
        ppm_read(path)


def test_ppm_huge_header_is_rejected_before_any_read(tmp_path):
    # a 1e9 x 1e9 header would ask for 3e18 bytes: the file's size refutes it first
    path = tmp_path / "huge.ppm"
    path.write_bytes(b"P6\n1000000000 1000000000\n255\n" + bytes(3))
    tracemalloc.start()
    try:
        with pytest.raises(PPMError, match=r"short pixel payload \(3 bytes, expected 3000000000000000000\)"):
            ppm_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@given(st.integers(0, 2 ** 31), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_ppm_round_trip_property(seed, h, w):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.ppm"
        ppm_write(path, img)
        assert np.array_equal(ppm_read(path), img)


def corruptions(valid: bytes) -> st.SearchStrategy[bytes]:
    """Arbitrary bytes, or `valid` truncated, with one byte replaced, or with
    one byte inserted. Half the positions fall in the first 64 bytes, where
    a header is."""
    n = len(valid)
    at = st.integers(0, min(n, 64)) | st.integers(0, n)
    byte = st.binary(min_size=1, max_size=1)
    return st.one_of(
        st.binary(max_size=64),
        at.map(lambda i: valid[:i]),
        st.tuples(at.filter(lambda i: i < n), byte).map(lambda t: valid[:t[0]] + t[1] + valid[t[0] + 1:]),
        st.tuples(at, byte).map(lambda t: valid[:t[0]] + t[1] + valid[t[0]:]),
    )


def read_corrupted(read, blob: bytes):
    """`read` of a file that holds `blob`."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file"
        path.write_bytes(blob)
        return read(path)


_VALID_PPM = b"P6\n2 3\n255\n" + bytes(range(18))


@given(corruptions(_VALID_PPM))
@settings(max_examples=60, deadline=None)
def test_ppm_read_raises_only_ppm_error_on_corrupt_bytes(blob):
    try:
        img = read_corrupted(ppm_read, blob)
    except PPMError:
        return
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3


# -- labels -------------------------------------------------------------------------


_VALID_LABELS = b"2 0.500000 0.250000 0.250000 0.125000\n0 0.750000 0.500000 0.500000 1.000000\n"


@given(corruptions(_VALID_LABELS))
@settings(max_examples=60, deadline=None)
def test_read_label_file_raises_only_label_error_on_corrupt_bytes(blob):
    try:
        labels = read_corrupted(read_label_file, blob)
    except LabelError:
        return
    assert labels.class_ids.dtype == np.int64 and labels.boxes.shape == (len(labels.class_ids), 4)
    assert np.isfinite(labels.boxes).all()


def test_label_round_trip(tmp_path):
    path = tmp_path / "a.txt"
    for labels in (make_labels((2, 0.5, 0.25, 0.25, 0.125), (0, 0.75, 0.5, 0.5, 1.0)), NO_LABELS):
        write_label_file(path, labels)
        back = read_label_file(path)
        assert back.class_ids.dtype == np.int64 and back.boxes.dtype == np.float64
        assert np.array_equal(back.class_ids, labels.class_ids)
        assert np.array_equal(back.boxes, labels.boxes)
    assert path.read_text() == ""
    write_label_file(path, make_labels((2, 0.5, 0.25, 0.25, 0.125)))
    assert path.read_text() == "2 0.500000 0.250000 0.250000 0.125000\n"


def test_label_rejects_out_of_range_with_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0.5 0.5 0.2 0.2\n1 1.5 0.5 0.2 0.2\n")
    with pytest.raises(LabelError, match=r"bad\.txt:2"):
        read_label_file(path)


def test_label_class_id_past_int64_reports_location(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 0.5 0.5 0.2 0.2\n99999999999999999999 0.5 0.5 0.2 0.2\n")
    with pytest.raises(LabelError, match=r"big\.txt:2: class id 99999999999999999999 does not fit"):
        read_label_file(path)
    # the largest int64 is still a class id
    assert parse_label_line(f"{2**63 - 1} 0.5 0.5 0.2 0.2", "here").class_ids[0] == 2**63 - 1


@pytest.mark.parametrize("read, error", [
    (read_label_file, LabelError),
    (read_class_names, LabelError),
    (load_anchors, AnchorError),
    (lambda path: load_manifest(path, path), TrainingError),
], ids=["labels", "class_names", "anchors", "manifest"])
def test_text_readers_report_undecodable_bytes_as_their_own_error(tmp_path, read, error):
    path = tmp_path / "file.txt"
    path.write_bytes(b"0 0.5 0.5 0.2 0.2\n\xff\n")
    with pytest.raises(error, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
        read(path)


def test_label_rejects_box_past_edge():
    with pytest.raises(LabelError, match="outside the image"):
        parse_label_line("0 0.95 0.5 0.2 0.2", "here")


def test_label_rejects_malformed():
    with pytest.raises(LabelError):
        parse_label_line("0 0.5 oops 0.2 0.2", "here")


# -- letterboxing --------------------------------------------------------------------


def test_letterbox_square_matching_size_is_identity():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (96, 96, 3)).astype(np.uint8)
    t = image_to_tensor(img, 96)
    assert t.shape == (1, 3, 96, 96)
    assert t.dtype == np.float32 and t.flags.c_contiguous
    assert np.allclose(t[0].transpose(1, 2, 0), img.astype(np.float32) / 255.0)


def test_letterbox_wide_image_pads_quarters():
    img = np.full((48, 96, 3), 255, dtype=np.uint8)  # 2:1
    t = image_to_tensor(img, 96)[0]
    assert np.all(t[:, :24, :] == 0.5)
    assert np.all(t[:, 72:, :] == 0.5)
    assert np.all(t[:, 24:72, :] == 1.0)


def test_letterbox_all_white_region_is_one():
    img = np.full((96, 96, 3), 255, dtype=np.uint8)
    t = image_to_tensor(img, 96)
    assert np.all(t == 1.0)


def oracle_image_to_tensor(img, target):
    """Nearest-neighbour resize, float32 / 255 into an HWC canvas, then a
    transposing copy: the straightforward letterbox, pass by pass."""
    h, w = img.shape[:2]
    p = letterbox_params(w, h, target)
    rows = np.minimum((np.arange(p.new_h) + 0.5) * h / p.new_h, h - 1).astype(np.intp)
    cols = np.minimum((np.arange(p.new_w) + 0.5) * w / p.new_w, w - 1).astype(np.intp)
    canvas = np.full((target, target, 3), 0.5, dtype=np.float32)
    resized = img[rows][:, cols].astype(np.float32) / 255.0
    canvas[p.pad_y:p.pad_y + p.new_h, p.pad_x:p.pad_x + p.new_w] = resized
    return np.ascontiguousarray(canvas.transpose(2, 0, 1)[None])


@st.composite
def letterbox_cases(draw):
    size = st.integers(1, 160)
    h, w = draw(st.one_of(st.sampled_from([(416, 416), (300, 500), (96, 96)]),
                          st.tuples(size, size)))
    target = draw(st.sampled_from([32, 96, 128, 416]))
    dtype = draw(st.sampled_from([np.uint8, np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, (h, w, 3)).astype(dtype), target


@given(letterbox_cases())
@settings(max_examples=100, deadline=None)
def test_letterbox_equals_pass_by_pass_oracle_bytewise(case):
    img, target = case
    t, ref = image_to_tensor(img, target), oracle_image_to_tensor(img, target)
    assert t.shape == ref.shape and t.dtype == ref.dtype and t.flags.c_contiguous
    assert t.tobytes() == ref.tobytes()


def test_letterbox_rejects_bad_target():
    with pytest.raises(LabelError):
        image_to_tensor(np.zeros((10, 10, 3), dtype=np.uint8), 100)


def test_unletterbox_inverts_mapping():
    w, h, target = 200, 100, 96
    p = letterbox_params(w, h, target)
    # a box in original pixels, mapped forward then back
    x0, y0, x1, y1 = 20.0, 30.0, 120.0, 80.0
    fwd = BBox(x0 * p.scale + p.pad_x, y0 * p.scale + p.pad_y,
               x1 * p.scale + p.pad_x, y1 * p.scale + p.pad_y)
    back = unletterbox_box(fwd, w, h, target)
    assert back.x_min == pytest.approx(x0, abs=1e-6)
    assert back.y_max == pytest.approx(y1, abs=1e-6)


# -- rendering ------------------------------------------------------------------------


def test_render_no_detections_unchanged():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
    assert np.array_equal(render_detections(img, as_detections([])), img)


def test_render_touches_only_outline():
    img = np.zeros((40, 40, 3), dtype=np.uint8)
    det = Detection(box=BBox(10, 10, 30, 30), class_id=1, score=0.9)
    out = render_detections(img, as_detections([det]))
    changed = np.argwhere((out != img).any(axis=2))
    assert len(changed)
    for y, x in changed:
        on_x_band = 10 <= x <= 11 or 29 <= x <= 30
        on_y_band = 10 <= y <= 11 or 29 <= y <= 30
        assert (on_x_band and 10 <= y <= 30) or (on_y_band and 10 <= x <= 30)


def test_render_deterministic():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (24, 24, 3)).astype(np.uint8)
    det = Detection(box=BBox(2, 2, 20, 20), class_id=4, score=0.5)
    dets = as_detections([det])
    assert np.array_equal(render_detections(img, dets), render_detections(img, dets))


def test_class_colors_distinct_for_small_ids():
    colors = {class_color(i) for i in range(10)}
    assert len(colors) == 10
