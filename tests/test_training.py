import hashlib
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_loss import make_labels

from dcspp_yolo.anchors import kmeans_anchors, load_boxes_from_labels
from dcspp_yolo.network import NetworkConfig, Param, build_network
from dcspp_yolo.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SHAPE_CLASSES,
    WEIGHT_DECAY,
    _BASE_COLORS,
    AdamState,
    TrainConfig,
    TrainingError,
    _draw_shape,
    adam_step,
    augment,
    crop_to_window,
    hflip,
    load_manifest,
    lr_at,
    synth_dataset,
    train,
    write_loss_log,
)


def _param(value, name="p"):
    return Param(name, np.asarray(value, dtype=np.float32))


# -- Adam ----------------------------------------------------------------------


def test_adam_zero_gradient_no_change():
    p = _param([1.0, -2.0])
    adam_step([p], {"p": np.zeros(2)}, AdamState(), 0.01)
    assert p.array.tolist() == [1.0, -2.0]


def test_adam_constant_gradient_steps_near_lr():
    p = _param([0.0])
    state = AdamState()
    g = np.array([0.37])
    lr = 1e-2
    for _ in range(3):
        adam_step([p], {"p": g}, state, lr)
    # after bias correction, each constant-gradient step is about -lr*sign(g)
    assert p.array[0] == pytest.approx(-3 * lr, rel=1e-3)


def test_adam_matches_scalar_recurrence_oracle():
    lr, b1, b2, eps = 0.05, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    grads = [0.4, -1.3, 0.2]
    p = _param([0.7])
    state = AdamState()
    # straight-line recomputation of the recurrences
    theta, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        adam_step([p], {"p": np.array([g])}, state, lr)
    assert p.array[0] == pytest.approx(theta, rel=1e-5)


def test_adam_first_step_follows_gradient_sign():
    p = _param([0.0, 0.0])
    state = AdamState()
    adam_step([p], {"p": np.array([0.5, -0.25])}, state, 0.01)
    assert p.array[0] < 0 and p.array[1] > 0
    # the bias-corrected first step is lr * g/|g| whatever the betas, like sign descent
    assert abs(p.array[0]) == pytest.approx(abs(p.array[1]), rel=1e-3)


def test_weight_decay_only_on_conv_weights():
    params = build_network(NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                                         channel_scale=Fraction(1, 8))).parameters()
    assert {p.name.rsplit(".", 1)[1] for p in params} == {"weights", "bias", "gamma", "beta"}
    for p in params:
        p.array[...] = 1.0
    adam_step(params, {p.name: np.zeros_like(p.array) for p in params}, AdamState(), 0.5)
    for p in params:
        decayed = p.name.endswith(".weights")
        assert p.array == pytest.approx(1.0 - 0.5 * WEIGHT_DECAY if decayed else 1.0), p.name
        assert decayed or (p.array == 1.0).all(), p.name


# -- schedule ----------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [("lr0", math.nan), ("lr0", math.inf), ("lr0", 0.0)])
def test_train_config_rejects_numbers_adam_cannot_use(field, value):
    with pytest.raises(TrainingError, match=f"^{field} must be .*, got {value}$"):
        TrainConfig(**{field: value})


def test_train_config_accepts_the_edges_of_its_ranges():
    TrainConfig(lr0=1e-30, lr_drops=((0, 0.0),), n_prior=0)


def test_lr_schedule_default_drops():
    cfg = TrainConfig(lr0=1e-3, lr_drops=((400, 0.1), (500, 0.1)))
    assert lr_at(0, cfg) == pytest.approx(1e-3)
    assert lr_at(399, cfg) == pytest.approx(1e-3)
    assert lr_at(400, cfg) == pytest.approx(1e-4)
    assert lr_at(500, cfg) == pytest.approx(1e-5)
    assert lr_at(900, cfg) == pytest.approx(1e-5)


# -- augmentation --------------------------------------------------------------------


class Truth(NamedTuple):
    """One annotated box, the unit of the per-box augmentation oracle."""

    cx: float
    cy: float
    w: float
    h: float
    class_id: int


def oracle_hflip(image, truths):
    return image[:, ::-1].copy(), [t._replace(cx=1.0 - t.cx) for t in truths]


def oracle_crop_to_window(image, truths, ox, oy, cw, ch):
    """Scalar oracle of `crop_to_window`, one box at a time."""
    h, w = image.shape[:2]
    canvas = np.full((ch, cw, 3), 128, dtype=np.uint8)
    sx0, sx1 = max(0, ox), min(w, ox + cw)
    sy0, sy1 = max(0, oy), min(h, oy + ch)
    if sx1 > sx0 and sy1 > sy0:
        canvas[sy0 - oy:sy1 - oy, sx0 - ox:sx1 - ox] = image[sy0:sy1, sx0:sx1]
    out = []
    for t in truths:
        x0 = (t.cx - t.w / 2) * w - ox
        x1 = (t.cx + t.w / 2) * w - ox
        y0 = (t.cy - t.h / 2) * h - oy
        y1 = (t.cy + t.h / 2) * h - oy
        x0, x1 = max(x0, 0.0), min(x1, float(cw))
        y0, y1 = max(y0, 0.0), min(y1, float(ch))
        if x1 <= x0 or y1 <= y0:
            continue
        out.append(Truth(cx=(x0 + x1) / 2 / cw, cy=(y0 + y1) / 2 / ch,
                         w=(x1 - x0) / cw, h=(y1 - y0) / ch, class_id=t.class_id))
    return canvas, out


def oracle_augment(image, truths, rng, flip, crop):
    """Scalar oracle of `augment`: the same random draws, one box at a time."""
    if crop:
        h, w = image.shape[:2]
        s = rng.uniform(0.8, 1.2)
        cw = max(1, round(w / s))
        ch = max(1, round(h / s))
        lo_x, hi_x = min(0, w - cw), max(0, w - cw)
        lo_y, hi_y = min(0, h - ch), max(0, h - ch)
        ox, oy = (w - cw) // 2, (h - ch) // 2
        for _ in range(10):
            cand_x = int(rng.integers(lo_x, hi_x + 1))
            cand_y = int(rng.integers(lo_y, hi_y + 1))
            if not truths or any(cand_x <= t.cx * w < cand_x + cw and cand_y <= t.cy * h < cand_y + ch
                                 for t in truths):
                ox, oy = cand_x, cand_y
                break
        image, truths = oracle_crop_to_window(image, truths, ox, oy, cw, ch)
    if flip and rng.random() < 0.5:
        image, truths = oracle_hflip(image, truths)
    return image, truths


def _labels(truths):
    return make_labels(*[(t.class_id, t.cx, t.cy, t.w, t.h) for t in truths])


def _assert_same(image, labels, want_image, want_truths):
    """Byte-equal images, boxes and class ids, with the `Labels` dtypes."""
    assert image.shape == want_image.shape and image.tobytes() == want_image.tobytes()
    want = _labels(want_truths)
    assert labels.class_ids.dtype == np.int64 and labels.boxes.dtype == np.float64
    assert labels.class_ids.shape == want.class_ids.shape and labels.boxes.shape == want.boxes.shape
    assert labels.class_ids.tobytes() == want.class_ids.tobytes()
    assert labels.boxes.tobytes() == want.boxes.tobytes()


@st.composite
def labelled_images(draw):
    """A small image and 0-4 boxes inside it. Edges fall on the pixel grid
    half the time, so that they meet the edges of integer windows."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    image = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        0, 256, (h, w, 3), dtype=np.uint8)
    truths = []
    for _ in range(draw(st.integers(0, 4))):
        edges = []
        for size in (w, h):
            on_grid = st.integers(0, size).map(lambda v, n=size: v / n)
            lo, hi = sorted(draw(on_grid | st.floats(0, 1)) for _ in range(2))
            edges.append((lo, hi) if hi > lo else (0.0, 1.0))
        (x0, x1), (y0, y1) = edges
        truths.append(Truth(cx=(x0 + x1) / 2, cy=(y0 + y1) / 2, w=x1 - x0, h=y1 - y0,
                            class_id=draw(st.integers(0, 2))))
    return image, truths


@given(case=labelled_images(), window=st.data())
@settings(max_examples=300, deadline=None)
def test_crop_to_window_equals_per_box_oracle(case, window):
    # windows reach past every side of the image: boxes are cropped away,
    # clipped, or kept whole, and grid edges meet the window's edges
    image, truths = case
    h, w = image.shape[:2]
    ox, oy = window.draw(st.integers(-w, w)), window.draw(st.integers(-h, h))
    cw, ch = window.draw(st.integers(1, 2 * w)), window.draw(st.integers(1, 2 * h))
    got = crop_to_window(image, _labels(truths), ox, oy, cw, ch)
    _assert_same(*got, *oracle_crop_to_window(image, truths, ox, oy, cw, ch))


_EDGE_IMAGE = np.arange(300, dtype=np.uint8).reshape(10, 10, 3)


@given(case=labelled_images(), seed=st.integers(0, 2 ** 32 - 1),
       flags=st.sampled_from([(True, False), (False, True), (True, True)]))
# a box centre on the right, then the left, edge of the first candidate window
@example(case=(_EDGE_IMAGE, [Truth(0.9, 0.5, 0.2, 0.2, 1)]), seed=5, flags=(False, True))
@example(case=(_EDGE_IMAGE, [Truth(0.1, 0.5, 0.2, 0.2, 1)]), seed=0, flags=(False, True))
@settings(max_examples=300, deadline=None)
def test_augment_equals_per_box_oracle(case, seed, flags):
    image, truths = case
    flip, crop = flags
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = augment(image, _labels(truths), rng, flip=flip, crop=crop)
    _assert_same(*got, *oracle_augment(image, truths, oracle_rng, flip, crop))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_augment_all_flags_off_is_identity():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 255, (32, 48, 3)).astype(np.uint8)
    truths = make_labels((1, 0.5, 0.5, 0.2, 0.2))
    out_img, out_truths = augment(img, truths, rng, flip=False, crop=False)
    assert np.array_equal(out_img, img)
    assert np.array_equal(out_truths.class_ids, truths.class_ids)
    assert np.array_equal(out_truths.boxes, truths.boxes)


def test_hflip_is_involution():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 255, (16, 24, 3)).astype(np.uint8)
    truths = make_labels((0, 0.3, 0.6, 0.2, 0.3))
    img2, truths2 = hflip(*hflip(img, truths))
    assert np.array_equal(img2, img)
    assert truths2.boxes[0, 0] == pytest.approx(truths.boxes[0, 0])


def test_crop_to_window_affine_oracle():
    img = np.zeros((40, 60, 3), dtype=np.uint8)
    # box at pixels x [12, 36], y [8, 24]
    t = make_labels((2, 24 / 60, 16 / 40, 24 / 60, 16 / 40))
    out_img, out = crop_to_window(img, t, ox=10, oy=4, cw=30, ch=20)
    assert out_img.shape == (20, 30, 3)
    cx, cy, w, h = out.boxes[0]
    # hand-computed affine image of the box: x' = x - 10, y' = y - 4
    assert cx == pytest.approx(((12 - 10) + (36 - 10)) / 2 / 30)
    assert cy == pytest.approx(((8 - 4) + (24 - 4)) / 2 / 20)
    assert w == pytest.approx(24 / 30)
    assert h == pytest.approx(16 / 20)


def test_crop_drops_boxes_fully_outside():
    img = np.zeros((40, 40, 3), dtype=np.uint8)
    t = make_labels((0, 0.9, 0.9, 0.1, 0.1))
    _, out = crop_to_window(img, t, ox=0, oy=0, cw=20, ch=20)
    assert out.class_ids.shape == (0,) and out.boxes.shape == (0, 4)


def test_augment_deterministic_under_seed():
    img = np.random.default_rng(3).integers(0, 255, (32, 32, 3)).astype(np.uint8)
    truths = make_labels((0, 0.5, 0.5, 0.3, 0.3))
    a = augment(img, truths, np.random.default_rng(5), flip=True, crop=True)
    b = augment(img, truths, np.random.default_rng(5), flip=True, crop=True)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1].class_ids, b[1].class_ids)
    assert np.array_equal(a[1].boxes, b[1].boxes)


# -- synthetic dataset ------------------------------------------------------------------


def test_synth_deterministic(tmp_path):
    m1 = synth_dataset(4, image_size=96, seed=5, out_dir=tmp_path / "a")
    m2 = synth_dataset(4, image_size=96, seed=5, out_dir=tmp_path / "b")
    for (i1, l1), (i2, l2) in zip(m1.entries, m2.entries):
        assert Path(i1).read_bytes() == Path(i2).read_bytes()
        assert Path(l1).read_text() == Path(l2).read_text()


def test_synth_boxes_in_range(tmp_path):
    manifest = synth_dataset(12, image_size=96, seed=6, out_dir=tmp_path)
    from dcspp_yolo.data import read_label_file

    count = 0
    for _, lab in manifest.entries:
        for cx, cy, w, h in read_label_file(lab).boxes.tolist():
            count += 1
            assert 0.0 < cx < 1.0 and 0.0 < cy < 1.0
            assert w * 96 >= 4 and h * 96 >= 4
            assert cx - w / 2 >= 0 and cx + w / 2 <= 1
    assert count >= 12


def test_synth_class_histogram_roughly_uniform(tmp_path):
    manifest = synth_dataset(300, image_size=96, seed=8, out_dir=tmp_path)
    from dcspp_yolo.data import read_label_file

    counts = [0, 0, 0]
    for _, lab in manifest.entries:
        for cid in read_label_file(lab).class_ids.tolist():
            counts[cid] += 1
    total = sum(counts)
    for c in counts:
        assert abs(c - total / 3) / (total / 3) < 0.2


# sha256 over every file synth_dataset writes, in name order as name, NUL, bytes:
# the seeded datasets may not move by one byte.
_SYNTH_SHA256 = {
    (8, 416, 1): "0a13987fae77ad68ec4ddbb19c524c171dca71fc7e02b490d2d38224f03d1d27",
    (16, 96, 1): "cb4255bf1aeb3476ca0fbf1ec22ed9315a109083f6f1ce5760f7142a928097e6",
    (4, 608, 3): "ab9ff0b9b3106f3249465528858b625e35e915c1267addcc614e48b745754f1d",
}


@pytest.mark.parametrize("n, size, seed", list(_SYNTH_SHA256))
def test_synth_bytes_are_pinned(tmp_path, n, size, seed):
    synth_dataset(n, image_size=size, seed=seed, out_dir=tmp_path / "data")
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "data").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == _SYNTH_SHA256[n, size, seed]


def _draw_shape_full_image(img, kind, cx, cy, size, color):
    """`_draw_shape` over the whole image: the oracle for the windowed draw."""
    sz = img.shape[0]
    half = size // 2
    yy, xx = np.mgrid[0:sz, 0:sz]
    if kind == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half ** 2
    elif kind == "square":
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    else:
        rel = (yy - (cy - half)) / max(size - 1, 1)
        hw = rel * half
        mask = (rel >= 0) & (rel <= 1) & (np.abs(xx - cx) <= hw)
    img[mask] = color
    return mask


@st.composite
def _shapes(draw):
    """A shape as synth_dataset places one: size in [sz // 6, sz // 3], centre
    at least half + 2 pixels inside every edge."""
    sz = draw(st.sampled_from([32, 96, 416, 608]))
    size = draw(st.integers(sz // 6, sz // 3))
    half = size // 2
    cx, cy = (draw(st.integers(half + 2, sz - half - 3)) for _ in range(2))
    return sz, draw(st.sampled_from(SHAPE_CLASSES)), cx, cy, size, draw(st.integers(0, 2 ** 32 - 1))


@given(_shapes())
@settings(max_examples=80, deadline=None)
def test_windowed_draw_equals_the_full_image_draw(shape):
    sz, kind, cx, cy, size, seed = shape
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 50, (sz, sz, 3)).astype(np.uint8)
    color = np.asarray(_BASE_COLORS[kind], dtype=np.uint8)
    want_img = img.copy()
    want = _draw_shape_full_image(want_img, kind, cx, cy, size, color)
    window, top, left = _draw_shape(img, kind, cx, cy, size, color)
    got = np.zeros((sz, sz), dtype=bool)
    got[top:top + window.shape[0], left:left + window.shape[1]] = window
    assert np.array_equal(got, want)  # so the oracle sets nothing outside the window
    assert img.tobytes() == want_img.tobytes()


def test_synth_rejects_bad_size(tmp_path):
    with pytest.raises(TrainingError):
        synth_dataset(2, image_size=100, seed=0, out_dir=tmp_path)


@pytest.mark.parametrize("n", [0, -1])
def test_synth_rejects_a_count_below_one(tmp_path, n):
    with pytest.raises(TrainingError, match=f"n must be >= 1, got {n}$"):
        synth_dataset(n, out_dir=tmp_path / "data")
    assert not (tmp_path / "data").exists()


def test_manifest_round_trip(tmp_path):
    manifest = synth_dataset(3, image_size=96, seed=9, out_dir=tmp_path)
    loaded = load_manifest(tmp_path / "manifest.tsv", tmp_path / "classes.names")
    assert len(loaded) == 3
    assert loaded.class_names == list(manifest.class_names)
    assert [Path(p).name for p, _ in loaded.entries] == [Path(p).name for p, _ in manifest.entries]


# -- training loop -------------------------------------------------------------------------


def _tiny_setup(tmp_path, n=4, seed=30):
    manifest = synth_dataset(n, image_size=96, seed=seed, out_dir=tmp_path / "data")
    boxes = load_boxes_from_labels(tmp_path / "data", 3)
    anchors = kmeans_anchors(boxes, 2, seed=1)
    cfg = NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                        anchors=anchors, channel_scale=Fraction(1, 8))
    net = build_network(cfg)
    net.init_weights(seed)
    return net, manifest


def test_zero_lr_leaves_parameters_unchanged(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    before = {p.name: p.array.copy() for p in net.parameters()}
    # lr0 must be positive; an epoch-0 drop to zero freezes every step
    cfg = TrainConfig(batch_size=4, epochs=1, lr0=1e-3, lr_drops=((0, 0.0),), seed=0)
    train(net, manifest, cfg)
    for p in net.parameters():
        assert np.array_equal(p.array, before[p.name]), p.name


def test_training_a_mapped_model_equals_training_it_in_memory_and_leaves_its_file(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    path = tmp_path / "w.weights"
    net.save_weights(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    mapped = build_network(net.cfg)
    mapped.load_weights(path)
    cfg = TrainConfig(batch_size=4, epochs=3, seed=0)
    train(net, manifest, cfg, max_iterations=3)
    train(mapped, manifest, cfg, max_iterations=3)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    net.save_weights(tmp_path / "a.weights")
    mapped.save_weights(tmp_path / "b.weights")  # running statistics included
    assert (tmp_path / "a.weights").read_bytes() == (tmp_path / "b.weights").read_bytes()
    assert (tmp_path / "a.weights").read_bytes() != path.read_bytes()


def test_training_is_reproducible(tmp_path):
    rows = []
    for run in range(2):
        net, manifest = _tiny_setup(tmp_path, seed=31)
        cfg = TrainConfig(batch_size=4, epochs=3, seed=9)
        rows.append(train(net, manifest, cfg).rows)
    assert rows[0] == rows[1]


def test_loss_log_format(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    cfg = TrainConfig(batch_size=4, epochs=2, seed=2)
    result = train(net, manifest, cfg)
    log = tmp_path / "loss.csv"
    write_loss_log(result.rows, log)
    lines = log.read_text().splitlines()
    assert lines[0] == "iter,epoch,lr,loss,loss_noobj,loss_obj,loss_coord,loss_class,loss_prior"
    assert len(lines) == len(result.rows) + 1
    assert lines[1].startswith("1,0,0.001,")


def test_prior_component_flips_at_n_prior(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    # 4 images per iteration; warm-up covers exactly the first two iterations
    cfg = TrainConfig(batch_size=4, epochs=4, seed=3, n_prior=8)
    result = train(net, manifest, cfg)
    priors = [r.parts.prior for r in result.rows]
    assert priors[0] > 0 and priors[1] > 0
    assert all(p == 0.0 for p in priors[2:])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_iteration(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    cfg = TrainConfig(batch_size=4, epochs=5, lr0=1e25, seed=4)
    with pytest.raises(TrainingError, match=r"iteration \d+"):
        train(net, manifest, cfg)


def test_backward_gets_a_float32_gradient_laid_out_like_the_output(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    outputs, grads = [], []
    forward, backward = net.forward, net.backward

    def spy_forward(x, training=False, workspace=None):
        out = forward(x, training=training, workspace=workspace)
        outputs.append((out.shape, out.dtype, out.flags.c_contiguous))
        return out

    def spy_backward(grad, workspace=None):
        grads.append((grad.shape, grad.dtype, grad.flags.c_contiguous))
        return backward(grad, workspace=workspace)

    net.forward, net.backward = spy_forward, spy_backward
    train(net, manifest, TrainConfig(batch_size=3, epochs=1, seed=0))
    # 4 images in batches of 3: a full batch, then one of 1
    assert outputs == [((3, 16, 3, 3), np.float32, True), ((1, 16, 3, 3), np.float32, True)]
    # backward's float32 sums depend on the layout too, so it must match the output's
    assert grads == outputs


def test_train_requires_anchors(tmp_path):
    manifest = synth_dataset(2, image_size=96, seed=1, out_dir=tmp_path / "d")
    net = build_network(NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                                      channel_scale=Fraction(1, 8)))
    with pytest.raises(TrainingError, match="anchors"):
        train(net, manifest, TrainConfig(epochs=1))


def test_out_of_range_class_id_is_training_error(tmp_path):
    net, manifest = _tiny_setup(tmp_path)
    label = manifest.entries[1][1]
    label.write_text(label.read_text() + "7 0.5 0.5 0.2 0.2\n")
    with pytest.raises(TrainingError, match=rf"^{re.escape(str(label))}: class id 7 .* 3 classes$"):
        train(net, manifest, TrainConfig(batch_size=4, epochs=1))
