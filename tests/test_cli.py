import re
import shutil
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import _train_tiny
from test_network import oversized_header

from dcspp_yolo import cli
from dcspp_yolo.cli import main
from dcspp_yolo.data import image_to_tensor, unletterbox_boxes
from dcspp_yolo.detection import detect_image, format_detections
from dcspp_yolo.network import NetworkConfig, build_network
from dcspp_yolo.ppm import ppm_read
from dcspp_yolo.training import TrainConfig


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["synth", "--nope"]) == 2


def test_train_missing_anchors_exits_2(capsys):
    rc = main(["train", "--manifest", "m", "--classes", "c", "--out", "w"])
    assert rc == 2
    assert "--anchors" in capsys.readouterr().err


def test_shapecheck_reference_configuration(capsys):
    assert main(["shapecheck", "--input-size", "416", "--classes", "20", "--anchors-k", "5"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"conv31\s+13 x 13\s+x 125", out)
    assert "matches the reference layout" in out


def test_shapecheck_other_size_prints_table(capsys):
    assert main(["shapecheck", "--input-size", "96", "--classes", "3", "--anchors-k", "5"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"conv31\s+3 x 3\s+x 40", out)


def test_shapecheck_invalid_size_exits_1(capsys):
    assert main(["shapecheck", "--input-size", "415"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_reports_one_line_error(capsys, tmp_path):
    rc = main(["detect", "--model", str(tmp_path / "no.weights"),
               "--image", str(tmp_path / "no.ppm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> anchors -> short train, shared by the command tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--num", "4", "--image-size", "96",
                 "--seed", "12"]) == 0
    anchors = root / "anchors.txt"
    assert main(["anchors", "--labels", str(data), "--out", str(anchors),
                 "--k", "2", "--seed", "1", "--input-size", "96"]) == 0
    weights = root / "model.weights"
    log = root / "loss.csv"
    assert main(["train", "--manifest", str(data / "manifest.tsv"),
                 "--classes", str(data / "classes.names"),
                 "--anchors", str(anchors), "--out", str(weights), "--log", str(log),
                 "--input-size", "96", "--channel-scale", "1/8",
                 "--batch-size", "4", "--epochs", "8", "--seed", "3"]) == 0
    return root, data, anchors, weights, log


def test_train_outputs_exist(pipeline):
    root, data, anchors, weights, log = pipeline
    assert weights.exists()
    header = log.read_text().splitlines()[0]
    assert header == "iter,epoch,lr,loss,loss_noobj,loss_obj,loss_coord,loss_class,loss_prior"


def test_detect_writes_text_and_render(pipeline, capsys):
    root, data, anchors, weights, _ = pipeline
    out_txt = root / "dets.txt"
    render = root / "annotated.ppm"
    rc = main(["detect", "--model", str(weights),
               "--image", str(data / "img_0000.ppm"), "--conf", "0.001",
               "--out", str(out_txt), "--render", str(render)])
    assert rc == 0
    for line in out_txt.read_text().splitlines():
        assert re.fullmatch(r"\d+ \d\.\d{6}( \d+\.\d{6}){4}", line)
    img = ppm_read(render)
    assert img.shape == (96, 96, 3)


def test_detect_text_equals_in_process_detection(tmp_path):
    # trained with unrounded k-means anchors, which the weight file carries
    net, manifest, _ = _train_tiny(tmp_path, iterations=2)
    weights, out_txt = tmp_path / "model.weights", tmp_path / "dets.txt"
    net.save_weights(weights)
    image = manifest.entries[0][0]
    assert main(["detect", "--model", str(weights), "--image", str(image),
                 "--conf", "0.005", "--out", str(out_txt)]) == 0
    img = ppm_read(image)
    h, w = img.shape[:2]
    size = net.cfg.input_size
    dets = detect_image(net, image_to_tensor(img, size), 0.005, 0.45)
    dets = replace(dets, boxes=unletterbox_boxes(dets.boxes, w, h, size))
    assert len(dets) > 0
    assert out_txt.read_text() == format_detections(dets)


def test_detect_without_anchors_in_the_weight_file_is_an_error(pipeline, tmp_path, capsys):
    _, data, _, _, _ = pipeline
    weights = tmp_path / "plain.weights"
    build_network(NetworkConfig(input_size=96, num_classes=3, num_anchors=2,
                                channel_scale=Fraction(1, 8))).save_weights(weights)
    capsys.readouterr()
    assert main(["detect", "--model", str(weights), "--image", str(data / "img_0000.ppm")]) == 1
    assert capsys.readouterr().err == f"error: {weights}: weight file records no anchors to decode boxes with\n"


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_header_claiming_a_billion_classes_reports_one_line_error(tmp_path, capsys, command):
    weights = tmp_path / "huge.weights"
    weights.write_bytes(oversized_header(10**9))
    # the inputs need not exist: the model is read first
    inputs = {"detect": ["--image", "img.ppm"],
              "eval": ["--manifest", "manifest.tsv", "--classes", "classes.names"]}[command]
    assert main([command, "--model", str(weights), *inputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {weights}: header claims 2 anchors x 1000000000 classes")
    assert err.count("\n") == 1 and err.count("error:") == 1


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_detect_and_eval_take_no_anchors_option(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--anchors" not in out
    if command == "detect":
        assert "--classes" not in out


def test_train_defaults_come_from_train_config(pipeline, tmp_path, monkeypatch):
    _, data, anchors, _, _ = pipeline
    seen = []

    class Stop(Exception):
        pass

    def fake_train(net, manifest, cfg, **kwargs):
        seen.append(cfg)
        raise Stop

    monkeypatch.setattr(cli, "train", fake_train)
    with pytest.raises(Stop):
        main(["train", "--manifest", str(data / "manifest.tsv"),
              "--classes", str(data / "classes.names"), "--anchors", str(anchors),
              "--out", str(tmp_path / "w.weights")])
    assert seen == [TrainConfig()]


def test_detect_deterministic(pipeline):
    root, data, anchors, weights, _ = pipeline
    a, b = root / "a.txt", root / "b.txt"
    for path in (a, b):
        assert main(["detect", "--model", str(weights),
                     "--image", str(data / "img_0001.ppm"), "--conf", "0.001",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_reports_map(pipeline, capsys):
    root, data, anchors, weights, _ = pipeline
    csv = root / "eval.csv"
    rc = main(["eval", "--model", str(weights),
               "--manifest", str(data / "manifest.tsv"),
               "--classes", str(data / "classes.names"), "--csv", str(csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"mAP \d\.\d{4}", out)
    assert csv.read_text().startswith("class,truths,ap")


@pytest.mark.parametrize("command", ["train"])
@pytest.mark.parametrize("text", ["1.0 abc\n", "# mean_iou=oops\n1.0 2.0\n"])
def test_malformed_anchor_file_reports_one_line_error(pipeline, tmp_path, capsys, command, text):
    _, data, _, _, _ = pipeline
    bad = tmp_path / "anchors.txt"
    bad.write_text(text)
    capsys.readouterr()
    assert main([command, "--anchors", str(bad), "--manifest", str(data / "manifest.tsv"),
                 "--classes", str(data / "classes.names"), "--out", str(tmp_path / "w.weights")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1: malformed number")
    assert err.count("\n") == 1


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out and "FAIL" not in out


def test_seeded_train_runs_are_byte_identical(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--num", "4", "--image-size", "96",
                 "--seed", "2"]) == 0
    anchors = tmp_path / "anchors.txt"
    assert main(["anchors", "--labels", str(data), "--out", str(anchors),
                 "--k", "2", "--seed", "0", "--input-size", "96"]) == 0
    blobs = []
    for run in "ab":
        w = tmp_path / f"{run}.weights"
        log = tmp_path / f"{run}.csv"
        assert main(["train", "--manifest", str(data / "manifest.tsv"),
                     "--classes", str(data / "classes.names"),
                     "--anchors", str(anchors), "--out", str(w), "--log", str(log),
                     "--input-size", "96", "--batch-size", "4", "--epochs", "4",
                     "--seed", "7"]) == 0
        blobs.append((w.read_bytes(), log.read_bytes()))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_out_of_range_class_id_reports_one_line_error(pipeline, tmp_path, capsys, command):
    _, data, anchors, weights, _ = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    label = copy / (copy / "manifest.tsv").read_text().splitlines()[0].split("\t")[1]
    label.write_text(label.read_text() + "7 0.5 0.5 0.2 0.2\n")
    args = {
        "train": ["--anchors", str(anchors), "--out", str(tmp_path / "w.weights"),
                  "--input-size", "96", "--channel-scale", "1/8"],
        "eval": ["--model", str(weights)],
    }[command]
    capsys.readouterr()
    assert main([command, "--manifest", str(copy / "manifest.tsv"),
                 "--classes", str(copy / "classes.names")] + args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {label}: class id 7 out of range for 3 classes\n"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_undecodable_label_file_reports_one_line_error(pipeline, tmp_path, capsys, command):
    _, data, anchors, weights, _ = pipeline
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    label = copy / (copy / "manifest.tsv").read_text().splitlines()[0].split("\t")[1]
    label.write_bytes(label.read_bytes() + b"\xff\n")
    args = {
        "train": ["--anchors", str(anchors), "--out", str(tmp_path / "w.weights"),
                  "--input-size", "96", "--channel-scale", "1/8"],
        "eval": ["--model", str(weights)],
    }[command]
    capsys.readouterr()
    assert main([command, "--manifest", str(copy / "manifest.tsv"),
                 "--classes", str(copy / "classes.names")] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {label}: not UTF-8 text")
    assert err.count("\n") == 1 and err.count("error:") == 1


@pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--checkpoint-every", "-1"),
                                         ("--max-iterations", "-3"), ("--lr", "nan"),
                                         ("--lr", "inf"), ("--lr-drop", "0:nan"),
                                         ("--lr-drop", "0:inf"), ("--lr-drop", "0:-1"),
                                         ("--n-prior", "-1")])
def test_train_rejects_bad_numeric_flag_before_writing_weights(pipeline, tmp_path, capsys,
                                                               flag, value):
    _, data, anchors, _, _ = pipeline
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["train", "--manifest", str(data / "manifest.tsv"),
                 "--classes", str(data / "classes.names"), "--anchors", str(anchors),
                 "--out", str(out / "w.weights"), "--input-size", "96", "--channel-scale", "1/8",
                 "--batch-size", "4", "--epochs", "1", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and err.count("error:") == 1
    assert list(out.iterdir()) == []  # no weight file, no checkpoint


@pytest.mark.parametrize("max_iter", ["0", "-1"])
def test_anchors_rejects_fewer_than_one_iteration(pipeline, tmp_path, capsys, max_iter):
    _, data, _, _, _ = pipeline
    out = tmp_path / "anchors.txt"
    capsys.readouterr()
    assert main(["anchors", "--labels", str(data), "--out", str(out), "--k", "2",
                 "--input-size", "96", "--max-iter", max_iter]) == 1
    err = capsys.readouterr().err
    assert err == f"error: max_iter must be >= 1, got {max_iter}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "anchors", "train"])
def test_negative_seed_reports_one_line_error_before_writing(pipeline, tmp_path, capsys, command):
    _, data, anchors, _, _ = pipeline
    out = tmp_path / "out"
    args = {
        "synth": ["--out", str(out), "--num", "2"],
        "anchors": ["--labels", str(data), "--out", str(out), "--k", "2", "--input-size", "96"],
        "train": ["--manifest", str(data / "manifest.tsv"), "--classes", str(data / "classes.names"),
                  "--anchors", str(anchors), "--out", str(out), "--input-size", "96",
                  "--channel-scale", "1/8", "--batch-size", "4", "--epochs", "1"],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [["--image-size", "0"], ["--image-size", "-32"],
                                  ["--classes", ","], ["--num", "0"], ["--num", "-1"],
                                  ["--classes", "circle,circle"]])
def test_synth_rejects_what_it_cannot_draw(tmp_path, capsys, args):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--num", "2", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and err.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--iou", "1.5"), ("eval", "--iou", "0"), ("eval", "--iou", "nan"),
    ("eval", "--conf", "nan"), ("eval", "--nms", "-0.1"),
    ("detect", "--conf", "nan"), ("detect", "--conf", "1.5"), ("detect", "--nms", "nan"),
])
def test_threshold_outside_its_range_reports_one_line_error(pipeline, tmp_path, capsys,
                                                           command, flag, value):
    _, data, _, weights, _ = pipeline
    out = tmp_path / "out.txt"
    args = {
        "detect": ["--image", str(data / "img_0000.ppm"), "--out", str(out)],
        "eval": ["--manifest", str(data / "manifest.tsv"), "--classes", str(data / "classes.names"),
                 "--csv", str(out)],
    }[command]
    capsys.readouterr()
    assert main([command, "--model", str(weights), *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and err.count("error:") == 1
    assert not out.exists()
