import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import panoroom
from panoroom import cli, synth
from panoroom.cli import main
from panoroom.formats import read_pfm, write_pfm


def run(args):
    return main([str(a) for a in args])


def synth_tree(out_dir, seed=3, count=2, height=32, plan="rect", boxes=(1, 2)):
    rc = run(
        [
            "synth",
            "--seed", seed,
            "--count", count,
            "--plan", plan,
            "--out-dir", out_dir,
            "--height", height,
            "--boxes", *boxes,
        ]
    )
    assert rc == 0
    return out_dir


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_synth_outputs_and_determinism(tmp_path):
    a = synth_tree(str(tmp_path / "a"))
    b = synth_tree(str(tmp_path / "b"))
    ta = tree_bytes(a)
    tb = tree_bytes(b)
    assert set(ta) == set(tb)
    assert all(ta[k] == tb[k] for k in ta)
    expected = {"scene.json", "gt.pfm", "bg_gt.pfm", "layout.json", "segmask.pfm"}
    scene0 = {os.path.basename(k) for k in ta if k.startswith("scene_000")}
    assert scene0 == expected


def test_bg_pipeline_matches_oracle(tmp_path):
    d = synth_tree(str(tmp_path / "s"), count=1, boxes=(0, 0))
    scene_dir = os.path.join(d, "scene_000")
    out = str(tmp_path / "bg.pfm")
    rc = run(
        [
            "bg",
            "--layout", os.path.join(scene_dir, "layout.json"),
            "--coarse", os.path.join(scene_dir, "gt.pfm"),
            "--mode", "exact",
            "--aggregator", "median",
            "--out", out,
        ]
    )
    assert rc == 0
    bg = read_pfm(out)
    oracle = read_pfm(os.path.join(scene_dir, "bg_gt.pfm"))
    assert np.sqrt(np.mean((bg - oracle) ** 2)) < 1e-4


def test_fuse_seglabel_denoise_eval_round(tmp_path):
    d = synth_tree(str(tmp_path / "s"), count=1, boxes=(1, 2))
    sd = os.path.join(d, "scene_000")
    gt = os.path.join(sd, "gt.pfm")
    bg = os.path.join(sd, "bg_gt.pfm")
    seg = os.path.join(sd, "segmask.pfm")
    fused = str(tmp_path / "fused.pfm")
    assert run(["fuse", "--coarse", gt, "--bg", bg, "--seg", seg, "--out", fused]) == 0

    labels = str(tmp_path / "labels.pfm")
    assert run(["seglabel", "--gt", gt, "--bg", bg, "--gamma", 0.1, "--out", labels]) == 0
    lab = read_pfm(labels)
    assert set(np.unique(lab)) <= {0.0, 1.0}

    den = str(tmp_path / "den.pfm")
    room = os.path.join(sd, "scene.json")
    assert run(["denoise", "--gt", gt, "--bg", bg, "--room", room, "--slack", 1.0, "--out", den]) == 0
    assert np.array_equal(read_pfm(den), read_pfm(gt))  # clean input is untouched

    report = str(tmp_path / "m.json")
    assert run(["eval", "--pred", fused, "--gt", gt, "--json", report]) == 0
    m = json.load(open(report))
    assert set(m) == {"abs_rel", "sq_rel", "rmse", "mae", "delta1", "delta2", "delta3"}
    assert m["delta1"] <= m["delta2"] <= m["delta3"]


def test_pointcloud_export(tmp_path):
    values = np.ones((2, 4), dtype=np.float32)
    values[0, 0] = 0.0
    pfm = str(tmp_path / "d.pfm")
    write_pfm(values, pfm)
    ply = str(tmp_path / "d.ply")
    assert run(["pointcloud", "--depth", pfm, "--out", ply]) == 0
    text = open(ply).read()
    assert text.startswith("ply\nformat ascii 1.0\nelement vertex 7\n")
    assert len(text.strip().splitlines()) == 7 + 7


def test_error_line_and_exit_code(tmp_path, capsys):
    rc = run(["eval", "--pred", "missing.pfm", "--gt", "missing.pfm", "--json", str(tmp_path / "x")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_bad_pfm_gives_structured_error(tmp_path, capsys):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"P5\n1 1\n255\n\x00")
    rc = run(["pointcloud", "--depth", str(bad), "--out", str(tmp_path / "o.ply")])
    assert rc != 0
    assert "error: pfm-magic:" in capsys.readouterr().err


def assert_one_error_line(capsys, rc, code):
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: {code}: "), lines


def write_flat_pfm(path, height=4):
    write_pfm(np.ones((height, 2 * height), dtype=np.float32), str(path))
    return str(path)


GOOD_LAYOUT = {
    "width": 8, "height": 4, "ceil": [1.0] * 8, "floor": [3.0] * 8, "corner_prob": [0.0] * 8,
}


@pytest.mark.parametrize(
    "change",
    [
        {"floor": None},  # the key is missing
        {"width": "8"},
        {"height": 4.0},
        {"ceil": "1 1 1 1 1 1 1 1"},
        {"floor": [3.0] * 7},
        {"corner_prob": [[0.0, 0.0]] * 4},
        {"ceil": [[1.0], [1.0, 1.0]] * 4},
        {"ceil": [1.0] * 7 + [None]},
        {"ceil": [True] + [1.0] * 7},
    ],
    ids=["missing", "width-str", "height-float", "ceil-str", "floor-short", "prob-2d",
         "ragged", "null-item", "bool-item"],
)
def test_bg_layout_schema_errors(tmp_path, capsys, change):
    layout = {**GOOD_LAYOUT, **change}
    layout = {k: v for k, v in layout.items() if v is not None}
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(layout))
    coarse = write_flat_pfm(tmp_path / "coarse.pfm")
    rc = run(["bg", "--layout", path, "--coarse", coarse, "--out", tmp_path / "bg.pfm"])
    assert_one_error_line(capsys, rc, "schema")


@pytest.mark.parametrize(
    "room",
    [
        {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]], "cam_to_floor": 1.5},
        {"vertices": [[-1, -1], [1, -1], [1], [-1, 1]], "cam_to_floor": 1.5, "cam_to_ceil": 1.0},
        {"vertices": [[-1, -1, 0], [1, -1, 0]], "cam_to_floor": 1.5, "cam_to_ceil": 1.0},
        {"vertices": [["a", "b"]] * 4, "cam_to_floor": 1.5, "cam_to_ceil": 1.0},
        {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]], "cam_to_floor": "1.5",
         "cam_to_ceil": 1.0},
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],
    ],
    ids=["missing", "ragged", "3d", "strings", "height-str", "not-object"],
)
def test_denoise_room_schema_errors(tmp_path, capsys, room):
    path = tmp_path / "room.json"
    path.write_text(json.dumps(room))
    depth = write_flat_pfm(tmp_path / "d.pfm")
    rc = run(["denoise", "--gt", depth, "--bg", depth, "--room", path, "--out", tmp_path / "o.pfm"])
    assert_one_error_line(capsys, rc, "schema")


def test_wrong_aspect_pfm_is_shape_mismatch(tmp_path, capsys):
    square = tmp_path / "sq.pfm"
    write_pfm(np.ones((4, 4), dtype=np.float32), str(square))
    rc = run(["pointcloud", "--depth", square, "--out", tmp_path / "o.ply"])
    assert_one_error_line(capsys, rc, "shape-mismatch")
    assert not (tmp_path / "o.ply").exists()


def write_pfm_holding(path, value):
    values = np.ones((4, 8), dtype=np.float32)
    values[1, 2] = value
    write_pfm(values, str(path))
    return str(path)


def bg_with_layout(tmp_path, **change):
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({**GOOD_LAYOUT, **change}))
    coarse = write_flat_pfm(tmp_path / "coarse.pfm")
    return ["bg", "--layout", path, "--coarse", coarse, "--out", tmp_path / "bg.pfm"]


def test_bg_beyond_float32_is_value_range(tmp_path, capsys):
    # floor rows just below the horizon put the floor at a huge range, and a
    # near-float32-max coarse map scales it past the float32 range
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({"width": 16, "height": 8, "ceil": [1.0] * 16,
                                "floor": [4.001] * 16, "corner_prob": [0.0] * 16}))
    coarse = tmp_path / "coarse.pfm"
    write_pfm(np.full((8, 16), 3e38, dtype=np.float32), str(coarse))
    rc = run(["bg", "--layout", path, "--coarse", coarse, "--out", tmp_path / "bg.pfm"])
    assert_one_error_line(capsys, rc, "value-range")
    assert sorted(os.listdir(tmp_path)) == ["coarse.pfm", "layout.json"]


def denoise_with_slack(tmp_path, slack, cam_to_floor=1.5, x_max=1):
    room = tmp_path / "room.json"
    room.write_text(json.dumps(
        {"vertices": [[-1, -1], [x_max, -1], [x_max, 1], [-1, 1]],
         "cam_to_floor": cam_to_floor, "cam_to_ceil": 1.0}
    ))
    depth = write_flat_pfm(tmp_path / "d.pfm")
    return ["denoise", "--gt", depth, "--bg", depth, "--room", room, "--slack", slack,
            "--out", tmp_path / "o.pfm"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (lambda p: ["pointcloud", "--depth", write_pfm_holding(p / "d.pfm", np.nan),
                    "--out", p / "o.ply"], "value-range"),
        (lambda p: ["pointcloud", "--depth", write_pfm_holding(p / "d.pfm", -1.0),
                    "--out", p / "o.ply"], "value-range"),
        (lambda p: bg_with_layout(p, width=8, height=8), "shape-mismatch"),
        (lambda p: bg_with_layout(p, corner_prob=[2.0] * 8), "value-range"),
        (lambda p: bg_with_layout(p, ceil=[3.0] * 8), "value-range"),
        (lambda p: denoise_with_slack(p, -1), "value-range"),
        (lambda p: denoise_with_slack(p, "nan"), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, cam_to_floor=10**400), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, x_max=10**400), "value-range"),
        (lambda p: ["fuse", "--coarse", write_flat_pfm(p / "c.pfm"), "--bg", p / "c.pfm",
                    "--seg", write_pfm_holding(p / "s.pfm", 1.5), "--out", p / "o.pfm"],
         "value-range"),
        (lambda p: ["seglabel", "--gt", write_flat_pfm(p / "g.pfm"), "--bg", p / "g.pfm",
                    "--gamma", -1, "--out", p / "o.pfm"], "value-range"),
        (lambda p: ["seglabel", "--gt", write_flat_pfm(p / "g.pfm"), "--bg", p / "g.pfm",
                    "--gamma", "nan", "--out", p / "o.pfm"], "value-range"),
        (lambda p: ["synth", "--seed", 0, "--count", 1, "--out-dir", p / "s",
                    "--boxes", 3, 1], "value-range"),
    ],
    ids=["pfm-nan", "pfm-negative", "layout-8x8", "corner-prob-2", "ceil-rows",
         "slack-negative", "slack-nan", "room-height-overflow", "room-vertex-overflow",
         "seg-above-1", "gamma-negative", "gamma-nan",
         "boxes-reversed"],
)
def test_value_errors_get_their_code(tmp_path, capsys, argv, code):
    rc = run(argv(tmp_path))
    assert_one_error_line(capsys, rc, code)


def _truncated(text):
    return text[:60].encode()


def _not_utf8(text):
    return text[:20].encode() + b"\xff" + text[20:].encode()


def _nested_too_deep(text):
    return b"[" * 100_000


@pytest.mark.parametrize(
    "command, damage",
    [("bg", _truncated), ("denoise", _truncated), ("bg", _not_utf8), ("denoise", _not_utf8),
     ("bg", _nested_too_deep)],
    ids=["bg", "denoise", "bg-not-utf8", "denoise-not-utf8", "bg-nested-too-deep"],
)
def test_truncated_json_is_schema(tmp_path, capsys, command, damage):
    path = tmp_path / "doc.json"
    depth = write_flat_pfm(tmp_path / "d.pfm")
    if command == "bg":
        path.write_bytes(damage(json.dumps(GOOD_LAYOUT)))
        argv = ["bg", "--layout", path, "--coarse", depth, "--out", tmp_path / "o.pfm"]
    else:
        room = {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]], "cam_to_floor": 1.5,
                "cam_to_ceil": 1.0}
        path.write_bytes(damage(json.dumps(room)))
        argv = ["denoise", "--gt", depth, "--bg", depth, "--room", path, "--out", tmp_path / "o.pfm"]
    rc = run(argv)
    assert_one_error_line(capsys, rc, "schema")


@pytest.mark.parametrize("count", [0, -3])
def test_synth_count_below_one_is_value_range(tmp_path, capsys, count):
    rc = run(["synth", "--seed", 0, "--count", count, "--out-dir", tmp_path / "s"])
    assert_one_error_line(capsys, rc, "value-range")
    assert not (tmp_path / "s").exists()


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_pfm_header_on_a_tiny_file(tmp_path):
    """A header declaring 100000 x 50000 pixels (a 20 GB payload) on a file
    of a few bytes is reported as truncated before anything is allocated.
    The CLI runs in a child whose address space is capped at 1 GiB, so
    that reading the declared size could only fail there."""
    pfm = tmp_path / "huge.pfm"
    pfm.write_bytes(b"Pf\n100000 50000\n-1.0\n" + b"\x00" * 64)
    src = os.path.dirname(os.path.dirname(panoroom.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "panoroom.cli", "pointcloud", "--depth", str(pfm),
         "--out", str(tmp_path / "o.ply")],
        env=env, preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: pfm-truncated: "), lines
    assert not (tmp_path / "o.ply").exists()


def test_camera_placement_failure_is_placement(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(synth, "CAMERA_WALL_CLEARANCE", 100.0)
    rc = run(["synth", "--seed", 0, "--count", 1, "--out-dir", tmp_path / "s", "--height", 16])
    assert_one_error_line(capsys, rc, "placement")


def test_loaded_maps_are_read_only_float64(tmp_path):
    values = np.linspace(0.0, 1.0, 32, dtype=np.float32).reshape(4, 8)
    path = tmp_path / "m.pfm"
    write_pfm(values, str(path))
    for load in (cli._load_depth, cli._load_seg):
        loaded = load(str(path))
        assert loaded.grid.shape == (4, 8)
        assert loaded.values.dtype == np.float64 and not loaded.values.flags.writeable
        assert np.array_equal(loaded.values, values)
