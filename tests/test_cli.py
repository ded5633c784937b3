import errno
import json
import os
import resource
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import panoroom
from panoroom import cli, equirect, formats, synth
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


def eval_one_pixel(tmp_path, pred_value):
    """``eval`` on 2x1 maps with one valid pixel: gt 1, pred ``pred_value``."""
    pred = str(tmp_path / "p.pfm")
    gt = str(tmp_path / "g.pfm")
    write_pfm(np.array([[pred_value, 5.0]], dtype=np.float32), pred)
    write_pfm(np.array([[1.0, 0.0]], dtype=np.float32), gt)
    report = tmp_path / "m.json"
    assert run(["eval", "--pred", pred, "--gt", gt, "--json", report]) == 0
    return cli._load(panoroom.DepthMap, pred), cli._load(panoroom.DepthMap, gt), report


def test_report_json_nine_significant_digits(tmp_path):
    pred, gt, report = eval_one_pixel(tmp_path, 1.23456789123)
    metrics = panoroom.eval_metrics(pred, gt).to_dict()
    rounded = {k: float(f"{v:.9g}") for k, v in metrics.items()}
    assert rounded["abs_rel"] != metrics["abs_rel"]  # more digits than the report keeps
    assert report.read_bytes() == (json.dumps(rounded, indent=2) + "\n").encode("ascii")


def test_eval_writes_through_formats_write_json(tmp_path, monkeypatch):
    written = []
    write_json = formats.write_json

    def spy(obj, path):
        written.append(path)
        write_json(obj, path)

    monkeypatch.setattr(formats, "write_json", spy)
    _, _, report = eval_one_pixel(tmp_path, 2.0)
    assert written == [str(report)]


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


def write_bytes(path, payload):
    path.write_bytes(payload)
    return str(path)


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


def denoise_with_slack(tmp_path, slack, cam_to_floor=1.5, x_max=1, clockwise=False,
                       vertex=(-1, -1)):
    vertices = [list(vertex), [x_max, -1], [x_max, 1], [-1, 1]]
    room = tmp_path / "room.json"
    room.write_text(json.dumps(
        {"vertices": vertices[::-1] if clockwise else vertices,
         "cam_to_floor": cam_to_floor, "cam_to_ceil": 1.0}
    ))
    depth = write_flat_pfm(tmp_path / "d.pfm")
    return ["denoise", "--gt", depth, "--bg", depth, "--room", room, "--slack", slack,
            "--out", tmp_path / "o.pfm"]


def test_denoise_slack_near_the_float_maximum_warns_nothing(tmp_path, capsys):
    outputs = []
    for slack in ("1e308", "inf"):
        (tmp_path / slack).mkdir()
        assert run(denoise_with_slack(tmp_path / slack, slack)) == 0
        outputs.append((tmp_path / slack / "o.pfm").read_bytes())
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1]


def test_denoise_room_height_reaches_the_length_bound_and_no_further(tmp_path, capsys):
    bound = 2.0**500
    assert run(denoise_with_slack(tmp_path, 1.0, cam_to_floor=bound)) == 0
    assert capsys.readouterr().err == ""
    past = float(np.nextafter(bound, np.inf))
    assert_one_error_line(capsys, run(denoise_with_slack(tmp_path, 1.0, cam_to_floor=past)),
                          "value-range")


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
        (lambda p: denoise_with_slack(p, 1.0, cam_to_floor=float("inf")), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, cam_to_floor=-1), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, cam_to_floor=float("nan")), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, vertex=(float("inf"), -1)), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, vertex=(-1e200, -1e200)), "value-range"),
        (lambda p: denoise_with_slack(p, 1.0, cam_to_floor=1e308), "value-range"),
        (lambda p: ["fuse", "--coarse", write_flat_pfm(p / "c.pfm"), "--bg", p / "c.pfm",
                    "--seg", write_pfm_holding(p / "s.pfm", 1.5), "--out", p / "o.pfm"],
         "value-range"),
        (lambda p: ["seglabel", "--gt", write_flat_pfm(p / "g.pfm"), "--bg", p / "g.pfm",
                    "--gamma", -1, "--out", p / "o.pfm"], "value-range"),
        (lambda p: ["seglabel", "--gt", write_flat_pfm(p / "g.pfm"), "--bg", p / "g.pfm",
                    "--gamma", "nan", "--out", p / "o.pfm"], "value-range"),
        (lambda p: ["synth", "--seed", 0, "--count", 1, "--out-dir", p / "s",
                    "--boxes", 3, 1], "value-range"),
        (lambda p: ["synth", "--seed", 0, "--count", 1, "--out-dir", p / "s", "--height", 8,
                    "--boxes", 0, 99999999999999999999], "value-range"),
        (lambda p: ["synth", "--seed", 0, "--count", 1, "--out-dir", p / "s", "--height", 8,
                    "--boxes", 0, 100000000], "value-range"),
        # refused before any map is allocated
        (lambda p: ["synth", "--seed", 0, "--count", 1, "--out-dir", p / "s",
                    "--height", equirect._MAX_HEIGHT + 1], "value-range"),
        (lambda p: bg_with_layout(p, width=2 * equirect._MAX_HEIGHT + 2,
                                  height=equirect._MAX_HEIGHT + 1), "value-range"),
        (lambda p: ["pointcloud", "--depth", write_bytes(p / "d.pfm", b"P5\n8 4\n255\n"),
                    "--out", p / "o.ply"], "pfm-magic"),
        (lambda p: ["pointcloud", "--depth", write_bytes(p / "d.pfm", b"Pf\n8 4\nnan\n"
                                                         + b"\x00\x00\x80\x3f" * 32),
                    "--out", p / "o.ply"], "pfm-header"),
        (lambda p: ["eval", "--pred", write_flat_pfm(p / "p.pfm"),
                    "--gt", write_bytes(p / "g.pfm", b"Pf\n8 4\n-1.0\n" + bytes(128)),
                    "--json", p / "m.json"], "no-valid-samples"),
        (lambda p: denoise_with_slack(p, 1.0, clockwise=True), "polygon"),
    ],
    ids=["pfm-nan", "pfm-negative", "layout-8x8", "corner-prob-2", "ceil-rows",
         "slack-negative", "slack-nan", "room-height-overflow", "room-vertex-overflow",
         "room-height-inf", "room-height-negative", "room-height-nan", "room-vertex-inf",
         "room-vertex-huge", "room-height-1e308",
         "seg-above-1", "gamma-negative", "gamma-nan",
         "boxes-reversed", "boxes-beyond-int64", "boxes-over-bound", "synth-height-over-bound",
         "layout-over-bound", "pfm-magic",
         "pfm-nan-scale", "gt-all-zero", "room-clockwise"],
)
def test_value_errors_get_their_code(tmp_path, capsys, argv, code):
    rc = run(argv(tmp_path))
    assert_one_error_line(capsys, rc, code)


@pytest.mark.parametrize(
    "argv",
    [lambda p: ["synth", "--seed", "x", "--count", 1, "--out-dir", p / "s"],
     lambda p: ["bg", "--layout", p / "layout.json"]],
    ids=["bad-int", "missing-option"],
)
def test_usage_errors_get_their_code(tmp_path, capsys, argv):
    rc = run(argv(tmp_path))
    assert_one_error_line(capsys, rc, "usage")
    assert os.listdir(tmp_path) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        run(["bg", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: panoroom bg")


def _truncated(text):
    return text[:60].encode()


def _not_utf8(text):
    return text[:20].encode() + b"\xff" + text[20:].encode()


def _nested_too_deep(text):
    return b"[" * 100_000


def _too_many_digits(text):
    # past sys.get_int_max_str_digits(), which Python's decoder refuses
    return text.replace("1.5", "1" + "0" * 5000, 1).encode()


@pytest.mark.parametrize(
    "command, damage",
    [("bg", _truncated), ("denoise", _truncated), ("bg", _not_utf8), ("denoise", _not_utf8),
     ("bg", _nested_too_deep), ("denoise", _too_many_digits)],
    ids=["bg", "denoise", "bg-not-utf8", "denoise-not-utf8", "bg-nested-too-deep",
         "denoise-too-many-digits"],
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


def test_synth_negative_seed_is_value_range(tmp_path, capsys):
    rc = run(["synth", "--seed", -1, "--count", 1, "--out-dir", tmp_path / "s", "--height", 16])
    assert_one_error_line(capsys, rc, "value-range")
    assert not (tmp_path / "s").exists()


def scene_seeds(out_dir):
    return [json.loads(p.read_text())["seed"] for p in sorted(out_dir.glob("scene_*/scene.json"))]


def test_synth_seed_beyond_64_bits_is_its_own_scene(tmp_path):
    synth_tree(tmp_path / "big", seed=2**64, count=1, height=16)
    synth_tree(tmp_path / "zero", seed=0, count=1, height=16)
    assert scene_seeds(tmp_path / "big") == [2**64]
    gt = [(tmp_path / d / "scene_000" / "gt.pfm").read_bytes() for d in ("big", "zero")]
    assert gt[0] != gt[1]


def test_synth_seeds_run_past_64_bits(tmp_path):
    synth_tree(tmp_path / "s", seed=2**64 - 1, count=2, height=16)
    assert scene_seeds(tmp_path / "s") == [2**64 - 1, 2**64]


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


def test_oversized_pfm_dimensions_on_a_stream(tmp_path, capsys):
    """A stream has no length to check its header against, so dimensions
    beyond the largest grid are refused before the payload is allocated."""
    fifo = tmp_path / "depth.pfm"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(b"Pf\n100000000000 100000000000\n-1.0\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    rc = run(["pointcloud", "--depth", fifo, "--out", tmp_path / "o.ply"])
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_one_error_line(capsys, rc, "pfm-header")
    assert not (tmp_path / "o.ply").exists()


def test_camera_placement_failure_is_placement(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(synth, "CAMERA_WALL_CLEARANCE", 100.0)
    rc = run(["synth", "--seed", 0, "--count", 1, "--out-dir", tmp_path / "s", "--height", 16])
    assert_one_error_line(capsys, rc, "placement")


def test_loaded_maps_are_read_only_float64(tmp_path):
    values = np.linspace(0.0, 1.0, 32, dtype=np.float32).reshape(4, 8)
    path = tmp_path / "m.pfm"
    write_pfm(values, str(path))
    for cls in (panoroom.DepthMap, panoroom.SegMap):
        loaded = cli._load(cls, str(path))
        assert loaded.grid.shape == (4, 8)
        assert loaded.values.dtype == np.float64 and not loaded.values.flags.writeable
        assert np.array_equal(loaded.values, values)


@pytest.mark.parametrize("cls", [panoroom.DepthMap, panoroom.SegMap])
def test_public_construction_from_float32_makes_one_array(cls):
    """Public construction from a float32 1024 x 512 map, as the loaders
    get one from a PFM, widens it once: its traced allocations peak below
    4.1 MiB, the 4 MiB float64 copy, as the range check takes the map's
    minimum and maximum without a whole-map mask."""
    grid = equirect.GridSpec(width=1024, height=512)
    values = np.full(grid.shape, 0.5, dtype=np.float32)
    tracemalloc.start()
    try:
        loaded = cls(grid=grid, values=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.dtype == np.float64 and np.array_equal(loaded.values, values)
    assert peak < 4.1 * 2**20


# --- synth renders and writes its three maps band by band --------------------

MAPS = ("gt.pfm", "bg_gt.pfm", "segmask.pfm")
SCENE_FILES = MAPS + ("layout.json", "scene.json")


def synth_argv(out_dir, seed):
    # 512 x 256: 32-row render bands, and each map written in two 128-row chunks
    return ["synth", "--seed", seed, "--count", 1, "--out-dir", out_dir, "--height", 256,
            "--boxes", 2, 4]


def files_of(scene_dir):
    """The bytes of all five files of a scene."""
    return {n: (scene_dir / n).read_bytes() for n in SCENE_FILES}


def test_non_finite_shell_mid_stream_leaves_every_map(tmp_path, capsys, monkeypatch):
    assert run(synth_argv(tmp_path, 5)) == 0
    scene_dir = tmp_path / "scene_000"
    before = files_of(scene_dir)
    real = synth._kernels.shell_band

    def leaky(parts, grid, rows, out):
        shell = real(parts, grid, rows, out)
        # row 200 renders after rows 0-127, the first chunk of every file, are written
        if rows.start <= 200 < rows.stop:
            shell[200 - rows.start, 7] = np.nan
        return shell

    monkeypatch.setattr(synth._kernels, "shell_band", leaky)
    rc = run(synth_argv(tmp_path, 6))
    assert_one_error_line(capsys, rc, "value-range")
    assert files_of(scene_dir) == before
    assert not list(scene_dir.glob("*.tmp"))


class FullDisk:
    """A binary file that takes ``writes`` writes, then fails the next with
    ENOSPC, as a disk that has just filled up."""

    def __init__(self, f, writes):
        self.f = f
        self.writes = writes

    def write(self, data):
        if self.writes == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes -= 1
        return self.f.write(data)

    def seek(self, offset):
        return self.f.seek(offset)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.mark.parametrize("failing", SCENE_FILES)
def test_failed_band_write_leaves_every_map(tmp_path, capsys, monkeypatch, failing):
    assert run(synth_argv(tmp_path, 5)) == 0
    scene_dir = tmp_path / "scene_000"
    before = files_of(scene_dir)
    real = os.fdopen
    opened = []

    def fdopen(fd, mode):
        opened.append(real(fd, mode))
        # the files are opened in SCENE_FILES order. A failing map takes
        # its header and first chunk, and the disk fills on its last chunk,
        # after every other map has written its first; a JSON file's one
        # write fails, after all three maps are written.
        if len(opened) == 1 + SCENE_FILES.index(failing):
            return FullDisk(opened[-1], writes=2 if failing in MAPS else 0)
        return opened[-1]

    monkeypatch.setattr(os, "fdopen", fdopen)
    rc = run(synth_argv(tmp_path, 6))
    assert_one_error_line(capsys, rc, "io")
    assert files_of(scene_dir) == before
    assert not list(scene_dir.glob("*.tmp"))


def test_scene_files_replace_their_paths_in_order_once_all_are_written(tmp_path, monkeypatch):
    replace = os.replace
    calls = []  # (file name, temp files beside it) at each rename

    def record(src, dst):
        calls.append((os.path.basename(dst), len(list((tmp_path / "scene_000").glob("*.tmp")))))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", record)
    assert run(synth_argv(tmp_path, 5)) == 0
    assert calls == [(name, len(SCENE_FILES) - i) for i, name in enumerate(SCENE_FILES)]


@pytest.mark.parametrize(
    "plan, boxes", [("rect", 4), ("lshape", 4), ("rect", 200)], ids=["rect", "lshape", "rect-200"]
)
def test_synth_scene_peaks_below_one_map(tmp_path, plan, boxes):
    """A 1024 x 512 scene with 4 or 200 boxes is rendered and written
    without a whole-grid map: in a warm process its traced allocations peak
    below one float64 map of the grid (4 MiB), however much of the sphere
    the boxes cover."""
    argv = ["synth", "--seed", 0, "--count", 1, "--plan", plan, "--out-dir", tmp_path,
            "--height", 512, "--boxes", boxes, boxes]
    assert run(argv) == 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads((tmp_path / "scene_000" / "scene.json").read_text())["boxes"]) == boxes
    assert peak < 512 * 1024 * 8
