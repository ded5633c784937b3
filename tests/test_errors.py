"""Every library check raises a ``PanoroomError`` whose ``code`` names the
cause, so that no caller has to tell failures apart by message."""

import math

import numpy as np
import pytest

from panoroom import (
    CameraHeights,
    DepthMap,
    FocalParams,
    GridSpec,
    LayoutMap,
    LossWeights,
    ManhattanRoom,
    NoiseSpec,
    SceneConfig,
    SceneSpec,
    eval_metrics,
    extract_corners,
    generate_scene,
    resolve_background_depth,
    resolve_camera_heights,
    room_to_layout,
    total_loss,
)
from panoroom import cli, errors, synth
from panoroom.bgdepth import cap_depth, wall_depth
from panoroom.errors import PanoroomError
from panoroom.formats import (
    layout_from_dict,
    layout_to_dict,
    read_pfm,
    write_pfm,
    write_ply_pointcloud,
)

from conftest import make_scene

GRID = GridSpec(width=16, height=8)
SCENE = make_scene(0)
LAYOUT = room_to_layout(SCENE.room, GRID)
COARSE = DepthMap(grid=GRID, values=np.ones(GRID.shape))
HEIGHTS = CameraHeights(up=1.0, down=1.5)
SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


@pytest.mark.parametrize(
    "call, code",
    [
        (lambda: FocalParams(alpha=0.0), "value-range"),
        (lambda: FocalParams(eta=-1.0), "value-range"),
        (lambda: LossWeights(lambda2=-1.0), "value-range"),
        (lambda: total_loss(1.0, math.nan, 1.0), "value-range"),
        (lambda: resolve_background_depth(LAYOUT, HEIGHTS, GRID, mode="approx"), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[0, 0, 0, 1, -1, 1], seed=0), "value-range"),
        (lambda: NoiseSpec(salt_frac=1.5), "value-range"),
        (lambda: NoiseSpec(salt_frac=0.6, outlier_frac=0.6), "value-range"),
        (lambda: NoiseSpec(outlier_offset=0.0), "value-range"),
        (lambda: SceneConfig(plan="round"), "value-range"),
        (lambda: SceneConfig(box_count_range=(0, synth.MAX_BOXES + 1)), "value-range"),
        (lambda: write_pfm(np.ones((2, 4, 1)), "unwritten.pfm"), "shape-mismatch"),
        (lambda: cap_depth(np.pi / 2, 1.5, "Exact"), "value-range"),
        (lambda: wall_depth(0.5, 2.0, "exakt"), "value-range"),
        (lambda: generate_scene(-1), "value-range"),
        (lambda: NoiseSpec(seed=-1), "value-range"),
        (lambda: write_ply_pointcloud(np.ones((4, 4)), "unwritten.ply"), "shape-mismatch"),
        (lambda: write_ply_pointcloud(np.ones((2, 4, 1)), "unwritten.ply"), "shape-mismatch"),
        (lambda: layout_to_dict(LAYOUT, GridSpec(width=8, height=4)), "shape-mismatch"),
        (lambda: write_pfm(np.empty((3, 0)), "unwritten.pfm"), "value-range"),
        (lambda: write_pfm(np.empty((0, 4)), "unwritten.pfm"), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[0, 0, 0, 1, 1, math.nan], seed=0), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[0, 0, 0, 1, 1, math.inf], seed=0), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=np.empty((0, 6)), seed=-1), "value-range"),
        (lambda: NoiseSpec(outlier_offset=math.nan), "value-range"),
        (lambda: NoiseSpec(outlier_offset=math.inf), "value-range"),
        (lambda: FocalParams(eta=math.nan), "value-range"),
        (lambda: FocalParams(eta=math.inf), "value-range"),
        (lambda: LossWeights(lambda1=math.nan), "value-range"),
        (lambda: LossWeights(lambda1=math.inf), "value-range"),
        (lambda: GridSpec(width=64.0, height=32.0), "value-range"),
        (lambda: GridSpec(width=2, height=True), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[0, 0, 0, 1, 1], seed=0), "shape-mismatch"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[[0, 0, 0, 1, 1, 1], [0, 1]], seed=0),
         "shape-mismatch"),
        (lambda: SceneSpec(room=SCENE.room, boxes=np.empty((0, 6)), seed=1.5), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=np.empty((0, 6)), seed=True), "value-range"),
        (lambda: generate_scene(1.5), "value-range"),
        (lambda: generate_scene("3"), "value-range"),
        (lambda: generate_scene(True), "value-range"),
        (lambda: NoiseSpec(seed=1.5), "value-range"),
        (lambda: NoiseSpec(seed=True), "value-range"),
        (lambda: ManhattanRoom(SQUARE, cam_to_floor=0.0, cam_to_ceil=1.0), "value-range"),
        (lambda: ManhattanRoom(SQUARE, cam_to_floor=-1.0, cam_to_ceil=1.0), "value-range"),
        (lambda: ManhattanRoom(SQUARE, cam_to_floor=math.nan, cam_to_ceil=1.0), "value-range"),
        (lambda: ManhattanRoom(SQUARE, cam_to_floor=math.inf, cam_to_ceil=1.0), "value-range"),
        (lambda: ManhattanRoom(SQUARE, cam_to_floor=1.5, cam_to_ceil=-1.0), "value-range"),
        (lambda: ManhattanRoom([[math.nan, -1.0]] + SQUARE[1:], 1.5, 1.0), "value-range"),
        (lambda: ManhattanRoom([[math.inf, -1.0]] + SQUARE[1:], 1.5, 1.0), "value-range"),
        (lambda: SceneConfig(box_count_range=(0.5, 2)), "value-range"),
        (lambda: SceneConfig(box_count_range=("0", "3")), "value-range"),
        (lambda: SceneConfig(box_count_range=(None, 2)), "value-range"),
        (lambda: SceneConfig(box_count_range=(True, 2)), "value-range"),
        (lambda: SceneConfig(box_count_range=(0, math.nan)), "value-range"),
    ],
    ids=["focal-alpha", "focal-eta", "loss-weight", "loss-term", "mode", "box-extent",
         "noise-fraction", "noise-sum", "noise-offset", "plan", "box-count", "pfm-3d",
         "cap-mode", "wall-mode", "scene-seed", "noise-seed", "ply-not-2-to-1", "ply-3d",
         "layout-grid", "pfm-zero-width", "pfm-zero-height", "box-nan", "box-inf",
         "spec-seed", "noise-offset-nan", "noise-offset-inf", "focal-eta-nan", "focal-eta-inf",
         "loss-weight-nan", "loss-weight-inf", "grid-float", "grid-bool", "box-size",
         "box-ragged", "spec-seed-float", "spec-seed-bool", "scene-seed-float",
         "scene-seed-str", "scene-seed-bool", "noise-seed-float", "noise-seed-bool",
         "room-floor-zero", "room-floor-negative", "room-floor-nan", "room-floor-inf",
         "room-ceil-negative", "room-vertex-nan", "room-vertex-inf", "box-count-float",
         "box-count-str", "box-count-none", "box-count-bool", "box-count-nan"],
)
def test_library_errors_carry_a_code(call, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(PanoroomError) as info:
        call()
    assert info.value.code == code
    assert isinstance(info.value, ValueError)
    # a refused call creates no file, not even a temp file
    assert list(tmp_path.iterdir()) == []


def _pfm(tmp_path, data: bytes) -> str:
    path = tmp_path / "in.pfm"
    path.write_bytes(data)
    return str(path)


def _no_placement(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "CAMERA_WALL_CLEARANCE", 100.0)
    generate_scene(0)


# One minimal trigger per leaf error class, keyed by its code.
CENSUS = {
    "shape-mismatch": lambda tmp_path, mp: GridSpec(width=8, height=8),
    "value-range": lambda tmp_path, mp: write_pfm(np.full((2, 4), 1e39), str(tmp_path / "o.pfm")),
    "corner-extraction": lambda tmp_path, mp: extract_corners(
        LayoutMap(LAYOUT.ceil_rows, LAYOUT.floor_rows, np.zeros(GRID.width))),
    "polygon": lambda tmp_path, mp: ManhattanRoom(np.zeros((3, 2)), 1.0, 1.0),
    "no-valid-samples": lambda tmp_path, mp: eval_metrics(
        COARSE, DepthMap(grid=GRID, values=np.zeros(GRID.shape))),
    "placement": _no_placement,
    "pfm-magic": lambda tmp_path, mp: read_pfm(_pfm(tmp_path, b"PF\n2 1\n-1.0\n")),
    "pfm-header": lambda tmp_path, mp: read_pfm(_pfm(tmp_path, b"Pf\nx 1\n-1.0\n")),
    "pfm-truncated": lambda tmp_path, mp: read_pfm(_pfm(tmp_path, b"Pf\n2 1\n-1.0\n\0")),
    "schema": lambda tmp_path, mp: layout_from_dict({}),
    "usage": lambda tmp_path, mp: cli.build_parser().parse_args(["synth"]),
}


def test_census_covers_every_leaf_code():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, PanoroomError)]
    leaves = {c.code for c in classes if not any(o is not c and issubclass(o, c) for o in classes)}
    assert set(CENSUS) == leaves


@pytest.mark.parametrize("code", sorted(CENSUS))
def test_census_trigger_raises_its_code(code, tmp_path, monkeypatch):
    with pytest.raises(PanoroomError) as info:
        CENSUS[code](tmp_path, monkeypatch)
    assert info.value.code == code
