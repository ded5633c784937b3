"""Every library check raises a ``PanoroomError`` whose ``code`` names the
cause, so that no caller has to tell failures apart by message."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    SegMap,
    denoise_depth,
    derive_seg_labels,
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
from panoroom.denoise import shell_outside_distance
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
SMALL_DEPTH = DepthMap(grid=GridSpec(width=8, height=4), values=np.ones((4, 8)))
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
        (lambda: SceneSpec(room=SCENE.room, boxes=[["a"] * 6], seed=0), "value-range"),
        (lambda: LayoutMap([[1.0, 1.0]], [2.0], [0.0]), "shape-mismatch"),
        (lambda: ManhattanRoom(1e200 * np.array(SQUARE), 1.5, 1.0), "value-range"),
        # integers past Python's 4300-digit decimal limit, named in the message
        (lambda: CameraHeights(up=10**5000, down=1.0), "value-range"),
        (lambda: generate_scene(-(10**5000)), "value-range"),
        (lambda: GridSpec(width=10**5000, height=4), "shape-mismatch"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[-1e308] * 3 + [1e308] * 3, seed=0),
         "value-range"),
        # a map on another grid than the one asked for
        (lambda: resolve_camera_heights(LAYOUT, SMALL_DEPTH, GRID), "shape-mismatch"),
        (lambda: denoise_depth(COARSE, COARSE, SCENE.room, SMALL_DEPTH.grid), "shape-mismatch"),
        # numpy complex numbers are not real numbers, in a value type or a writer
        (lambda: DepthMap(grid=GRID, values=np.ones(GRID.shape, complex)), "value-range"),
        (lambda: ManhattanRoom([np.complex128(v) for v in SQUARE], 1.5, 1.0), "value-range"),
        (lambda: write_pfm(np.array([[1 + 1j, 2.0]]), "unwritten.pfm"), "value-range"),
        (lambda: write_ply_pointcloud(np.ones((2, 4), complex), "unwritten.ply"), "value-range"),
        (lambda: write_pfm([["a", "b"]], "unwritten.pfm"), "value-range"),
        (lambda: write_ply_pointcloud([["a", "b"]], "unwritten.ply"), "value-range"),
        (lambda: write_pfm([[1.0, 2.0], [3.0]], "unwritten.pfm"), "shape-mismatch"),
        (lambda: shell_outside_distance(SCENE.room, [["a", "b", "c"]]), "value-range"),
        (lambda: shell_outside_distance(SCENE.room, [[1, 2, 3], [4, 5]]), "shape-mismatch"),
        (lambda: shell_outside_distance(SCENE.room, [1.0, 2.0]), "shape-mismatch"),
        (lambda: shell_outside_distance(SCENE.room, [math.inf, 0.0, 0.0]), "value-range"),
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
         "box-count-str", "box-count-none", "box-count-bool", "box-count-nan", "box-strings",
         "layout-2d", "room-vertex-huge", "height-5000-digits", "seed-5000-digits",
         "grid-5000-digits", "box-beyond-bound", "heights-coarse-grid", "denoise-grid",
         "depth-complex", "room-vertex-complex", "pfm-complex", "ply-complex", "pfm-strings",
         "ply-strings", "pfm-ragged", "points-strings", "points-ragged", "points-not-triples",
         "points-inf"],
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


# The census of public entry points and wrong values: each value passed to
# each entry point, and the code the call raises (None: accepted). Numbers
# follow one rule wherever the library takes one: a value that is not a
# Python or numpy real number, or is a bool, is ``value-range``; an array
# of non-numbers is ``value-range`` too, and an array of the wrong shape
# takes its type's shape code.
CENSUS_VALUES = {
    "str": "1.5", "none": None, "bool": True, "list": [1.0], "tuple": (1,), "five": 5,
    "minus-one": -1, "zero": 0, "nan": math.nan, "inf": math.inf, "nested": [[1, 2]],
    "array": np.array([1.0, 2.0]), "dict": {"a": 1}, "strings": [["a", "b"]] * 4, "huge": 1e300,
}
NOT_NUMBERS = {"dict": "value-range", "strings": "value-range"}
# entry point: (call, the code of most values, the values that differ)
CENSUS_ENTRIES = {
    "box-count-range": (lambda v: SceneConfig(box_count_range=v), "value-range", {}),
    "plan": (lambda v: SceneConfig(plan=v), "value-range", {}),
    "layout-ceil": (lambda v: LayoutMap(v, LAYOUT.floor_rows, LAYOUT.corner_prob),
                    "shape-mismatch", NOT_NUMBERS),
    "height-up": (lambda v: CameraHeights(up=v, down=1.0), "value-range", {"five": None}),
    "room-floor": (lambda v: ManhattanRoom(SQUARE, cam_to_floor=v, cam_to_ceil=1.0),
                   "value-range", {"five": None}),
    "room-vertices": (lambda v: ManhattanRoom(v, 1.5, 1.0), "polygon", NOT_NUMBERS),
    "focal-alpha": (lambda v: FocalParams(alpha=v), "value-range", {}),
    "loss-weight": (lambda v: LossWeights(lambda1=v), "value-range",
                    {"five": None, "zero": None, "huge": None}),
    "loss-term": (lambda v: total_loss(v, 1.0, 1.0), "value-range",
                  {"five": None, "minus-one": None, "zero": None, "huge": None}),
    "gamma": (lambda v: derive_seg_labels(COARSE, COARSE, gamma=v), "value-range",
              {"five": None, "inf": None, "huge": None}),
    "depth-values": (lambda v: DepthMap(grid=GRID, values=v), "shape-mismatch", NOT_NUMBERS),
    "grid": (lambda v: GridSpec(width=v, height=v), "value-range", {"five": "shape-mismatch"}),
    "noise-seed": (lambda v: NoiseSpec(seed=v), "value-range", {"five": None, "zero": None}),
    "scene-seed": (lambda v: generate_scene(v), "value-range", {"five": None, "zero": None}),
}


@pytest.mark.parametrize("entry, value", itertools.product(CENSUS_ENTRIES, CENSUS_VALUES))
def test_census_of_wrong_values(entry, value):
    call, code, differing = CENSUS_ENTRIES[entry]
    code = differing.get(value, code)
    if code is None:
        call(CENSUS_VALUES[value])
        return
    with pytest.raises(PanoroomError) as info:
        call(CENSUS_VALUES[value])
    assert info.value.code == code


TINY = GridSpec(width=4, height=2)
TINY_DEPTH = DepthMap(grid=TINY, values=np.ones(TINY.shape))
TINY_ROWS = [0.5] * 4, [1.5] * 4, [0.0] * 4
# every public value type field and scalar argument, each taking the drawn value
TAKERS = {
    "GridSpec.width": lambda v: GridSpec(width=v, height=2),
    "GridSpec.height": lambda v: GridSpec(width=4, height=v),
    "CameraHeights.up": lambda v: CameraHeights(up=v, down=1.0),
    "CameraHeights.down": lambda v: CameraHeights(up=1.0, down=v),
    "LayoutMap.ceil_rows": lambda v: LayoutMap(v, *TINY_ROWS[1:]),
    "LayoutMap.floor_rows": lambda v: LayoutMap(TINY_ROWS[0], v, TINY_ROWS[2]),
    "LayoutMap.corner_prob": lambda v: LayoutMap(*TINY_ROWS[:2], v),
    "ManhattanRoom.vertices": lambda v: ManhattanRoom(v, 1.5, 1.0),
    "ManhattanRoom.cam_to_floor": lambda v: ManhattanRoom(SQUARE, v, 1.0),
    "ManhattanRoom.cam_to_ceil": lambda v: ManhattanRoom(SQUARE, 1.5, v),
    "DepthMap.values": lambda v: DepthMap(grid=TINY, values=v),
    "SegMap.values": lambda v: SegMap(grid=TINY, values=v),
    "SceneSpec.boxes": lambda v: SceneSpec(room=SCENE.room, boxes=v, seed=0),
    "SceneSpec.seed": lambda v: SceneSpec(room=SCENE.room, boxes=np.empty((0, 6)), seed=v),
    "NoiseSpec.salt_frac": lambda v: NoiseSpec(salt_frac=v),
    "NoiseSpec.outlier_frac": lambda v: NoiseSpec(outlier_frac=v),
    "NoiseSpec.outlier_offset": lambda v: NoiseSpec(outlier_offset=v),
    "NoiseSpec.seed": lambda v: NoiseSpec(seed=v),
    "SceneConfig.plan": lambda v: SceneConfig(plan=v),
    "SceneConfig.box_count_range": lambda v: SceneConfig(box_count_range=v),
    "FocalParams.alpha": lambda v: FocalParams(alpha=v),
    "FocalParams.eta": lambda v: FocalParams(eta=v),
    "LossWeights.lambda1": lambda v: LossWeights(lambda1=v),
    "LossWeights.lambda2": lambda v: LossWeights(lambda2=v),
    "LossWeights.lambda3": lambda v: LossWeights(lambda3=v),
    "total_loss": lambda v: total_loss(1.0, v, 1.0),
    "derive_seg_labels.gamma": lambda v: derive_seg_labels(TINY_DEPTH, TINY_DEPTH, gamma=v),
    "denoise_depth.slack": lambda v: denoise_depth(TINY_DEPTH, TINY_DEPTH, SCENE.room, TINY, v),
    "generate_scene.seed": lambda v: generate_scene(v),
    "resolve_background_depth.mode": lambda v: resolve_background_depth(LAYOUT, HEIGHTS, GRID, v),
    "shell_outside_distance.points": lambda v: shell_outside_distance(SCENE.room, v),
}
SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(), st.integers(-3, 2**64),
    st.sampled_from([10**5000, -(10**5000), np.bool_(True), np.int64(3), np.float32(0.5)]),
)
WRONG_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=6),
    st.tuples(SCALARS, SCALARS),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
    st.lists(st.lists(SCALARS, min_size=1, max_size=3), min_size=1, max_size=5),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)),
    st.lists(st.complex_numbers().map(np.complex128), max_size=6),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(taker=st.sampled_from(sorted(TAKERS)), value=WRONG_VALUES)
def test_every_refusal_is_coded_and_warns_nothing(taker, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            TAKERS[taker](value)
        except PanoroomError:
            pass
