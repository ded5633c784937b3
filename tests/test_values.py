"""Value types copy a caller's arrays once and never alias them: a write
to the caller's array after construction does not reach the value."""

import math

import numpy as np
import pytest

from panoroom import (
    DepthMap,
    GridSpec,
    LayoutMap,
    ManhattanRoom,
    NoiseSpec,
    SceneSpec,
    SegMap,
    corrupt_depth,
    denoise_depth,
    eval_metrics,
    raycast_depth,
)

from panoroom.errors import ValueRangeError

from conftest import make_scene

GRID = GridSpec(width=8, height=4)
ROOM = make_scene(0).room
SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
ROWS = np.full(GRID.width, 1.0), np.full(GRID.width, 3.0), np.full(GRID.width, 0.5)

# (caller's array, constructor over it, the field that holds it)
CASES = {
    "DepthMap": (np.full(GRID.shape, 2.0), lambda a: DepthMap(grid=GRID, values=a), "values"),
    "SegMap": (np.full(GRID.shape, 0.5), lambda a: SegMap(grid=GRID, values=a), "values"),
    "LayoutMap.ceil_rows": (ROWS[0], lambda a: LayoutMap(a, ROWS[1], ROWS[2]), "ceil_rows"),
    "LayoutMap.floor_rows": (ROWS[1], lambda a: LayoutMap(ROWS[0], a, ROWS[2]), "floor_rows"),
    "LayoutMap.corner_prob": (ROWS[2], lambda a: LayoutMap(ROWS[0], ROWS[1], a), "corner_prob"),
    "ManhattanRoom": (np.array(SQUARE), lambda a: ManhattanRoom(a, 1.5, 1.0), "vertices"),
    # a box whose min x, once the caller adds 0.4 to it, passes its max x
    "SceneSpec": (np.array([[0.5, 0.5, -1.5, 0.8, 0.8, -1.0]]),
                  lambda a: SceneSpec(room=ROOM, boxes=a, seed=0), "boxes"),
}


@pytest.mark.parametrize("name", CASES)
def test_caller_writes_do_not_reach_the_value(name):
    array, construct, field = CASES[name]
    caller = array.copy()
    value = construct(caller)
    held = getattr(value, field)
    caller.flat[0] += 0.4
    assert np.array_equal(held, array)
    assert held.dtype == np.float64 and not held.flags.writeable
    assert not np.shares_memory(held, caller)


def test_a_fortran_ordered_map_is_held_row_major():
    grid = GridSpec(width=128, height=64)
    scene = make_scene(4, boxes=(1, 3))
    gt = raycast_depth(scene, grid, include_foreground=True)
    bg = raycast_depth(scene, grid, include_foreground=False)
    noisy = corrupt_depth(gt, NoiseSpec(seed=9)).values
    fortran = [DepthMap(grid=grid, values=np.asfortranarray(v)) for v in (noisy, bg.values)]
    assert all(m.values.flags.c_contiguous for m in fortran)
    c_order = [DepthMap(grid=grid, values=v) for v in (noisy, bg.values)]
    out_f = denoise_depth(*fortran, scene.room, grid).values
    out_c = denoise_depth(*c_order, scene.room, grid).values
    assert out_f.tobytes() == out_c.tobytes()
    assert eval_metrics(fortran[0], gt) == eval_metrics(c_order[0], gt)


DEPTH_RANGE = "^depth values must be >= 0$"
DEPTH_FINITE = "^depth values must be finite$"
SEG_RANGE = r"^segmentation values must lie in \[0, 1\]$"


@pytest.mark.parametrize(
    "cls, bad, message",
    [
        (DepthMap, [math.nan], DEPTH_FINITE),
        (DepthMap, [math.inf], DEPTH_FINITE),
        (DepthMap, [-math.inf], DEPTH_FINITE),
        (DepthMap, [-1.0], DEPTH_RANGE),
        (DepthMap, [-1.0, math.nan], DEPTH_FINITE),
        (DepthMap, [-0.0], None),
        (SegMap, [math.nan], SEG_RANGE),
        (SegMap, [math.inf], SEG_RANGE),
        (SegMap, [-math.inf], SEG_RANGE),
        (SegMap, [-1e-300], SEG_RANGE),
        (SegMap, [1.0 + 2**-52], SEG_RANGE),
        (SegMap, [-0.0, 1.0], None),
    ],
    ids=["depth-nan", "depth-inf", "depth-neg-inf", "depth-negative", "depth-negative-and-nan",
         "depth-neg-zero", "seg-nan", "seg-inf", "seg-neg-inf", "seg-negative", "seg-above-one",
         "seg-neg-zero-and-one"],
)
def test_public_construction_checks_the_range(cls, bad, message):
    """One bad value anywhere in a map is refused with its message; -0.0
    passes as 0."""
    values = np.full(GRID.shape, 0.5)
    values.flat[5 : 5 + len(bad)] = bad
    if message is None:
        assert np.array_equal(cls(grid=GRID, values=values).values, values)
        return
    with pytest.raises(ValueRangeError, match=message):
        cls(grid=GRID, values=values)
