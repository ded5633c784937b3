"""Value types copy a caller's arrays once and never alias them: a write
to the caller's array after construction does not reach the value."""

import numpy as np
import pytest

from panoroom import DepthMap, GridSpec, LayoutMap, ManhattanRoom, SceneSpec, SegMap

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
