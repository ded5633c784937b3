import math

import numpy as np
import pytest

from panoroom import (
    CameraHeights,
    GridSpec,
    LayoutMap,
    ManhattanRoom,
    extract_corners,
    layout_to_room,
    room_to_layout,
)
from panoroom.errors import CornerExtractionError, PolygonError
from panoroom._kernels import _points_in_polygon
from panoroom.layout import snap_manhattan

from conftest import make_scene, point_in_polygon_loop


def flat_layout(w=128, h=64, ceil=16.0, floor=48.0):
    return LayoutMap(
        ceil_rows=np.full(w, ceil),
        floor_rows=np.full(w, floor),
        corner_prob=np.zeros(w),
    )


def test_extract_corners_no_peaks():
    with pytest.raises(CornerExtractionError):
        extract_corners(flat_layout())


def test_extract_corners_isolated_spikes():
    layout = flat_layout()
    prob = layout.corner_prob.copy()
    prob[[10, 40, 80, 120]] = 1.0
    layout = LayoutMap(layout.ceil_rows, layout.floor_rows, prob)
    assert list(extract_corners(layout)) == [10, 40, 80, 120]


def test_extract_corners_plateau_prefers_leftmost():
    layout = flat_layout()
    prob = layout.corner_prob.copy()
    prob[20:23] = 1.0  # plateau: only column 20 survives
    prob[[60, 90, 110]] = 1.0
    layout = LayoutMap(layout.ceil_rows, layout.floor_rows, prob)
    cols = list(extract_corners(layout))
    assert 20 in cols and 21 not in cols and 22 not in cols


def test_room_to_layout_unit_range_row():
    # column looking straight at a wall at range == cam_to_floor: atan(1) = pi/4
    room = ManhattanRoom(
        np.array([(-2.0, -1.6), (2.0, -1.6), (2.0, 1.6), (-2.0, 1.6)]),
        cam_to_floor=1.6,
        cam_to_ceil=1.0,
    )
    grid = GridSpec(width=128, height=64)
    layout = room_to_layout(room, grid)
    # wall-normal column: lon = -pi/2 -> col center at 16 (col index 15..16);
    # center lon of col v is (v+0.5)/W*2pi - pi; v=15.5 -> exactly -pi/2, so
    # check the nearest two columns straddle the r=1.6 row
    phi = np.arctan(1.6 / 1.6)
    assert phi == pytest.approx(np.pi / 4)
    expected = 64 * (0.5 + np.arctan(1.6 / 1.6) / np.pi)  # = 0.75 H
    got = np.min(layout.floor_rows)  # the boundary is deepest at the nearest wall point
    assert got <= expected + 1e-9


def test_room_to_layout_far_wall_approaches_horizon():
    room = ManhattanRoom(
        np.array([(-500.0, -500.0), (500.0, -500.0), (500.0, 500.0), (-500.0, 500.0)]),
        cam_to_floor=1.6,
        cam_to_ceil=1.0,
    )
    grid = GridSpec(width=128, height=64)
    layout = room_to_layout(room, grid)
    assert np.all(layout.floor_rows > 32)
    assert np.max(layout.floor_rows - 32) < 0.1


def test_room_to_layout_wall_normal_column_value():
    # square room half-width 2, camera centered, cam_to_floor 1.6:
    # wall-normal range is 2 -> floor_row = H*(0.5 + atan(0.8)/pi)
    room = ManhattanRoom(
        np.array([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]),
        cam_to_floor=1.6,
        cam_to_ceil=1.0,
    )
    h = 64
    grid = GridSpec(width=2 * h, height=h)
    layout = room_to_layout(room, grid)
    expected = h * (0.5 + math.atan2(1.6, 2.0) / math.pi)
    # largest floor row (deepest in the image) occurs nearest a wall normal,
    # where the horizontal range is smallest
    assert abs(np.max(layout.floor_rows) - expected) < 0.05
    assert np.all(layout.floor_rows > h / 2)
    assert np.all(layout.ceil_rows < h / 2)


def test_layout_room_round_trip_square():
    s = 2.5
    room = ManhattanRoom(
        np.array([(-s, -s), (s, -s), (s, s), (-s, s)]),
        cam_to_floor=1.5,
        cam_to_ceil=1.2,
    )
    grid = GridSpec(width=1024, height=512)
    layout = room_to_layout(room, grid)
    back = layout_to_room(layout, room.heights, grid)
    assert np.max(np.abs(back.vertices - room.vertices)) < 1e-6


def test_layout_room_round_trip_synthetic_scenes():
    grid = GridSpec(width=1024, height=512)
    for seed in range(5):
        scene = make_scene(seed, plan="lshape" if seed % 2 else "rect")
        layout = room_to_layout(scene.room, grid)
        back = layout_to_room(layout, scene.room.heights, grid)
        assert back.vertices.shape == scene.room.vertices.shape
        # recovered vertices are in azimuth order; match by nearest
        for v in scene.room.vertices:
            err = np.min(np.linalg.norm(back.vertices - v, axis=1))
            assert err < 1e-6


def test_layout_to_room_needs_four_corner_peaks():
    layout = flat_layout()
    prob = layout.corner_prob.copy()
    prob[[10, 50, 90]] = 1.0  # three walls cannot close a Manhattan room
    layout = LayoutMap(layout.ceil_rows, layout.floor_rows, prob)
    with pytest.raises(CornerExtractionError):
        layout_to_room(layout, CameraHeights(up=1.0, down=1.5), GridSpec(width=128, height=64))


def test_snap_produces_axis_aligned_edges():
    v = np.array([(-1.0, -1.01), (1.02, -1.0), (1.0, 1.01), (-1.01, 1.0)])
    snapped = snap_manhattan(v)
    d = np.roll(snapped, -1, axis=0) - snapped
    for dx, dy in d:
        assert dx == 0 or dy == 0


def test_nonsimple_polygon_rejected():
    with pytest.raises(PolygonError):
        ManhattanRoom(
            np.array([(-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)]),
            cam_to_floor=1.0,
            cam_to_ceil=1.0,
        )


def test_origin_outside_polygon_rejected():
    with pytest.raises(PolygonError):
        ManhattanRoom(
            np.array([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]),
            cam_to_floor=1.0,
            cam_to_ceil=1.0,
        )


def test_boundary_rows_bracket_horizon():
    grid = GridSpec(width=256, height=128)
    for seed in (3, 4):
        scene = make_scene(seed, plan="lshape")
        layout = room_to_layout(scene.room, grid)
        layout.validate_against(grid)  # ceil < H/2 < floor everywhere


def test_corner_prob_marks_vertex_sectors():
    grid = GridSpec(width=1024, height=512)
    scene = make_scene(11, plan="lshape")
    layout = room_to_layout(scene.room, grid)
    assert int(layout.corner_prob.sum()) == len(scene.room.vertices)


@pytest.mark.parametrize("plan", ["rect", "lshape"])
def test_points_in_polygon_matches_the_loop(plan):
    """The vectorised even-odd test against the scalar loop, on random
    points and on the degenerate ones: vertices, edge midpoints and points
    at a vertex's y-level, where an edge's end rule decides."""
    rng = np.random.default_rng(5)
    for seed in range(10):
        edges = make_scene(seed, plan=plan).room.edges
        v = edges[:, :2]
        lo, hi = v.min(axis=0) - 1.0, v.max(axis=0) + 1.0
        level_y = rng.choice(v[:, 1], 200)
        x = np.concatenate([rng.uniform(lo[0], hi[0], 400), v[:, 0],
                            (edges[:, 0] + edges[:, 2]) / 2, rng.uniform(lo[0], hi[0], 200)])
        y = np.concatenate([rng.uniform(lo[1], hi[1], 400), v[:, 1],
                            (edges[:, 1] + edges[:, 3]) / 2, level_y])
        expected = [point_in_polygon_loop(edges, px, py) for px, py in zip(x, y)]
        assert _points_in_polygon(edges, x, y).tolist() == expected
        assert [bool(_points_in_polygon(edges, px, py)) for px, py in zip(x, y)] == expected
