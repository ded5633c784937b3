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
from panoroom import layout as layout_mod
from panoroom.errors import CornerExtractionError, PanoroomError, PolygonError
from panoroom._kernels import _points_in_polygon

from conftest import extract_corners_loop, make_scene, point_in_polygon_loop


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


def test_extract_corners_matches_the_loop():
    """The vectorised peak picking against the per-candidate loop, on random
    vectors of a few levels (so ties are common), with plateaus placed
    anywhere and across the seam."""
    rng = np.random.default_rng(3)
    raised = 0
    for trial in range(400):
        w = int(rng.choice([20, 33, 64, 128]))
        prob = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=w)
        k = int(rng.integers(1, 7))
        level = rng.choice([0.5, 0.7, 1.0])
        if trial % 3 == 0:
            prob[:k] = prob[w - k:] = level
        elif trial % 3 == 1:
            start = int(rng.integers(w))
            prob[(start + np.arange(2 * k)) % w] = level
        expected = extract_corners_loop(prob, layout_mod._CORNER_THRESHOLD,
                                        layout_mod._CORNER_NMS_WINDOW)
        lay = LayoutMap(np.full(w, 16.0), np.full(w, 48.0), prob)
        if len(expected) < 4:
            raised += 1
            with pytest.raises(CornerExtractionError):
                extract_corners(lay)
        else:
            assert extract_corners(lay).tolist() == expected
    assert 0 < raised < 400


def test_layout_to_room_rejects_an_odd_corner_count():
    layout = flat_layout()
    prob = layout.corner_prob.copy()
    prob[[10, 35, 60, 85, 110]] = 1.0
    layout = LayoutMap(layout.ceil_rows, layout.floor_rows, prob)
    with pytest.raises(PolygonError):
        layout_to_room(layout, CameraHeights(up=1.0, down=1.5), GridSpec(width=128, height=64))


def test_layout_to_room_rejects_corners_off_their_columns():
    grid = GridSpec(width=256, height=128)
    room = make_scene(2, plan="rect").room
    exact = room_to_layout(room, grid)
    shifted = LayoutMap(exact.ceil_rows, exact.floor_rows, np.roll(exact.corner_prob, 8))
    with pytest.raises(PolygonError):
        layout_to_room(shifted, room.heights, grid)


@pytest.mark.parametrize("height", [33, 64])
def test_layout_to_room_is_exact_or_raises(height):
    """On grids too coarse to separate every corner, inverting the exact
    layout of a generated room gives back that room to 1e-6 m or raises a
    coded error: a wrong room never comes back."""
    grid = GridSpec(width=2 * height, height=height)
    for seed in range(1000, 1200):
        for plan in ("rect", "lshape"):
            room = make_scene(seed, plan=plan).room
            try:
                back = layout_to_room(room_to_layout(room, grid), room.heights, grid)
            except PanoroomError:
                continue
            assert back.vertices.shape == room.vertices.shape, (seed, plan)
            d = np.linalg.norm(back.vertices[:, None] - room.vertices[None], axis=2)
            assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-6, (seed, plan)


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
