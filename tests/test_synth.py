import json

import numpy as np
import pytest

from panoroom import (
    DepthMap,
    GridSpec,
    NoiseSpec,
    SceneConfig,
    corrupt_depth,
    generate_scene,
    gt_background_mask,
    raycast_depth,
    render_scene,
)
from panoroom import formats, synth
from panoroom.errors import PanoroomError, PlacementError, ValueRangeError
from panoroom.layout import ManhattanRoom, room_to_layout
from panoroom.synth import SceneSpec
from panoroom.formats import scene_to_dict

from conftest import background_mask, make_scene, point_in_polygon_loop

GRID = GridSpec(width=128, height=64)


def test_same_seed_identical_serialization():
    cfg = SceneConfig(plan="lshape", box_count_range=(1, 3))
    a = json.dumps(scene_to_dict(generate_scene(42, cfg)))
    b = json.dumps(scene_to_dict(generate_scene(42, cfg)))
    c = json.dumps(scene_to_dict(generate_scene(np.int64(42), cfg)))
    assert a == b == c


def test_zero_box_range():
    scene = generate_scene(0, SceneConfig(box_count_range=(0, 0)))
    assert len(scene.boxes) == 0


def test_invariant_sweep():
    for seed in range(200):
        plan = "rect" if seed % 2 == 0 else "lshape"
        scene = generate_scene(seed, SceneConfig(plan=plan, box_count_range=(0, 3)))
        room = scene.room
        w = room.vertices[:, 0].max() - room.vertices[:, 0].min()
        d = room.vertices[:, 1].max() - room.vertices[:, 1].min()
        assert 3.0 <= w <= 8.0 and 3.0 <= d <= 8.0
        assert 1.2 <= room.cam_to_floor <= 1.8
        assert 2.4 <= room.cam_to_floor + room.cam_to_ceil <= 3.2
        edges = room.edges
        for b in scene.boxes:
            assert np.all(b[:3] < b[3:])
            # strictly inside the shell
            for cx in (b[0], b[3]):
                for cy in (b[1], b[4]):
                    assert point_in_polygon_loop(edges, cx, cy)
            assert b[2] >= -room.cam_to_floor - 1e-12
            assert b[5] < room.cam_to_ceil
            # no box contains the camera origin
            inside_xy = b[0] < 0 < b[3] and b[1] < 0 < b[4]
            assert not (inside_xy and b[2] < 0 < b[5])


def _segments_meet(p, q, r, s):
    """Whether the closed segments pq and rs share a point."""
    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    o1, o2, o3, o4 = orient(p, q, r), orient(p, q, s), orient(r, s, p), orient(r, s, q)
    if o1 * o2 > 0 or o3 * o4 > 0:
        return False
    if o1 == o2 == o3 == o4 == 0:  # collinear: they meet where their extents overlap
        return all(min(p[k], q[k]) <= max(r[k], s[k]) and min(r[k], s[k]) <= max(p[k], q[k])
                   for k in (0, 1))
    return True


@pytest.mark.parametrize("plan", ["rect", "lshape"])
@pytest.mark.parametrize("boxes", [(0, 4), (10, 30)], ids=["0-4", "10-30"])
def test_box_footprints_inside_the_plan(plan, boxes):
    """Placement checks only footprint corners and their wall clearance;
    for both plans that keeps the whole footprint strictly inside."""
    placed = 0
    for seed in range(100):
        scene = make_scene(seed, plan=plan, boxes=boxes)
        room = scene.room
        walls = room.edges.tolist()
        for x0, y0, z0, x1, y1, z1 in scene.boxes.tolist():
            corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            assert all(point_in_polygon_loop(walls, x, y) for x, y in corners)
            for ax, ay, bx, by in walls:
                for k in range(4):
                    assert not _segments_meet((ax, ay), (bx, by), corners[k], corners[k - 1])
            assert z1 <= room.cam_to_ceil - 1e-3
        placed += len(scene.boxes)
    assert placed >= 100 * boxes[0]


def test_nadir_and_zenith_depths():
    scene = make_scene(3)
    depth = raycast_depth(scene, GRID, include_foreground=False).values
    h = GRID.height
    lat_bottom = (0.5 - (h - 0.5) / h) * np.pi
    expected = scene.room.cam_to_floor / np.sin(-lat_bottom)
    assert depth[h - 1, 0] == pytest.approx(expected, rel=1e-12)
    lat_top = (0.5 - 0.5 / h) * np.pi
    assert depth[0, 0] == pytest.approx(scene.room.cam_to_ceil / np.sin(lat_top), rel=1e-12)


def test_perpendicular_wall_distance():
    import panoroom.layout as layout_mod

    room = layout_mod.ManhattanRoom(
        np.array([(-2.0, -3.0), (4.0, -3.0), (4.0, 3.0), (-2.0, 3.0)]),
        cam_to_floor=1.5,
        cam_to_ceil=1.2,
    )
    scene = type(make_scene(0))(room=room, boxes=np.zeros((0, 6)), seed=0)
    h = 64
    grid = GridSpec(width=2 * h, height=h)
    depth = raycast_depth(scene, grid, include_foreground=False).values
    # equator-adjacent pixel looking along +x: wall at x = 4
    row = h // 2
    col = int((0.0 + np.pi) / (2 * np.pi) * grid.width)  # lon ~ 0
    lat = (0.5 - (row + 0.5) / h) * np.pi
    lon = ((col + 0.5) / grid.width) * 2 * np.pi - np.pi
    expected = 4.0 / np.cos(lon) / np.cos(lat)
    assert depth[row, col] == pytest.approx(expected, rel=1e-10)


def test_box_in_front_of_wall():
    room_verts = np.array([(-2.0, -2.0), (3.0, -2.0), (3.0, 2.0), (-2.0, 2.0)])
    import panoroom.layout as layout_mod
    from panoroom.synth import SceneSpec

    room = layout_mod.ManhattanRoom(room_verts, cam_to_floor=1.5, cam_to_ceil=1.2)
    box = np.array([[1.0, -0.5, -1.5, 2.0, 0.5, 0.5]])
    scene = SceneSpec(room=room, boxes=box, seed=0)
    h = 128
    grid = GridSpec(width=2 * h, height=h)
    with_fg = raycast_depth(scene, grid, include_foreground=True).values
    without = raycast_depth(scene, grid, include_foreground=False).values
    row, col = h // 2, int((0.0 + np.pi) / (2 * np.pi) * grid.width)
    lat = (0.5 - (row + 0.5) / h) * np.pi
    lon = ((col + 0.5) / grid.width) * 2 * np.pi - np.pi
    # closed-form ray/AABB: front face at x = 1
    expected = 1.0 / (np.cos(lat) * np.cos(lon))
    assert with_fg[row, col] == pytest.approx(expected, rel=1e-10)
    assert with_fg[row, col] < without[row, col]


def test_depth_positive_and_bounded():
    for seed in (1, 5, 9):
        scene = make_scene(seed, plan="lshape", boxes=(0, 3))
        depth = raycast_depth(scene, GRID).values
        assert np.all(depth > 0)
        room = scene.room
        span = float(np.max(np.linalg.norm(room.vertices, axis=1)))
        diagonal = float(np.hypot(span, max(room.cam_to_floor, room.cam_to_ceil)))
        assert np.all(depth <= diagonal + 1e-9)


def test_mask_no_boxes_all_background():
    scene = make_scene(2)
    assert np.all(gt_background_mask(scene, GRID).values == 1.0)


def test_mask_boxes_subset():
    scene = make_scene(17, boxes=(2, 4))
    masked = gt_background_mask(scene, GRID).values
    no_boxes = type(scene)(room=scene.room, boxes=np.zeros((0, 6)), seed=scene.seed)
    full = gt_background_mask(no_boxes, GRID).values
    assert np.all(masked <= full)
    if len(scene.boxes):
        assert masked.min() == 0.0


def test_mask_from_held_renders():
    scene = make_scene(17, boxes=(2, 4))
    gt = raycast_depth(scene, GRID, include_foreground=True)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    assert np.array_equal(background_mask(gt, bg).values, gt_background_mask(scene, GRID).values)


def test_mask_infinite_eps(monkeypatch):
    monkeypatch.setattr(synth, "_MASK_EPS", np.inf)
    scene = make_scene(17, boxes=(2, 4))
    assert np.all(gt_background_mask(scene, GRID).values == 1.0)


def test_corrupt_identity_and_determinism():
    scene = make_scene(4)
    depth = raycast_depth(scene, GRID)
    identity = corrupt_depth(depth, NoiseSpec(0.0, 0.0, 1.0, seed=5))
    assert np.array_equal(identity.values, depth.values)
    a = corrupt_depth(depth, NoiseSpec(0.05, 0.1, 2.0, seed=5))
    b = corrupt_depth(depth, NoiseSpec(0.05, 0.1, 2.0, seed=5))
    c = corrupt_depth(depth, NoiseSpec(0.05, 0.1, 2.0, seed=np.int64(5)))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)


def test_corrupt_outlier_overflow_is_value_range():
    # any positive offset is allowed, so the pushed depth can leave the floats
    depth = DepthMap(grid=GRID, values=np.full(GRID.shape, 1e308))
    with pytest.raises(ValueRangeError, match="finite"):
        corrupt_depth(depth, NoiseSpec(0.0, 0.1, 1e308, seed=5))


def test_corrupt_fraction_counts():
    scene = make_scene(4)
    grid = GridSpec(width=1024, height=512)
    depth = raycast_depth(scene, grid, include_foreground=False)
    noisy = corrupt_depth(depth, NoiseSpec(0.05, 0.1, 2.0, seed=6))
    n = grid.width * grid.height
    salted = int(np.sum(noisy.values == 0.0))
    displaced = int(np.sum(noisy.values > depth.values + 1.0))
    assert abs(salted / n - 0.05) < 0.01
    assert abs(displaced / n - 0.10) < 0.01
    # disjoint pixel sets
    assert salted + displaced == int(np.sum(noisy.values != depth.values))


def test_camera_placement_failure_is_coded(monkeypatch):
    monkeypatch.setattr(synth, "CAMERA_WALL_CLEARANCE", 100.0)
    with pytest.raises(PlacementError) as info:
        generate_scene(0)
    assert isinstance(info.value, PanoroomError) and info.value.code == "placement"


# --- render_scene against two full renders and the full-grid mask ----------

_ROOM = ManhattanRoom(
    np.array([(-3.0, -2.5), (4.0, -2.5), (4.0, 3.0), (-3.0, 3.0)]), cam_to_floor=1.5, cam_to_ceil=1.2
)
_SEAM = (-2.5, -0.4, -1.5, -1.5, 0.3, -0.5)  # behind the camera, across lon = +-pi
_UNDER = (-0.6, -0.4, -1.5, 0.5, 0.7, -0.8)  # xy rectangle holds the origin: all columns
_NEAR = (1.0, -0.5, -1.5, 2.0, 0.5, 0.5)
_BEHIND = (2.5, 0.0, -1.5, 3.5, 1.0, 0.8)  # its footprint overlaps _NEAR's
HAND_BUILT = {
    "seam": [_SEAM],
    "under": [_UNDER],
    "overlap": [_NEAR, _BEHIND],
    "overlap-far-first": [_BEHIND, _NEAR],
    "all": [_BEHIND, _SEAM, _NEAR, _UNDER],
}


def _reference(scene, grid, eps):
    gt = raycast_depth(scene, grid, include_foreground=True)
    bg = raycast_depth(scene, grid, include_foreground=False)
    return gt, bg, background_mask(gt, bg, eps)


def _assert_same_bits(monkeypatch, scene, grid, eps):
    monkeypatch.setattr(synth, "_MASK_EPS", eps)
    got = render_scene(scene, grid)
    want = _reference(scene, grid, eps)
    for g, w in zip(got, want):
        assert g.grid == grid and g.values.dtype == np.float64
        assert g.values.tobytes() == w.values.tobytes()
        assert not g.values.flags.writeable
    return got


@pytest.mark.parametrize("eps", [0.0, 1e-6, np.inf], ids=["0", "1e-6", "inf"])
@pytest.mark.parametrize("height", [32, 33, 64])
def test_render_scene_matches_generated_scenes(monkeypatch, height, eps):
    grid = GridSpec(width=2 * height, height=height)
    box_counts = set()
    masked = 0
    for seed in range(12):
        plan = "rect" if seed % 2 == 0 else "lshape"
        scene = generate_scene(600 + seed, SceneConfig(plan=plan, box_count_range=(0, 4)))
        box_counts.add(len(scene.boxes))
        _, _, mask = _assert_same_bits(monkeypatch, scene, grid, eps)
        masked += int(np.sum(mask.values == 0.0))
    assert box_counts == {0, 1, 2, 3, 4}
    assert (masked > 0) == (eps < np.inf)


@pytest.mark.parametrize("eps", [0.0, 1e-6, np.inf], ids=["0", "1e-6", "inf"])
@pytest.mark.parametrize("height", [32, 33, 64])
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_render_scene_matches_hand_built_boxes(monkeypatch, name, height, eps):
    grid = GridSpec(width=2 * height, height=height)
    scene = SceneSpec(room=_ROOM, boxes=np.array(HAND_BUILT[name]), seed=0)
    gt, bg, mask = _assert_same_bits(monkeypatch, scene, grid, eps)
    hidden = gt.values < bg.values
    if name in ("seam", "all"):
        assert hidden[:, 0].any() and hidden[:, -1].any()
    if name in ("under", "all"):
        assert hidden[-1].all()
    if eps == 0.0:
        assert np.array_equal(mask.values == 0.0, hidden)


@pytest.mark.parametrize(
    "box",
    [[-(2.0**500)] * 3 + [2.0**500] * 3, [2.0**499] * 3 + [2.0**500] * 3,
     [-(2.0**500), -(2.0**500), -1.0, 2.0**500, 2.0**500, -0.5]],
    ids=["holds-the-camera", "beyond-the-room", "slab-under-the-camera"],
)
def test_boxes_at_the_coordinate_bound_render_without_overflow(box):
    """A box extent may reach the floor plan's coordinate bound: its plane
    distances stay finite at every pixel, so every render is warning-free
    (a numpy warning fails the test) and its shell is the bare room's."""
    scene = SceneSpec(room=_ROOM, boxes=[box], seed=0)
    bare = raycast_depth(SceneSpec(room=_ROOM, boxes=np.zeros((0, 6)), seed=0), GRID).values
    _, shell, _ = render_scene(scene, GRID)
    assert np.array_equal(shell.values, bare)
    assert np.array_equal(raycast_depth(scene, GRID, include_foreground=False).values, bare)
    assert np.isfinite(raycast_depth(scene, GRID).values).all()


def test_render_scene_without_boxes_shares_one_map():
    gt, bg, mask = render_scene(make_scene(2), GRID)
    assert gt.values is bg.values and not gt.values.flags.writeable
    assert np.all(mask.values == 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_shell_is_value_range(monkeypatch, bad):
    real = synth._kernels.shell_band

    def leaky(parts, grid, rows, out):
        shell = real(parts, grid, rows, out)
        if rows.start <= 5 < rows.stop:
            shell[5 - rows.start, 7] = bad
        return shell

    monkeypatch.setattr(synth._kernels, "shell_band", leaky)
    scene = make_scene(17, boxes=(2, 4))
    for render in (render_scene, raycast_depth, gt_background_mask):
        with pytest.raises(ValueRangeError, match="depth values must be finite"):
            render(scene, GRID)


@pytest.mark.parametrize("height", [33, 257])
def test_write_scene_writes_what_the_public_writers_write(tmp_path, height):
    """``formats.write_scene``'s five files hold the bytes of ``write_pfm``
    of each ``render_scene`` map and of ``write_json`` of the layout and
    scene dicts, and it creates a scene directory whose parent is missing."""
    grid = GridSpec(width=2 * height, height=height)
    scene = generate_scene(5, SceneConfig(plan="lshape", box_count_range=(2, 4)))
    assert len(scene.boxes) > 0
    scene_dir = tmp_path / "new" / "scene_000"
    formats.write_scene(scene, grid, str(scene_dir))

    ref = tmp_path / "ref"
    ref.mkdir()
    for name, m in zip(("gt.pfm", "bg_gt.pfm", "segmask.pfm"), render_scene(scene, grid)):
        formats.write_pfm(m.values, str(ref / name))
    formats.write_json(formats.layout_to_dict(room_to_layout(scene.room, grid), grid),
                       str(ref / "layout.json"))
    formats.write_json(scene_to_dict(scene), str(ref / "scene.json"))
    assert sorted(p.name for p in scene_dir.iterdir()) == sorted(p.name for p in ref.iterdir())
    for p in ref.iterdir():
        assert (scene_dir / p.name).read_bytes() == p.read_bytes(), p.name
