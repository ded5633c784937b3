"""The ray-cast oracle against a brute-force per-pixel ray caster.

``brute_force_render`` tests every pixel against every wall edge, the
floor and ceiling planes (with a point-in-polygon test) and every box, in
plain Python. It shares no code with ``panoroom._kernels``, whose shell and
box footprints rely on the Manhattan structure, so this comparison keeps
the oracle from being checked only against itself.
"""

import math

import numpy as np
import pytest

from panoroom import (
    GridSpec,
    ManhattanRoom,
    SceneConfig,
    SceneSpec,
    generate_scene,
    raycast_depth,
    render_scene,
)

from conftest import mixed_scenes, pixel_center_dirs

TOL = 1e-12  # m


def _inside(vertices, px, py):
    inside = False
    n = len(vertices)
    for k in range(n):
        (ax, ay), (bx, by) = vertices[k], vertices[(k + 1) % n]
        if (ay > py) != (by > py) and px < ax + (py - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


def _box_entry(box, d):
    """Slab-test entry distance of the ray t*d into ``box``, or inf."""
    tn, tf = -math.inf, math.inf
    for axis in range(3):
        lo, hi = box[axis], box[3 + axis]
        if d[axis] == 0.0:
            if lo > 0.0 or hi < 0.0:
                return math.inf
            continue
        t1, t2 = sorted((lo / d[axis], hi / d[axis]))
        tn, tf = max(tn, t1), min(tf, t2)
    return tn if 0.0 < tn <= tf else math.inf


def brute_force_render(scene, grid):
    """(with foreground, without foreground) depth maps as nested lists."""
    verts = [tuple(map(float, v)) for v in scene.room.vertices]
    down, up = scene.room.cam_to_floor, scene.room.cam_to_ceil
    boxes = [tuple(map(float, b)) for b in scene.boxes]
    h, w = grid.height, grid.width
    fg = [[0.0] * w for _ in range(h)]
    bg = [[0.0] * w for _ in range(h)]
    for i in range(h):
        lat = (0.5 - (i + 0.5) / h) * math.pi
        for j in range(w):
            lon = ((j + 0.5) / w) * 2.0 * math.pi - math.pi
            d = (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
            shell = math.inf
            if d[2] != 0.0:
                t = (-down if d[2] < 0.0 else up) / d[2]
                if _inside(verts, t * d[0], t * d[1]):
                    shell = t
            for k in range(len(verts)):
                (ax, ay), (bx, by) = verts[k], verts[(k + 1) % len(verts)]
                ex, ey = bx - ax, by - ay
                det = ex * d[1] - ey * d[0]
                if det == 0.0:
                    continue
                t = (ex * ay - ey * ax) / det
                u = (d[0] * ay - d[1] * ax) / det
                if 0.0 < t < shell and 0.0 <= u <= 1.0 and -down <= t * d[2] <= up:
                    shell = t
            bg[i][j] = shell
            fg[i][j] = min([shell] + [_box_entry(b, d) for b in boxes])
    return np.array(fg), np.array(bg)


def assert_matches_brute_force(scene, grid):
    fg, bg = brute_force_render(scene, grid)
    assert np.all(np.isfinite(bg))
    got_fg = raycast_depth(scene, grid, include_foreground=True).values
    got_bg = raycast_depth(scene, grid, include_foreground=False).values
    np.testing.assert_allclose(got_bg, bg, rtol=0, atol=TOL)
    np.testing.assert_allclose(got_fg, fg, rtol=0, atol=TOL)
    one_pass_fg, one_pass_bg, _ = render_scene(scene, grid)
    np.testing.assert_allclose(one_pass_bg.values, bg, rtol=0, atol=TOL)
    np.testing.assert_allclose(one_pass_fg.values, fg, rtol=0, atol=TOL)
    return fg, bg


def test_generated_scenes_match_brute_force():
    grid = GridSpec(width=64, height=32)
    box_counts = set()
    for seed in range(20):
        plan = "rect" if seed % 2 == 0 else "lshape"
        scene = generate_scene(500 + seed, SceneConfig(plan=plan, box_count_range=(0, 4)))
        box_counts.add(len(scene.boxes))
        assert_matches_brute_force(scene, grid)
    assert box_counts >= {0, 4}


def _room(down=1.5, up=1.2):
    verts = [(-3.0, -2.5), (4.0, -2.5), (4.0, 3.0), (-3.0, 3.0)]
    return ManhattanRoom(np.array(verts), cam_to_floor=down, cam_to_ceil=up)


HAND_BUILT = {
    # behind the camera, across the lon = +-pi seam
    "seam": (-2.5, -0.4, -1.5, -1.5, 0.3, -0.5),
    # low, directly under the camera: its xy rectangle contains the origin
    "under": (-0.6, -0.4, -1.5, 0.5, 0.7, -0.8),
    # tall and close: seen up to near-zenith and down to near-nadir rows
    "tall": (0.05, -0.5, -1.5, 0.6, 0.4, 1.15),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@pytest.mark.parametrize("height", [32, 33], ids=["even", "odd-horizon-row"])
def test_hand_built_boxes_match_brute_force(name, height):
    grid = GridSpec(width=2 * height, height=height)
    scene = SceneSpec(room=_room(), boxes=np.array([HAND_BUILT[name]]), seed=0)
    fg, bg = assert_matches_brute_force(scene, grid)
    seen = fg < bg
    if name == "seam":
        assert seen[:, 0].any() and seen[:, -1].any()
    elif name == "under":
        assert seen[-1].all()
    else:
        assert seen[0].any() and seen[-1].any()


def rebuilt_shell(room, grid):
    """The room shell rebuilt pixel by pixel from ``pixel_center_dirs``:
    the nearest wall crossing ``(ex*ay - ey*ax) / (ex*dy - ey*dx)`` over all
    edges, then the minimum with the floor/ceiling plane."""
    d = pixel_center_dirs(grid)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    wall = np.full(grid.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ax, ay, bx, by in room.edges:
            ex, ey = bx - ax, by - ay
            det = ex * dy - ey * dx
            t = (ex * ay - ey * ax) / det
            u = (dx * ay - dy * ax) / det
            hit = (det != 0.0) & (t > 0.0) & (u >= 0.0) & (u <= 1.0) & (t < wall)
            wall = np.where(hit, t, wall)
        plane = np.where(dz < 0.0, -room.cam_to_floor / dz, room.cam_to_ceil / dz)
    return np.minimum(wall, plane)


@pytest.mark.parametrize("height", [32, 33, 64])
def test_shell_is_bit_identical_to_a_per_pixel_rebuild(height):
    """The ray-cast shares the package's pixel-centre directions, so its
    shell keeps the exact bits of a per-pixel ray cast along them."""
    grid = GridSpec(width=2 * height, height=height)
    for scene in mixed_scenes(6):
        got = raycast_depth(scene, grid, include_foreground=False).values
        assert np.array_equal(got, rebuilt_shell(scene.room, grid))
