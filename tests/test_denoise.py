import tracemalloc

import numpy as np
import pytest

from panoroom import (
    DepthMap,
    GridSpec,
    ManhattanRoom,
    NoiseSpec,
    SceneSpec,
    corrupt_depth,
    denoise,
    denoise_depth,
    raycast_depth,
)
from panoroom.denoise import shell_outside_distance
from panoroom.equirect import pixel_center_lons, pixel_center_trig

from conftest import make_scene, pixel_center_dirs

GRID = GridSpec(width=128, height=64)


def brute_force_shell_distance(room, point, samples=400):
    """Min distance from a point to densely sampled shell faces (0 if inside)."""
    verts = room.vertices
    best = np.inf
    t = np.linspace(0.0, 1.0, samples)
    zs = np.linspace(-room.cam_to_floor, room.cam_to_ceil, samples)
    for k in range(len(verts)):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        seg = a[None, :] + t[:, None] * (b - a)[None, :]
        for z in zs:
            pts = np.column_stack([seg, np.full(samples, z)])
            best = min(best, float(np.min(np.linalg.norm(pts - point, axis=1))))
    # caps: sample the bounding box of the polygon, keep inside points
    xs = np.linspace(verts[:, 0].min(), verts[:, 0].max(), samples)
    ys = np.linspace(verts[:, 1].min(), verts[:, 1].max(), samples)
    from panoroom._kernels import _points_in_polygon

    gx, gy = np.meshgrid(xs, ys)
    inside = _points_in_polygon(room.edges, gx, gy)
    for z in (-room.cam_to_floor, room.cam_to_ceil):
        pts = np.column_stack([gx[inside], gy[inside], np.full(inside.sum(), z)])
        best = min(best, float(np.min(np.linalg.norm(pts - point, axis=1))))
    return best


def test_shell_distance_against_brute_force():
    scene = make_scene(13, plan="lshape")
    rng = np.random.default_rng(0)
    pts = rng.uniform(-8, 8, size=(25, 3))
    dist = shell_outside_distance(scene.room, pts)
    for p, d in zip(pts, dist):
        bf = brute_force_shell_distance(scene.room, p)
        inside_est = d == 0.0
        if inside_est:
            continue  # brute force only measures boundary distance
        assert d == pytest.approx(bf, abs=2e-2)  # sampling resolution of oracle


def test_shell_distance_of_points_too_far_to_square_reads_inf_without_a_warning():
    # a numpy warning fails the test; flat and (N, 3) points read alike
    room = make_scene(13, plan="lshape").room
    far = np.array([[1e200, 0.0, 0.0], [0.0, -1e200, 1.0], [1e308, -1e308, 1e308]])
    assert np.all(shell_outside_distance(room, far) == np.inf)
    assert np.all(shell_outside_distance(room, far.ravel()) == np.inf)


def test_clean_pixels_unchanged():
    scene = make_scene(1, boxes=(1, 2))
    gt = raycast_depth(scene, GRID, include_foreground=True)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    out = denoise_depth(gt, bg, scene.room, GRID, slack=1.0)
    assert np.array_equal(out.values, gt.values)


def test_measurement_failures_take_background():
    scene = make_scene(2)
    gt = raycast_depth(scene, GRID, include_foreground=True).values.copy()
    bg = raycast_depth(scene, GRID, include_foreground=False)
    gt[5, 7] = 0.0
    out = denoise_depth(DepthMap(grid=GRID, values=gt), bg, scene.room, GRID).values
    assert out[5, 7] == bg.values[5, 7]


def test_offset_outliers_replaced_only_beyond_slack():
    scene = make_scene(3)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    # push the nadir pixel straight down: shell distance equals the offset
    gt = bg.values.copy()
    nadir = (GRID.height - 1, 0)
    gt_far = gt.copy()
    gt_far[nadir] += 2.0
    gt_near = gt.copy()
    gt_near[nadir] += 0.5
    dirs = pixel_center_dirs(GRID)
    assert dirs[nadir][2] < -0.99  # points essentially straight down
    far = denoise_depth(DepthMap(grid=GRID, values=gt_far), bg, scene.room, GRID, 1.0).values
    near = denoise_depth(DepthMap(grid=GRID, values=gt_near), bg, scene.room, GRID, 1.0).values
    assert far[nadir] == bg.values[nadir]
    assert near[nadir] == gt_near[nadir]


def test_post_condition_audit_and_idempotence():
    scene = make_scene(4, boxes=(1, 3))
    gt = raycast_depth(scene, GRID, include_foreground=True)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    noisy = corrupt_depth(gt, NoiseSpec(salt_frac=0.05, outlier_frac=0.1, outlier_offset=2.0, seed=9))
    out = denoise_depth(noisy, bg, scene.room, GRID, slack=1.0)
    dirs = pixel_center_dirs(GRID)
    pts = (out.values[..., None] * dirs).reshape(-1, 3)
    dist = shell_outside_distance(scene.room, pts)
    assert np.max(dist) <= 1.0 + 1e-9
    again = denoise_depth(out, bg, scene.room, GRID, slack=1.0)
    assert np.array_equal(again.values, out.values)


def test_monotone_in_slack():
    scene = make_scene(6, boxes=(1, 2))
    gt = raycast_depth(scene, GRID, include_foreground=True)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    noisy = corrupt_depth(gt, NoiseSpec(salt_frac=0.0, outlier_frac=0.2, outlier_offset=3.0, seed=1))
    tight = denoise_depth(noisy, bg, scene.room, GRID, slack=0.5)
    loose = denoise_depth(noisy, bg, scene.room, GRID, slack=2.0)
    replaced_tight = tight.values != noisy.values
    replaced_loose = loose.values != noisy.values
    assert np.all(replaced_loose <= replaced_tight)  # loose replaces a subset


def full_grid_denoise(gt, background, room, grid, slack):
    """The denoise rule applied to every pixel: unproject the whole grid and
    take the exact shell distance of each point."""
    points = gt.values[..., None] * pixel_center_dirs(grid)
    dist = shell_outside_distance(room, points.reshape(-1, 3)).reshape(grid.shape)
    return np.where((gt.values == 0) | (dist > slack), background.values, gt.values)


def shell_depth(room, grid):
    """Depth of the room's own empty shell along every pixel ray."""
    return raycast_depth(SceneSpec(room=room, boxes=np.empty((0, 6)), seed=0), grid, False).values


def disagreeing_rooms(room):
    """The room itself, one smaller and one larger than the measured scene."""
    v, down, up = room.vertices, room.cam_to_floor, room.cam_to_ceil
    return [
        room,
        ManhattanRoom(v * 0.8, cam_to_floor=down * 1.1, cam_to_ceil=up * 0.7),
        ManhattanRoom(v * 1.25, cam_to_floor=down * 0.9, cam_to_ceil=up * 1.3),
    ]


def rotated_room(grid, col):
    """A rectangle turned so that its +x wall faces the ray of column ``col``:
    on an odd-height grid that ray meets the wall head-on at the horizon,
    where the shell distance is exactly the depth beyond the wall."""
    a = pixel_center_lons(grid)[col]
    c, s = np.cos(a), np.sin(a)
    rect = np.array([[-1.7, -1.2], [2.1, -1.2], [2.1, 1.6], [-1.7, 1.6]])
    return ManhattanRoom(rect @ np.array([[c, s], [-s, c]]), cam_to_floor=1.4, cam_to_ceil=1.1)


SLACKS = (1e-6, 1.0, 3.0)


@pytest.mark.parametrize("height", [32, 33, 64])
def test_matches_full_grid_on_generated_scenes(height):
    grid = GridSpec(width=2 * height, height=height)
    for seed in range(4):
        scene = make_scene(seed, plan="rect" if seed % 2 else "lshape", boxes=(1, 3))
        gt = raycast_depth(scene, grid, include_foreground=True)
        bg = raycast_depth(scene, grid, include_foreground=False)
        noisy = corrupt_depth(gt, NoiseSpec(salt_frac=0.05, outlier_frac=0.2, seed=seed))
        for room in disagreeing_rooms(scene.room):
            for slack in SLACKS:
                want = full_grid_denoise(noisy, bg, room, grid, slack)
                got = denoise_depth(noisy, bg, room, grid, slack).values
                assert np.array_equal(got, want), (seed, slack)


def _steps_from(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return x


@pytest.mark.parametrize("height", [32, 33])
def test_matches_full_grid_at_the_bound(height):
    """Depths within 1e-10 m and 3 ulp of ``t + slack``, where ``t`` is the
    room's shell depth: the bound decides these pixels, or hands them to the
    exact distance, exactly as the full grid does. With the slack 1e-8, a
    depth 1e-10 m beyond ``t + slack`` on the rows nearest the poles, whose
    rays meet a cap at |sin lat| within 2e-3 of 1, lies past the slack, so
    the cap test's own margin decides it."""
    grid = GridSpec(width=2 * height, height=height)
    scene = make_scene(5, plan="lshape")
    rooms = disagreeing_rooms(scene.room) + [rotated_room(grid, grid.width // 8)]
    bg = raycast_depth(scene, grid, include_foreground=False)
    offsets = [1e-10, -1e-10, 3e-11, -3e-11]
    zeros = np.zeros(grid.shape, dtype=bool)
    zeros[::7, ::5] = True
    for room in rooms:
        t = shell_depth(room, grid)
        for slack in SLACKS + (1e-8,):
            edge = t + slack
            for depth in [edge + o for o in offsets] + [_steps_from(edge, k) for k in range(-3, 4)]:
                gt = DepthMap(grid=grid, values=np.where(zeros, 0.0, depth))
                want = full_grid_denoise(gt, bg, room, grid, slack)
                got = denoise_depth(gt, bg, room, grid, slack).values
                assert np.array_equal(got, want), slack


# --- the bounds that decide pixels without the exact distance ---------------


def notch_room():
    """An L-shaped room whose 4 x 4 m notch lies inside its bounding
    rectangle: notch points are up to 2 m outside the polygon."""
    v = np.array([[-3.0, -3.0], [5.0, -3.0], [5.0, 1.0], [1.0, 1.0], [1.0, 5.0], [-3.0, 5.0]])
    return ManhattanRoom(v, cam_to_floor=1.5, cam_to_ceil=1.2)


def as_rows(points):
    return {p.tobytes() for p in np.ascontiguousarray(points)}


def in_shell_box(room, points):
    """Whether each point lies in the box that holds the room shell: the
    floor plan's bounding rectangle times the height slab."""
    lo = np.append(room.vertices.min(axis=0), -room.cam_to_floor)
    hi = np.append(room.vertices.max(axis=0), room.cam_to_ceil)
    return np.all((lo <= points) & (points <= hi), axis=-1)


@pytest.mark.parametrize("height", [33, 64])
@pytest.mark.parametrize("slack", [1e-6, 1.0])
def test_notch_points_reach_the_exact_distance(monkeypatch, height, slack):
    # points in the bounding box's slab but outside the polygon by more
    # than the slack: the replace bound cannot replace them, the exact
    # distance must
    grid = GridSpec(width=2 * height, height=height)
    room = notch_room()
    dirs = pixel_center_dirs(grid)
    depth = np.array(shell_depth(room, grid))
    in_notch = np.zeros(grid.shape, dtype=bool)
    for t in np.linspace(12.0, 0.5, 116):  # the nearest notch depth along each ray wins
        pts = t * dirs
        outside = shell_outside_distance(room, pts.reshape(-1, 3)).reshape(grid.shape) > slack
        hit = in_shell_box(room, pts) & outside
        depth[hit] = t
        in_notch |= hit
    assert np.count_nonzero(in_notch) >= 20
    gt = DepthMap(grid=grid, values=depth)
    bg = DepthMap(grid=grid, values=np.full(grid.shape, 2.5))
    measured = []

    def spy(room, points):
        measured.append(points.copy())
        return shell_outside_distance(room, points)

    monkeypatch.setattr(denoise, "shell_outside_distance", spy)
    got = denoise_depth(gt, bg, room, grid, slack).values
    assert np.array_equal(got, full_grid_denoise(gt, bg, room, grid, slack))
    assert np.all(got[in_notch] == 2.5)
    notch_points = depth[in_notch][:, None] * dirs[in_notch]
    assert as_rows(notch_points) <= as_rows(np.concatenate(measured))


@pytest.mark.parametrize("height", [33, 65])
def test_horizon_row_of_an_odd_grid(height):
    # sin(lat) == 0: no cap bounds the row and its points sit mid-slab
    grid = GridSpec(width=2 * height, height=height)
    mid = height // 2
    assert pixel_center_dirs(grid)[mid, :, 2].max() == 0.0
    scene = make_scene(5, plan="lshape")
    bg = raycast_depth(scene, grid, include_foreground=False)
    rooms = [notch_room(), rotated_room(grid, grid.width // 8)] + disagreeing_rooms(scene.room)
    for room in rooms:
        t = shell_depth(room, grid)[mid]
        for slack in SLACKS:
            rows = [t + slack + o for o in (-1e-10, 1e-10, 0.5 * slack, 5.0 * slack, 40.0)]
            rows += [_steps_from(t + slack, k) for k in (-3, 0, 3)]
            for row in rows:
                depth = np.array(bg.values)
                depth[mid] = row
                gt = DepthMap(grid=grid, values=depth)
                want = full_grid_denoise(gt, bg, room, grid, slack)
                got = denoise_depth(gt, bg, room, grid, slack).values
                assert np.array_equal(got, want), slack


def box_exit_depth(room, grid, gap):
    """Depth along each pixel ray at which it leaves the shell's bounding box
    grown by ``gap`` on every side: most such points lie ``gap`` from the box."""
    lo = np.append(room.vertices.min(axis=0), -room.cam_to_floor) - gap
    hi = np.append(room.vertices.max(axis=0), room.cam_to_ceil) + gap
    dirs = pixel_center_dirs(grid)
    with np.errstate(divide="ignore"):
        exits = np.where(dirs > 0, hi / dirs, np.where(dirs < 0, lo / dirs, np.inf))
    return exits.min(axis=-1)


def replace_bound(room, grid, slack, depth):
    """Whether the replace bound settles each pixel of ``depth``: beyond its
    row's slab exit or, times cos(lat), its column's rectangle exit."""
    t_far, w_far = denoise._far_bounds(room, grid, slack + denoise._MARGIN)
    cos_lat = pixel_center_trig(grid)[0]
    return (depth > t_far[:, None]) | (depth * cos_lat > w_far)


@pytest.mark.parametrize("height", [32, 33])
@pytest.mark.parametrize("slack", SLACKS)
def test_box_gap_at_slack_plus_margin(height, slack):
    # depths within 3 ulp of box gap slack + margin, the replace bound's
    # threshold, and of box gap slack, where in a rectangle (box and shell
    # agree) the exact distance decides; in a rectangle and an L-shaped room
    grid = GridSpec(width=2 * height, height=height)
    scene = make_scene(3)
    bg = raycast_depth(scene, grid, include_foreground=False)
    for room in (scene.room, notch_room()):
        above = below = 0
        for gap in (slack + denoise._MARGIN, slack):
            edge = box_exit_depth(room, grid, gap)
            for k in range(-3, 4):
                depth = _steps_from(edge, k)
                settled = replace_bound(room, grid, slack, depth)
                above += np.count_nonzero(settled)
                below += np.count_nonzero(~settled)
                gt = DepthMap(grid=grid, values=depth)
                want = full_grid_denoise(gt, bg, room, grid, slack)
                got = denoise_depth(gt, bg, room, grid, slack).values
                assert np.array_equal(got, want), (slack, gap, k)
        assert above > 0 and below > 0


def axis_columns(grid):
    """The columns nearest the axes: those of the smallest |cos lon| and of
    the smallest |sin lon|, where one rectangle exit of the replace bound
    divides by the smallest value."""
    _, _, cos_lon, sin_lon = pixel_center_trig(grid)
    nearest = [np.abs(cos_lon), np.abs(sin_lon)]
    return np.concatenate([np.flatnonzero(a <= a.min() * (1 + 1e-12)) for a in nearest])


def far_room():
    """A rectangle whose walls and caps lie thousands of meters away, so that
    both bounds and the exact distance decide depths near 1e4 m."""
    rect = np.array([[-7e3, -5e3], [1e4, -5e3], [1e4, 8e3], [-7e3, 8e3]])
    return ManhattanRoom(rect, cam_to_floor=4e3, cam_to_ceil=3e3)


@pytest.mark.parametrize("height", [32, 33])
def test_axis_columns_and_depths_near_1e4(height):
    # at the columns nearest the axes, depths within 3 ulp of each bound's
    # threshold and of the shell depth plus the slack, in rooms a few meters
    # and thousands of meters across
    grid = GridSpec(width=2 * height, height=height)
    cols = axis_columns(grid)
    assert cols.size >= 4
    scene = make_scene(5, plan="lshape")
    bg = raycast_depth(scene, grid, include_foreground=False)
    assert box_exit_depth(far_room(), grid, 3.0)[:, cols].max() > 9e3
    for room in (scene.room, notch_room(), far_room()):
        for slack in SLACKS:
            edges = [box_exit_depth(room, grid, slack + denoise._MARGIN),
                     box_exit_depth(room, grid, slack), shell_depth(room, grid) + slack]
            for edge in edges + [np.full(grid.shape, 1e4)]:
                for k in range(-3, 4):
                    depth = np.array(bg.values)
                    depth[:, cols] = _steps_from(edge[:, cols], k)
                    gt = DepthMap(grid=grid, values=depth)
                    want = full_grid_denoise(gt, bg, room, grid, slack)
                    got = denoise_depth(gt, bg, room, grid, slack).values
                    assert np.array_equal(got, want), (slack, k)


def test_working_set_is_the_output_plus_bands():
    # noisy 1024x512 maps, the true room and two that disagree with it: the
    # traced peak is the 4 MiB output map plus band-sized temporaries, with
    # the exact distance run in pieces of at most one band
    grid = GridSpec(width=1024, height=512)
    for seed, plan in [(0, "lshape"), (1, "rect"), (3, "rect")]:
        scene = make_scene(seed, plan=plan, boxes=(1, 3))
        gt = raycast_depth(scene, grid, include_foreground=True)
        bg = raycast_depth(scene, grid, include_foreground=False)
        noisy = corrupt_depth(gt, NoiseSpec())
        for room in disagreeing_rooms(scene.room):
            denoise_depth(noisy, bg, room, grid)  # the grid's trig is cached on first use
            tracemalloc.start()
            try:
                denoise_depth(noisy, bg, room, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20, (seed, plan, peak / 2**20)
