import numpy as np
import pytest

from panoroom import (
    CEILING,
    FLOOR,
    WALL,
    CameraHeights,
    DepthMap,
    GridSpec,
    LayoutMap,
    NoiseSpec,
    classify_regions,
    corrupt_depth,
    raycast_depth,
    resolve_background_depth,
    resolve_camera_heights,
    room_to_layout,
)
from panoroom import _kernels
from panoroom.bgdepth import (
    _column_estimates_interior,
    cap_depth,
    wall_depth,
)
from panoroom.equirect import lat_to_row, pixel_center_lats, pixel_center_lons
from panoroom.errors import NoValidSamplesError, ValueRangeError

from conftest import make_scene, mixed_scenes

GRID = GridSpec(width=256, height=128)


def layout_for(scene, grid=GRID):
    return room_to_layout(scene.room, grid)


# --- camera height resolution ----------------------------------------------


def test_oracle_recovery_exact():
    for scene in mixed_scenes(6):
        layout = layout_for(scene)
        coarse = raycast_depth(scene, GRID, include_foreground=False)
        heights = resolve_camera_heights(layout, coarse, GRID)
        assert heights.down == pytest.approx(scene.room.cam_to_floor, abs=1e-6)
        assert heights.up == pytest.approx(scene.room.cam_to_ceil, abs=1e-6)


def test_median_robust_to_corrupted_columns():
    scene = make_scene(5)
    layout = layout_for(scene)
    coarse = raycast_depth(scene, GRID, include_foreground=False).values.copy()
    rng = np.random.default_rng(0)
    bad = rng.choice(GRID.width, size=int(0.3 * GRID.width), replace=False)
    coarse[:, bad] *= 10.0
    heights = resolve_camera_heights(layout, DepthMap(grid=GRID, values=coarse), GRID)
    assert heights.down == pytest.approx(scene.room.cam_to_floor, abs=1e-6)
    assert heights.up == pytest.approx(scene.room.cam_to_ceil, abs=1e-6)


def test_all_invalid_raises():
    scene = make_scene(1)
    layout = layout_for(scene)
    empty = DepthMap(grid=GRID, values=np.zeros(GRID.shape))
    with pytest.raises(NoValidSamplesError):
        resolve_camera_heights(layout, empty, GRID)


def test_invalid_pixels_skipped_by_interior_walk():
    scene = make_scene(2)
    layout = layout_for(scene)
    coarse = raycast_depth(scene, GRID, include_foreground=False).values.copy()
    # punch holes at the rows adjacent to the boundaries in half the columns
    for col in range(0, GRID.width, 2):
        fi = int(np.floor(layout.floor_rows[col] - 0.5)) + 1
        ci = int(np.ceil(layout.ceil_rows[col] - 0.5)) - 1
        coarse[fi, col] = 0.0
        coarse[ci, col] = 0.0
    heights = resolve_camera_heights(layout, DepthMap(grid=GRID, values=coarse), GRID)
    assert heights.down == pytest.approx(scene.room.cam_to_floor, abs=1e-6)
    assert heights.up == pytest.approx(scene.room.cam_to_ceil, abs=1e-6)


# --- region classification --------------------------------------------------


def test_classify_rows_extremes():
    scene = make_scene(3)
    region = classify_regions(layout_for(scene), GRID)
    assert np.all(region[0] == CEILING)
    assert np.all(region[-1] == FLOOR)


def test_classify_boundary_tie_is_wall():
    h, w = 64, 128
    grid = GridSpec(width=w, height=h)
    layout = LayoutMap(
        ceil_rows=np.full(w, 10.5),  # exactly a pixel-center row
        floor_rows=np.full(w, 50.5),
        corner_prob=np.zeros(w),
    )
    region = classify_regions(layout, grid)
    assert np.all(region[10] == WALL)
    assert np.all(region[50] == WALL)
    assert np.all(region[9] == CEILING)
    assert np.all(region[51] == FLOOR)


# --- background depth -------------------------------------------------------


def test_nadir_formulas():
    assert cap_depth(np.pi / 2, 1.5, "exact") == pytest.approx(1.5, abs=1e-15)
    assert cap_depth(np.pi / 2, 1.5, "paper-literal") == pytest.approx(3.0 / np.pi, abs=1e-12)
    assert wall_depth(0.0, 2.7, "exact") == 2.7
    assert wall_depth(0.0, 2.7, "paper-literal") == 2.7


def test_background_matches_raycast_oracle():
    for scene in mixed_scenes(6, seed0=20):
        layout = layout_for(scene)
        bg = resolve_background_depth(layout, scene.room.heights, GRID, mode="exact")
        oracle = raycast_depth(scene, GRID, include_foreground=False)
        rmse = np.sqrt(np.mean((bg.values - oracle.values) ** 2))
        assert rmse <= 1e-4


def test_paper_literal_lower_bounds_exact_on_caps():
    # d = h/|lat| underestimates d = h/sin|lat| since sin x <= x on (0, pi/2]
    scene = make_scene(9)
    layout = layout_for(scene)
    exact = resolve_background_depth(layout, scene.room.heights, GRID, "exact").values
    literal = resolve_background_depth(layout, scene.room.heights, GRID, "paper-literal").values
    region = classify_regions(layout, GRID)
    caps = region != WALL
    assert np.all(literal[caps] <= exact[caps])
    # ratio approaches 1 toward the horizon, 2/pi at the poles
    ratios = literal[caps] / exact[caps]
    assert ratios.min() >= 2.0 / np.pi - 1e-12
    assert ratios.max() <= 1.0
    assert ratios.max() > 0.95


def test_wall_depth_constant_at_equator_increasing_in_lat():
    scene = make_scene(4)
    layout = layout_for(scene)
    bg = resolve_background_depth(layout, scene.room.heights, GRID).values
    region = classify_regions(layout, GRID)
    h = GRID.height
    for col in (0, 64, 131, 200):
        rows = np.nonzero(region[:, col] == WALL)[0]
        vals = bg[rows, col]
        upper = vals[rows < h / 2]  # above the horizon: |lat| shrinks downward
        lower = vals[rows >= h / 2]  # below: |lat| grows downward
        assert np.all(np.diff(upper) < 0)
        assert np.all(np.diff(lower) > 0)
        # the two rows straddling the equator share |lat|, hence depth
        assert upper[-1] == pytest.approx(lower[0], rel=1e-12)


def test_scale_equivariance():
    scene = make_scene(6)
    layout = layout_for(scene)
    h1 = scene.room.heights
    k = 2.75
    h2 = CameraHeights(up=k * h1.up, down=k * h1.down)
    # scaling heights alone does not preserve the layout; rebuild a scaled room
    scaled_layout = room_to_layout(
        type(scene.room)(scene.room.vertices * k, k * h1.down, k * h1.up), GRID
    )
    np.testing.assert_allclose(scaled_layout.floor_rows, layout.floor_rows, atol=1e-9)
    bg1 = resolve_background_depth(layout, h1, GRID).values
    bg2 = resolve_background_depth(scaled_layout, h2, GRID).values
    np.testing.assert_allclose(bg2, k * bg1, rtol=1e-12)


def test_background_all_positive():
    for scene in mixed_scenes(4, seed0=30):
        layout = layout_for(scene)
        for mode in ("exact", "paper-literal"):
            bg = resolve_background_depth(layout, scene.room.heights, GRID, mode)
            assert np.all(bg.values > 0)


# --- identity with the per-column loop and the nested-where background -------


def loop_column_estimates_interior(layout, coarse, grid):
    """Reference: the interior sampler as a per-column loop with scalar sin."""
    h = grid.height
    v = coarse.values
    up = np.full(grid.width, np.nan)
    down = np.full(grid.width, np.nan)
    for col in range(grid.width):
        i = int(np.ceil(layout.ceil_rows[col] - 0.5)) - 1  # last center above boundary
        while i >= 0 and v[i, col] <= 0.0:
            i -= 1
        if i >= 0:
            lat = (0.5 - (i + 0.5) / h) * np.pi
            up[col] = v[i, col] * np.sin(lat)
        i = int(np.floor(layout.floor_rows[col] - 0.5)) + 1  # first center below boundary
        while i < h and v[i, col] <= 0.0:
            i += 1
        if i < h:
            lat = (0.5 - (i + 0.5) / h) * np.pi
            down[col] = v[i, col] * np.sin(-lat)
    return up, down


# --- the plane depth and wall range as each stage once wrote them ----------


def reference_cap_depth(lat_mag, height, mode):
    """The background's cap formula: ``h / sin(lat_mag)``, or ``h / lat_mag``
    in the small-angle form."""
    if mode == "exact":
        return height / np.sin(lat_mag)
    return height / np.asarray(lat_mag, dtype=np.float64)


def reference_t_plane(dz, cam_down, cam_up):
    """The ray-cast's floor/ceiling distance ``+-h / dz``, inf on the horizon."""
    return np.where(dz < 0.0, -cam_down / dz, np.where(dz > 0.0, cam_up / dz, np.inf))


def reference_boundary_range(edges, azimuths):
    """Horizontal distance to the first wall along each azimuth."""
    return _kernels._first_crossing(edges, np.cos(azimuths), np.sin(azimuths))[0]


@pytest.mark.parametrize("height", [2, 3, 32, 33, 512, 513])
def test_plane_depth_matches_both_references(height):
    grid = GridSpec(width=2 * height, height=height)
    lat = pixel_center_lats(grid)[:, None]
    above, below = lat[:, 0] > 0.0, lat[:, 0] < 0.0
    horizon = ~above & ~below
    assert horizon.sum() == height % 2
    for room in (make_scene(5).room, make_scene(6, plan="lshape").room):
        down, up = room.cam_to_floor, room.cam_to_ceil
        t_plane = _kernels.shell_parts(room.edges, down, up, grid).t_plane
        with np.errstate(divide="ignore"):
            assert t_plane.tobytes() == reference_t_plane(np.sin(lat), down, up).tobytes()
            # off the horizon the ray-cast's plane distance is the cap formula
            want = reference_cap_depth(lat[above], up, "exact")
            assert t_plane[above].tobytes() == want.tobytes()
            want = reference_cap_depth(-lat[below], down, "exact")
            assert t_plane[below].tobytes() == want.tobytes()
            assert np.all(t_plane[horizon] == np.inf)
            for mode in ("exact", "paper-literal"):
                for h in (down, up):
                    want = reference_cap_depth(np.abs(lat), h, mode)
                    assert cap_depth(np.abs(lat), h, mode).tobytes() == want.tobytes()


@pytest.mark.parametrize("height", [33, 512])
def test_wall_range_matches_the_boundary_range_reference(height):
    grid = GridSpec(width=2 * height, height=height)
    for scene in mixed_scenes(20):
        room = scene.room
        r = reference_boundary_range(room.edges, pixel_center_lons(grid))
        layout = room_to_layout(room, grid)
        floor = lat_to_row(-np.arctan(room.cam_to_floor / r), grid)
        ceil = lat_to_row(np.arctan(room.cam_to_ceil / r), grid)
        assert layout.floor_rows.tobytes() == floor.tobytes(), scene.seed
        assert layout.ceil_rows.tobytes() == ceil.tobytes(), scene.seed
        parts = _kernels.shell_parts(room.edges, room.cam_to_floor, room.cam_to_ceil, grid)
        assert parts.wall.tobytes() == r.tobytes(), scene.seed


def nested_where_background(layout, heights, grid, mode):
    """Reference: every formula over the full grid, picked by region label."""
    region = classify_regions(layout, grid)
    lat = pixel_center_lats(grid)[:, None]
    wall_range = heights.down / np.tan((layout.floor_rows / grid.height - 0.5) * np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_ceil = reference_cap_depth(lat, heights.up, mode)
        d_floor = reference_cap_depth(-lat, heights.down, mode)
        d_wall = wall_depth(lat, wall_range[None, :], mode)
    return np.where(region == CEILING, d_ceil, np.where(region == FLOOR, d_floor, d_wall))


def salted_scenes(height):
    """Generated scenes at ``height`` rows: layout, clean render and a copy
    with 30% of its pixels zeroed; in every fifth column of the salted copy
    the whole ceiling (and, offset by two, floor) region is zeroed too, so
    that the interior walk runs off the image."""
    grid = GridSpec(width=2 * height, height=height)
    for seed in range(6):
        scene = make_scene(seed, plan="rect" if seed % 2 else "lshape", boxes=(0, 3))
        layout = room_to_layout(scene.room, grid)
        clean = raycast_depth(scene, grid, include_foreground=True)
        salted = corrupt_depth(clean, NoiseSpec(salt_frac=0.3, outlier_frac=0.1, seed=seed))
        values = salted.values.copy()
        values[: height // 2, ::5] = 0.0
        values[height // 2 :, 2::5] = 0.0
        yield scene, layout, grid, clean, DepthMap(grid=grid, values=values)


@pytest.mark.parametrize("height", [32, 33, 64])
def test_interior_estimates_match_the_loop(height):
    for scene, layout, grid, clean, salted in salted_scenes(height):
        for coarse in (clean, salted):
            got = _column_estimates_interior(layout, coarse, grid)
            want = loop_column_estimates_interior(layout, coarse, grid)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), scene.seed
        assert np.isnan(got[0][::5]).all() and np.isnan(got[1][2::5]).all()
        assert np.isfinite(got[0][1::5]).any()


@pytest.mark.parametrize("height", [32, 33, 64])
def test_background_matches_nested_where(height):
    for scene, layout, grid, clean, salted in salted_scenes(height):
        for heights in (scene.room.heights, CameraHeights(up=0.37, down=2.9)):
            for mode in ("exact", "paper-literal"):
                got = resolve_background_depth(layout, heights, grid, mode).values
                want = nested_where_background(layout, heights, grid, mode)
                assert got.tobytes() == want.tobytes(), (scene.seed, mode)


def test_background_is_read_only():
    scene = make_scene(2)
    bg = resolve_background_depth(layout_for(scene), scene.room.heights, GRID)
    assert not bg.values.flags.writeable
    with pytest.raises(ValueError):
        bg.values[0, 0] = 1.0


def test_background_overflow_is_value_range():
    # a floor boundary a hair below the horizon overflows the wall range
    h, w = 64, 128
    grid = GridSpec(width=w, height=h)
    layout = LayoutMap(
        ceil_rows=np.full(w, 10.0), floor_rows=np.full(w, 32.0 + 1e-13), corner_prob=np.zeros(w)
    )
    with pytest.raises(ValueRangeError), np.errstate(over="ignore"):
        resolve_background_depth(layout, CameraHeights(up=1.0, down=1e296), grid)
