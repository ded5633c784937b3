"""One bound for every length: a floor-plan vertex, a box extent, a camera
height, a depth value and the noise outlier offset may reach
``layout._MAX_COORD`` (2**500 m) and no further.

Within it no stage overflows, so each stage runs at the bound without a
numpy warning, which fails the test (``filterwarnings`` in
``pyproject.toml``). The maps a stage builds may lie past the bound, and
the later stages take them without a warning too. The stages read the
bound from ``layout``, so a bound raised past what the floats hold fails
them."""

import math

import numpy as np
import pytest

from panoroom import (
    CameraHeights,
    DepthMap,
    GridSpec,
    LayoutMap,
    ManhattanRoom,
    NoiseSpec,
    SceneSpec,
    corrupt_depth,
    denoise_depth,
    derive_seg_labels,
    eval_metrics,
    fuse_depth,
    layout_to_room,
    render_scene,
    resolve_background_depth,
    room_to_layout,
)
from panoroom import _kernels, layout
from panoroom.bgdepth import RESOLVE_MODES
from panoroom.errors import ValueRangeError

BOUND = layout._MAX_COORD
SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@pytest.mark.parametrize(
    "make",
    [lambda h: CameraHeights(up=h, down=1.0),
     lambda h: CameraHeights(up=1.0, down=h),
     lambda h: ManhattanRoom(SQUARE, cam_to_floor=h, cam_to_ceil=1.0),
     lambda h: ManhattanRoom(SQUARE, cam_to_floor=1.5, cam_to_ceil=h)],
    ids=["heights-up", "heights-down", "room-floor", "room-ceil"],
)
def test_a_camera_height_reaches_the_bound_and_no_further(make):
    make(2.0**500)
    with pytest.raises(ValueRangeError, match=r"^camera height '(up|down)' must be a real number"):
        make(np.nextafter(2.0**500, np.inf))


def test_a_depth_and_an_outlier_offset_reach_the_bound_and_no_further():
    grid = GridSpec(width=4, height=2)
    DepthMap(grid=grid, values=np.full(grid.shape, 2.0**500))
    NoiseSpec(outlier_offset=2.0**500)
    past = np.nextafter(2.0**500, np.inf)
    with pytest.raises(ValueRangeError, match="^depth values must lie in"):
        DepthMap(grid=grid, values=np.full(grid.shape, past))
    with pytest.raises(ValueRangeError, match="^outlier_offset must be a real number"):
        NoiseSpec(outlier_offset=past)


def boundary_rows(height):
    """Ceiling and floor rows one ulp from the horizon, then one ulp from
    the poles."""
    half = height / 2.0
    near_horizon = np.nextafter(half, 0.0), np.nextafter(half, height)
    near_poles = np.nextafter(0.0, 1.0), np.nextafter(float(height), 0.0)
    return near_horizon, near_poles


@pytest.mark.parametrize("mode", RESOLVE_MODES)
@pytest.mark.parametrize("height", [1, 2, 3, 33, 64, 257])
def test_background_at_the_bound_is_finite(height, mode):
    grid = GridSpec(width=2 * height, height=height)
    heights = CameraHeights(up=BOUND, down=BOUND)
    horizon, poles = boundary_rows(height)
    # every column near the horizon, every column near the poles, and the two
    # alternating: the wall rows then span the grid, and a wall range of a
    # floor boundary at the horizon meets the smallest cos(lat)
    mixed = [(horizon[0], poles[1]), (poles[0], horizon[1])] * height
    for pairs in [[horizon] * grid.width, [poles] * grid.width, mixed]:
        ceil, floor = np.array(pairs).T
        rows = LayoutMap(ceil, floor, np.zeros(grid.width))
        bg = resolve_background_depth(rows, heights, grid, mode).values
        assert np.isfinite(bg).all() and bg.min() > 0


@pytest.mark.parametrize("height", [4096, 4095])
def test_shell_planes_at_the_bound_are_finite_off_the_horizon(height):
    grid = GridSpec(width=2 * height, height=height)
    edges = layout.polygon_edges(BOUND * SQUARE)
    parts = _kernels.shell_parts(edges, BOUND, BOUND, grid)
    planes = parts.t_plane[:, 0]
    # an odd-height grid's horizon row meets no cap
    horizon = [height // 2] if height % 2 else []
    assert np.isinf(planes[horizon]).all()
    assert np.isfinite(np.delete(planes, horizon)).all()


def scene_at_the_bound() -> SceneSpec:
    room = ManhattanRoom(BOUND * SQUARE, cam_to_floor=BOUND, cam_to_ceil=BOUND)
    # a box that fills the room from x = BOUND / 4 on, below half its height
    box = [BOUND / 4, -BOUND, -BOUND, BOUND, BOUND, BOUND / 2]
    return SceneSpec(room=room, boxes=[box], seed=0)


@pytest.mark.parametrize("height", [3, 4, 9])
def test_render_and_denoise_at_the_bound(height):
    grid = GridSpec(width=2 * height, height=height)
    scene = scene_at_the_bound()
    depth, shell, mask = render_scene(scene, grid)
    assert np.isfinite(depth.values).all() and (mask.values == 0).any()
    # pixels missing or pushed 2**500 m past the shell are far outside it
    far = corrupt_depth(shell, NoiseSpec(salt_frac=0.25, outlier_frac=0.75, outlier_offset=BOUND))
    assert np.all((far.values == 0) | (far.values > shell.values))
    cleaned = denoise_depth(far, shell, scene.room, grid)
    assert np.array_equal(cleaned.values, shell.values)
    cleaned = denoise_depth(depth, shell, scene.room, grid, slack=BOUND)
    assert np.array_equal(cleaned.values, depth.values)


@pytest.mark.parametrize("height", [3, 4, 64, 257])
def test_stages_take_maps_past_the_bound_without_a_warning(height):
    """A render of the room at the bound reaches past 2**500 m, and so does
    background depth from floor boundaries one ulp below the horizon; the
    stages that take depth maps run on them, and on their outputs, without
    a numpy warning."""
    grid = GridSpec(width=2 * height, height=height)
    scene = scene_at_the_bound()
    depth, shell, mask = render_scene(scene, grid)
    (ceil, floor), _ = boundary_rows(height)
    rows = LayoutMap(np.full(grid.width, ceil), np.full(grid.width, floor), np.zeros(grid.width))
    bg = resolve_background_depth(rows, CameraHeights(up=BOUND, down=BOUND), grid)
    assert shell.values.max() > BOUND and bg.values.max() > BOUND
    coarse = corrupt_depth(bg, NoiseSpec(outlier_offset=BOUND))
    fused = fuse_depth(coarse, shell, mask)
    labels = derive_seg_labels(coarse, fused, gamma=BOUND)
    for slack in (1.0, BOUND, math.inf):
        denoise_depth(coarse, fused, scene.room, grid, slack)
    eval_metrics(fused, depth, mask)
    eval_metrics(depth, coarse, labels)


def test_layout_to_room_at_the_bound_is_value_range():
    grid = GridSpec(width=64, height=32)
    room = ManhattanRoom([[-2.0, -1.25], [2.0, -1.25], [2.0, 1.25], [-2.0, 1.25]], 1.5, 1.0)
    rows = room_to_layout(room, grid)
    with pytest.raises(ValueRangeError, match="^floor plan vertices must lie within"):
        layout_to_room(rows, CameraHeights(up=BOUND, down=BOUND), grid)
