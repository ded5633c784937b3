import numpy as np
import pytest

from panoroom import GridSpec, SceneConfig, SegMap, generate_scene
from panoroom.equirect import pixel_center_lats, pixel_center_lons


def make_scene(seed, plan="rect", boxes=(0, 0)):
    return generate_scene(seed, SceneConfig(plan=plan, box_count_range=boxes))


def point_in_polygon_loop(edges, px, py):
    """Even-odd test of one point, edge by edge in plain Python: the
    reference for the package's vectorised test."""
    inside = False
    for ax, ay, bx, by in edges:
        if (ay > py) != (by > py):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < xint:
                inside = not inside
    return inside


def extract_corners_loop(prob, threshold, window):
    """Peak picking candidate by candidate in plain Python: the reference
    for ``extract_corners``' vectorised pass. A column survives when it
    reaches the threshold and no column within +-window (circularly) holds
    a larger probability, or an equal one at a smaller index."""
    w = len(prob)
    keep = []
    for v in np.nonzero(prob >= threshold)[0]:
        ok = True
        for o in range(-window, window + 1):
            if o == 0:
                continue
            u = (v + o) % w
            if prob[u] > prob[v] or (prob[u] == prob[v] and u < v):
                ok = False
                break
        if ok:
            keep.append(int(v))
    return keep


def pixel_center_dirs(grid):
    """(H, W, 3) unit ray directions at all pixel centers: the reference for
    the package's per-row and per-column direction factors."""
    lat = pixel_center_lats(grid)[:, None]
    lon = pixel_center_lons(grid)[None, :]
    cl = np.cos(lat)
    return np.stack(
        [
            cl * np.cos(lon),
            cl * np.sin(lon),
            np.broadcast_to(np.sin(lat), (grid.height, grid.width)),
        ],
        axis=-1,
    )


def background_mask(with_fg, without_fg, eps=1e-6):
    """1 where two whole renders of one scene, with and without foreground,
    agree within eps: the reference for ``render_scene``'s footprint-only
    mask."""
    agree = np.abs(with_fg.values - without_fg.values) <= eps
    return SegMap(grid=with_fg.grid, values=agree.astype(np.float64))


def mixed_scenes(n, boxes=(0, 0), seed0=0):
    """n deterministic scenes alternating rect and L-shaped plans."""
    return [
        make_scene(seed0 + i, plan="rect" if i % 2 == 0 else "lshape", boxes=boxes)
        for i in range(n)
    ]


@pytest.fixture
def small_grid():
    return GridSpec(width=128, height=64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
