"""Layout-constrained denoising of measured depth maps.

A pixel is rewritten with the background depth when (a) its measurement is
missing (value 0), or (b) its 3D unprojection lands outside the closed
room shell by more than ``slack`` meters. Points inside the room are never
touched. The shell is the floor-plan polygon extruded between the floor
and ceiling planes and capped, so the outside distance of a point is
``hypot(horizontal distance to the polygon region, vertical distance to
the height slab)``.

Only pixels that could be replaced are measured. A pixel's ray leaves the
shell at the room's own empty-shell depth ``t``, and ``t * u`` lies on the
shell, so a point at depth ``d`` on that ray is at most ``max(0, d - t)``
outside it: ``d <= t + slack`` already proves the pixel is kept.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .bgdepth import DepthMap, _row_bands, require_same_grid
from .equirect import GridSpec, pixel_center_dirs_at
from .errors import ShapeMismatchError, ValueRangeError
from .layout import ManhattanRoom

DEFAULT_SLACK = 1.0  # meters

# How far inside ``t + slack`` a depth must lie to skip the exact distance.
# The ray-cast depth and the exact distance both round to ~1e-14 m for
# rooms and depths under ~1e4 m, so 1e-9 m keeps the test on the safe side.
_MARGIN = 1e-9


def shell_outside_distance(room: ManhattanRoom, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from 3D points to the closed room shell (0 inside)."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    return _kernels.shell_outside_distance(
        room.edges, room.cam_to_floor, room.cam_to_ceil, pts
    )


def denoise_depth(
    gt: DepthMap,
    background: DepthMap,
    room: ManhattanRoom,
    grid: GridSpec,
    slack: float = DEFAULT_SLACK,
) -> DepthMap:
    """Replace missing pixels and pixels more than ``slack`` meters outside
    the room shell with the background depth."""
    if not slack > 0:
        raise ValueRangeError(f"slack must be > 0, got {slack}")
    require_same_grid(gt, background)
    if gt.grid != grid:
        raise ShapeMismatchError("depth map grid differs from requested grid")

    d = gt.values
    parts = _kernels.shell_parts(room.edges, room.cam_to_floor, room.cam_to_ceil, grid)
    bands = []
    for rows in _row_bands(grid):
        t = _kernels.shell_depth(parts, rows)
        t += slack - _MARGIN
        # written as "not kept" so that a NaN depth bound makes a candidate
        (band,) = np.nonzero(~(d[rows] <= t).ravel())
        bands.append(band + rows.start * grid.width)
    flat = np.concatenate(bands)
    rows, cols = np.divmod(flat, grid.width)
    points = pixel_center_dirs_at(rows, cols, grid)
    points *= np.take(d, flat)[:, None]
    replace = (d == 0).ravel()
    replace[flat] |= shell_outside_distance(room, points) > slack
    # each pixel comes from one of two validated maps
    out = np.where(replace.reshape(grid.shape), background.values, d)
    return DepthMap._own(grid, out)
