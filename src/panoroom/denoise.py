"""Layout-constrained denoising of measured depth maps.

A pixel is rewritten with the background depth when (a) its measurement is
missing (value 0), or (b) its 3D unprojection lands outside the closed
room shell by more than ``slack`` meters. Points inside the room are never
touched. The shell is the floor-plan polygon extruded between the floor
and ceiling planes and capped, so the outside distance of a point is
``hypot(horizontal distance to the polygon region, vertical distance to
the height slab)``.

Each pixel is decided by two cheap bounds, and only the few that neither
settles get the exact distance (one ``shell_outside_distance`` call):

* **kept**: a pixel's ray ``u`` leaves the shell at the room's own
  empty-shell depth ``t``, and ``t * u`` lies on the shell, so a point at
  depth ``d`` on that ray is at most ``max(0, d - t)`` outside it. ``t`` is
  the nearer of the row's cap-plane distance ``t_plane`` and the column's
  wall distance ``wall / cos(lat)``, ``wall`` being the horizontal distance
  to the column's first wall crossing. With ``e = d - (slack - margin)``,
  ``e <= t_plane and e * cos(lat) <= wall`` is ``d <= t + slack - margin``
  without a per-pixel division;
* **replaced**: the shell lies inside the box of the floor plan's bounding
  rectangle times the height slab, so a point's squared distance to that
  box is at most its squared distance to the shell. A box distance beyond
  ``slack + margin`` proves the pixel is replaced.

Both bounds are rounded differently from the exact distance, so each keeps
``_MARGIN`` on its own side of ``slack``: a pixel the exact distance
would decide the other way is never settled by a bound, and every output
bit is that of measuring every pixel.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .bgdepth import DepthMap, _row_bands, require_same_grid
from .equirect import GridSpec
from .errors import ShapeMismatchError, ValueRangeError
from .layout import ManhattanRoom

DEFAULT_SLACK = 1.0  # meters

# How far on its own side of ``slack`` a bound must decide a pixel. The
# bounds and the exact distance each round to ~1e-14 m for rooms and
# depths under ~1e4 m, so 1e-9 m keeps both bounds on the safe side.
_MARGIN = 1e-9


def shell_outside_distance(room: ManhattanRoom, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from 3D points to the closed room shell (0 inside)."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    return _kernels.shell_outside_distance(
        room.edges, room.cam_to_floor, room.cam_to_ceil, pts
    )


def _box_gap_sq(room: ManhattanRoom, x, y, z) -> np.ndarray:
    """Squared distance from the points (x, y, z) to the box that holds the
    room shell: the floor plan's bounding rectangle times the height slab."""
    (x_lo, y_lo), (x_hi, y_hi) = room.vertices.min(axis=0), room.vertices.max(axis=0)
    z_lo, z_hi = -room.cam_to_floor, room.cam_to_ceil
    gap_sq = np.zeros(len(x))
    for c, c_lo, c_hi in ((x, x_lo, x_hi), (y, y_lo, y_hi), (z, z_lo, z_hi)):
        gap = np.maximum(c_lo - c, c - c_hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        gap_sq += gap
    return gap_sq


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
        e = d[rows] - (slack - _MARGIN)
        keep = e <= parts.t_plane[rows]
        e *= parts.cl[rows]
        keep &= e <= parts.wall
        # written as "not kept" so that a NaN depth makes a candidate
        (band,) = np.nonzero(~keep.ravel())
        bands.append(band + rows.start * grid.width)
    flat = np.concatenate(bands)
    rows, cols = np.divmod(flat, grid.width)
    depth = np.take(d, flat)
    # the bits of the tests' pixel_center_dirs(grid)[rows, cols] * depth
    cl = parts.cl[rows, 0]
    x = np.multiply(cl, parts.cos_lon[cols])
    x *= depth
    y = np.multiply(cl, parts.sin_lon[cols])
    y *= depth
    z = np.multiply(parts.dz[rows, 0], depth)
    far = _box_gap_sq(room, x, y, z) > (slack + _MARGIN) ** 2
    near = ~far
    points = np.stack([x[near], y[near], z[near]], axis=1)
    replace = (d == 0).ravel()
    replace[flat[far]] = True
    replace[flat[near]] |= shell_outside_distance(room, points) > slack
    # each pixel comes from one of two validated maps
    out = np.where(replace.reshape(grid.shape), background.values, d)
    return DepthMap._own(grid, out)
