"""Layout-constrained denoising of measured depth maps.

A pixel is rewritten with the background depth when (a) its measurement is
missing (value 0), or (b) its 3D unprojection lands outside the closed
room shell by more than ``slack`` meters. Points inside the room are never
touched. The shell is the floor-plan polygon extruded between the floor
and ceiling planes and capped, so the outside distance of a point is
``hypot(horizontal distance to the polygon region, vertical distance to
the height slab)``.

Each pixel is decided by two cheap bounds, and only the few that neither
settles get the exact distance (``shell_outside_distance``). Each bound is
one table per row and one per column:

* **kept**: a pixel's ray ``u`` leaves the shell at the room's own
  empty-shell depth ``t``, and ``t * u`` lies on the shell, so a point at
  depth ``d`` on that ray is at most ``max(0, d - t)`` outside it. ``t`` is
  the nearer of the row's cap-plane distance ``t_plane`` and the column's
  wall distance ``wall / cos(lat)``, ``wall`` being the horizontal distance
  to the column's first wall crossing. With ``e = d - (slack - margin)``,
  ``d <= t_plane + (slack - margin) and e * cos(lat) <= wall`` is ``d <=
  t + slack - margin`` without a per-pixel division. The wall test runs
  only on the rows where a wall may be nearer than the caps
  (``ShellParts.walls``): elsewhere a depth that passes the cap test is
  nearer than every wall;
* **replaced**: the shell lies inside the box of the floor plan's bounding
  rectangle times the height slab, so a point more than ``g = slack +
  margin`` beyond one face of that box is more than ``slack`` outside the
  shell. ``t_far`` is the row's depth at which the ray leaves the height
  slab grown by ``g``, and ``w_far`` the column's horizontal distance at
  which it leaves the rectangle grown by ``g``; ``d > t_far or d * cos(lat)
  > w_far`` proves the pixel is replaced.

Both bounds are rounded differently from the exact distance, so each keeps
``_MARGIN`` on its own side of ``slack``: a pixel the exact distance
would decide the other way is never settled by a bound, and every output
bit is that of measuring every pixel.

One pass over the row bands applies both bounds and writes the band's
output rows. The pixels neither settles are measured in pieces of at most
one band's pixel count, so the working set is the output map plus
band-sized temporaries.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .bgdepth import DepthMap, _row_bands, require_same_grid
from .equirect import GridSpec, _real, pixel_center_trig
from .errors import ShapeMismatchError, ValueRangeError
from .layout import ManhattanRoom, _readonly

DEFAULT_SLACK = 1.0  # meters

# How far on its own side of ``slack`` a bound must decide a pixel. The
# bounds and the exact distance each round to ~1e-14 m for rooms and
# depths under ~1e4 m, so 1e-9 m keeps both bounds on the safe side.
_MARGIN = 1e-9


def shell_outside_distance(room: ManhattanRoom, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from finite 3D points, (x, y, z) triples, to the
    closed room shell (0 inside); inf if too far to square. A float64 array
    is read in place, anything else taken as a value type takes an array."""
    as_is = isinstance(points, np.ndarray) and points.dtype == np.float64
    pts = points if as_is else _readonly(points, "points")
    if pts.size % 3:
        raise ShapeMismatchError(f"points need 3 values each, got {pts.size} values")
    if pts.size and not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
        raise ValueRangeError("points must be finite")
    x, y, z = pts.reshape(-1, 3).T
    dv = np.maximum(np.maximum(z - room.cam_to_ceil, -room.cam_to_floor - z), 0.0)
    edges = room.edges
    inside = _kernels._points_in_polygon(edges, x, y)
    dh = np.where(inside, 0.0, _kernels.polygon_boundary_distance(edges, x, y))
    return np.hypot(dh, dv)


def _far_bounds(room: ManhattanRoom, grid: GridSpec, gap: float):
    """The replace bound's tables: per row the depth ``t_far`` at which the
    pixel ray leaves the height slab grown by ``gap``, and per column the
    horizontal distance ``w_far`` at which it leaves the floor plan's
    bounding rectangle grown by ``gap`` (inf where it never leaves)."""
    _, sin_lat, cos_lon, sin_lon = pixel_center_trig(grid)
    (x_lo, y_lo), (x_hi, y_hi) = room.vertices.min(axis=0), room.vertices.max(axis=0)
    t_far = _kernels.plane_depth(sin_lat[:, 0], room.cam_to_floor + gap, room.cam_to_ceil + gap)
    w_far = np.minimum(
        _kernels.plane_depth(cos_lon, gap - x_lo, x_hi + gap),
        _kernels.plane_depth(sin_lon, gap - y_lo, y_hi + gap),
    )
    return t_far, w_far


def _settle_band(band, rows: slice, parts, far, cos_lat, slack: float):
    """The pixels of the row band ``band`` (grid rows ``rows``) that the keep
    bound cannot keep, as band-local row-major indices: those replaced
    (missing, or past either table of ``far``) and those neither bound
    settles."""
    keep = band <= parts.t_plane[rows] + (slack - _MARGIN)
    # outside ``parts.walls`` a depth that passes the cap test is nearer
    # than every wall by far more than rounding: the wall test cannot fail
    lo = min(max(parts.walls.start, rows.start), rows.stop) - rows.start
    hi = min(max(parts.walls.stop, rows.start), rows.stop) - rows.start
    if lo < hi:
        e = band[lo:hi] - (slack - _MARGIN)
        e *= cos_lat[rows][lo:hi]
        keep[lo:hi] &= e <= parts.wall
    keep &= band != 0
    # written as "not kept" so that a NaN depth makes a candidate
    (idx,) = np.nonzero(~keep.ravel())
    r = idx // band.shape[1]
    c = idx - r * band.shape[1]
    r += rows.start
    depth = np.take(band, idx)
    t_far, w_far = far
    replaced = depth > t_far[r]
    replaced |= depth * cos_lat[r, 0] > w_far[c]
    replaced |= depth == 0
    return idx[replaced], idx[~replaced]


def _unproject(d, flat, grid: GridSpec) -> np.ndarray:
    """The 3D points, (N, 3), of the pixels ``flat`` (row-major indices) of
    the depth map ``d``, with the bits of the tests'
    ``pixel_center_dirs(grid)[rows, cols] * depth``."""
    cos_lat, sin_lat, cos_lon, sin_lon = pixel_center_trig(grid)
    rows, cols = np.divmod(flat, grid.width)
    depth = np.take(d, flat)
    cl = cos_lat[rows, 0]
    pts = np.empty((flat.size, 3))
    x, y, z = pts.T
    np.multiply(cl, cos_lon[cols], out=x)
    x *= depth
    np.multiply(cl, sin_lon[cols], out=y)
    y *= depth
    np.multiply(sin_lat[rows, 0], depth, out=z)
    return pts


def denoise_depth(
    gt: DepthMap,
    background: DepthMap,
    room: ManhattanRoom,
    grid: GridSpec,
    slack: float = DEFAULT_SLACK,
) -> DepthMap:
    """Replace missing pixels and pixels more than ``slack`` meters outside
    the room shell with the background depth."""
    slack = _real("slack", slack, 0, ends="(]")
    require_same_grid(gt, background)
    if gt.grid != grid:
        raise ShapeMismatchError("depth map grid differs from requested grid")

    d, bg = gt.values, background.values
    parts = _kernels.shell_parts(room.edges, room.cam_to_floor, room.cam_to_ceil, grid)
    far = _far_bounds(room, grid, slack + _MARGIN)
    cos_lat = pixel_center_trig(grid)[0]
    # each pixel comes from one of two validated maps
    out = np.empty(grid.shape)
    flat_out = out.reshape(-1)

    def measure(flat):
        """Replace the pixels ``flat`` (row-major indices) that the exact
        distance puts beyond the slack."""
        outside = flat[shell_outside_distance(room, _unproject(d, flat, grid)) > slack]
        flat_out[outside] = np.take(bg, outside)

    pending, n_pending = [], 0
    for rows in _row_bands(grid):
        band = d[rows]
        replaced, unsettled = _settle_band(band, rows, parts, far, cos_lat, slack)
        out[rows] = band
        at = rows.start * grid.width
        flat_out[replaced + at] = np.take(bg[rows], replaced)
        # pieces of at most one band's pixel count keep the exact
        # distance's temporaries band-sized
        if n_pending + unsettled.size > band.size:
            measure(np.concatenate(pending))
            pending, n_pending = [], 0
        pending.append(unsettled + at)
        n_pending += unsettled.size
    if n_pending:
        measure(np.concatenate(pending))
    return DepthMap._own(grid, out)
