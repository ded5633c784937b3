"""Hot numeric kernels: panorama ray casting, plane depth, polygon tests.

All kernels are vectorised numpy and exploit the Manhattan structure of the
scene instead of testing every pixel against every surface:

* the room shell is closed-form per column -- the nearest wall edge of a
  column's horizontal ray is found once (the same first crossing that
  ``room_to_layout`` takes its wall ranges from), and each pixel takes the
  smaller of that wall's distance and the floor/ceiling plane distance
  (``plane_depth``, which the background depth shares). For a simple
  polygon containing the origin this equals the full surface test: a
  floor/ceiling point lies inside the room exactly when it comes before
  the ray's first wall crossing. Rows on which the plane is nearer than
  every wall take the plane distance without the per-pixel division;
* each box is slab-tested only inside a conservative row x column
  footprint derived from its corner azimuths and latitude extremes.

The shell is built a row band at a time (``shell_band``), so a caller
that renders band by band never holds a whole-grid map.

Geometry inputs are plain arrays:

* ``edges``: (N, 4) float64, one floor-plan polygon edge per row as
  (ax, ay, bx, by), camera at the horizontal origin;
* ``boxes``: (M, 6) float64 axis-aligned boxes as (minx, miny, minz,
  maxx, maxy, maxz);
* heights: ``cam_down`` (camera to floor) and ``cam_up`` (camera to
  ceiling), both positive.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .equirect import lat_to_row, lon_to_col, pixel_center_trig, wrap_angle
from .errors import ValueRangeError

# Read by the benchmark's environment report; there is no compiled backend.
USE_NUMBA = False


def _points_in_polygon(edges, px, py):
    """Even-odd test of points (px, py), scalars or arrays."""
    inside = np.zeros(np.shape(px), dtype=bool)
    for ax, ay, bx, by in edges:
        cond = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (px < xint)
    return inside


def _first_crossing(edges, dx, dy):
    """First positive crossing of the 2D rays t*(dx, dy) with the polygon.

    Returns the distance (inf where no edge is crossed) and the index of
    the crossed edge (-1 where none is).
    """
    best = np.full(np.shape(dx), np.inf)
    edge = np.full(np.shape(dx), -1, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (ax, ay, bx, by) in enumerate(edges):
            ex = bx - ax
            ey = by - ay
            det = ex * dy - ey * dx
            t = (ex * ay - ey * ax) / det
            u = (dx * ay - dy * ax) / det
            closer = (det != 0.0) & (t > 0.0) & (u >= 0.0) & (u <= 1.0) & (t < best)
            best = np.where(closer, t, best)
            edge = np.where(closer, k, edge)
    return best, edge


def _column_slices(lo_lon, hi_lon, grid):
    """Columns whose centre longitude may lie in [lo_lon, hi_lon], with one
    column of margin on each side, as one or two slices (split at the seam)."""
    c0 = int(np.floor(lon_to_col(lo_lon, grid) - 0.5)) - 1
    c1 = int(np.ceil(lon_to_col(hi_lon, grid) - 0.5)) + 1
    if c1 - c0 + 1 >= grid.width:
        return [slice(0, grid.width)]
    c0 %= grid.width
    c1 %= grid.width
    if c0 <= c1:
        return [slice(c0, c1 + 1)]
    return [slice(c0, grid.width), slice(0, c1 + 1)]


def _box_footprint(box, grid):
    """Conservative row slice and column slices of the pixels whose rays can
    hit ``box``."""
    x0, y0, z0, x1, y1, z1 = box
    # nearest and farthest horizontal distance from the camera axis to the box
    rmin = np.hypot(max(x0, 0.0, -x1), max(y0, 0.0, -y1))
    rmax = np.hypot(max(-x0, x1), max(-y0, y1))
    lat_hi = np.arctan2(z1, rmin if z1 >= 0.0 else rmax)
    lat_lo = np.arctan2(z0, rmin if z0 <= 0.0 else rmax)
    r0 = max(int(np.floor(lat_to_row(lat_hi, grid) - 0.5)) - 1, 0)
    r1 = min(int(np.ceil(lat_to_row(lat_lo, grid) - 0.5)) + 1, grid.height - 1)
    rows = slice(r0, r1 + 1)

    if x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1:
        return rows, [slice(0, grid.width)]
    # The rectangle misses the origin, so its corners span an arc under pi:
    # azimuths relative to one corner give that arc even across the seam.
    az = np.arctan2([y0, y0, y1, y1], [x0, x1, x0, x1])
    rel = wrap_angle(az - az[0])
    return rows, _column_slices(az[0] + rel.min(), az[0] + rel.max(), grid)


def _slab_planes(box, cl, cos_lon, sin_lon, dz):
    """The parts of ``box``'s slab test (``_slab_entry``) that a row or a
    column shares, for the rays of the rows of ``cl``, ``dz`` and the
    columns of ``cos_lon``, ``sin_lon``: those four, then per column the
    near and far x and y planes, which the sign of the direction component
    picks, and per row the z slab's entry and exit distances.

    On pixel-centre rays cl > 0 and no column has cos_lon or sin_lon
    exactly 0, so only dz can vanish (the horizon row of an odd-height
    grid): there the z slab holds the whole ray or none of it.
    """
    x0, y0, z0, x1, y1, z1 = box
    ax, ay, az = cos_lon > 0.0, sin_lon > 0.0, dz > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z_near = np.where(az, z0, z1) / dz
        z_far = np.where(az, z1, z0) / dz
    flat = dz == 0.0
    z_near[flat], z_far[flat] = (-np.inf, np.inf) if z0 <= 0.0 <= z1 else (np.inf, -np.inf)
    x_planes = np.where(ax, x0, x1), np.where(ax, x1, x0)
    y_planes = np.where(ay, y0, y1), np.where(ay, y1, y0)
    return cl, cos_lon, sin_lon, *x_planes, *y_planes, z_near, z_far


def _slab_entry(planes, rows: slice, out):
    """Entry distance into a box of the rays (cl*cos_lon, cl*sin_lon, dz)
    of ``rows`` of its ``_slab_planes``, rows by columns, written to
    ``out``; inf where a ray misses the box. The quotients are those of a
    per-ray slab test, so every entry distance keeps its bits."""
    cl, cos_lon, sin_lon, x_near, x_far, y_near, y_far, z_near, z_far = planes
    d = np.multiply(cl[rows], cos_lon)
    np.divide(x_near, d, out=out)
    far = np.divide(x_far, d)
    np.multiply(cl[rows], sin_lon, out=d)
    np.maximum(out, np.divide(y_near, d), out=out)
    np.minimum(far, np.divide(y_far, d, out=d), out=far)
    np.maximum(out, z_near[rows], out=out)
    np.minimum(far, z_far[rows], out=far)
    np.copyto(out, np.inf, where=(out > far) | (out <= 0.0))
    return out


class ShellParts(NamedTuple):
    """What the room shell's depth at a pixel is built from, besides the
    pixel-centre trig: ``t_plane``, the (H, 1) floor/ceiling plane distance
    per row; per column the nearest wall, the edge its horizontal ray
    crosses first, at horizontal distance ``wall`` (inf for a column that
    crosses no edge), with direction (``ex``, ``ey``) and numerator ``num``
    = ex*ay - ey*ax; and ``walls``, the rows ``[a, d)`` on which a wall may
    be nearer than the floor or ceiling.

    Every row outside ``walls`` has a plane distance below the nearest
    wall's horizontal distance over cos(lat) by a relative margin of 1e-6,
    far beyond the rounding of a per-pixel wall distance, so the shell
    there is the plane distance bit for bit. As in the background depth,
    those rows are the caps [0, a) and [d, H).
    """

    t_plane: np.ndarray
    wall: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    num: np.ndarray
    walls: slice


def plane_depth(sin_lat, down, up):
    """Radial distance along rays whose latitude has sine ``sin_lat`` to the
    floor ``down`` below the camera (``sin_lat`` < 0) or the ceiling ``up``
    above it (> 0); inf on the horizon."""
    with np.errstate(divide="ignore"):
        return np.where(sin_lat < 0.0, down, up) / np.abs(sin_lat)


def shell_parts(edges, cam_down, cam_up, grid) -> ShellParts:
    """The per-row and per-column factors of the room shell's depth. A
    floor or ceiling distance beyond the floats on a row off the horizon is
    ``ValueRangeError``."""
    cl, dz, cos_lon, sin_lon = pixel_center_trig(grid)
    wall, k = _first_crossing(edges, cos_lon, sin_lon)
    ax, ay, bx, by = edges[np.maximum(k, 0)].T
    ex = bx - ax
    ey = by - ay
    with np.errstate(over="ignore"):
        t_plane = plane_depth(dz, cam_down, cam_up)
    # the horizon row of an odd-height grid meets no cap: its inf stays
    if np.isinf(t_plane[dz != 0.0]).any():
        raise ValueRangeError("floor or ceiling distance overflows the floats")
    plane = t_plane[:, 0] < wall.min() / cl[:, 0] * (1.0 - 1e-6)
    (rows,) = np.nonzero(~plane)
    walls = slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)
    return ShellParts(t_plane, wall, ex, ey, ex * ay - ey * ax, walls)


def shell_band(parts: ShellParts, grid, rows: slice, out):
    """Radial distance to the room shell at the pixel centres of ``rows``,
    written to ``out`` (one row per grid row of ``rows``).

    Outside ``parts.walls`` it is the plane distance. Inside, it is the
    nearer of the plane and the wall distance num / (ex*dy - ey*dx) with
    the ray direction (dx, dy) = cl * (cos_lon, sin_lon), rounded in the
    same order as a per-pixel direction so every depth keeps its exact
    bits.
    """
    a = min(max(parts.walls.start, rows.start), rows.stop)
    d = min(max(parts.walls.stop, a), rows.stop)
    t_plane = parts.t_plane
    out[: a - rows.start] = t_plane[rows.start : a]
    out[d - rows.start :] = t_plane[d : rows.stop]
    if a < d:
        cl, _, cos_lon, sin_lon = pixel_center_trig(grid)
        det = np.multiply(cl[a:d], sin_lon, out=out[a - rows.start : d - rows.start])
        det *= parts.ex
        ey_dx = np.multiply(cl[a:d], cos_lon)
        ey_dx *= parts.ey
        det -= ey_dx
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(parts.num, det, out=det)
        det[:, parts.wall == np.inf] = np.inf
        np.minimum(det, t_plane[a:d], out=det)
    return out


def polygon_boundary_distance(edges, x, y):
    """Distance from points (x, y) to the nearest point on the polygon's edges."""
    d2 = np.full(np.shape(x), np.inf)
    for ax, ay, bx, by in edges:
        ex = bx - ax
        ey = by - ay
        s = np.clip(((x - ax) * ex + (y - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        qx = ax + s * ex - x
        qy = ay + s * ey - y
        d2 = np.minimum(d2, qx * qx + qy * qy)
    return np.sqrt(d2)
