"""Hot numeric kernels: panorama ray casting, plane depth, shell distance.

All kernels are vectorised numpy and exploit the Manhattan structure of the
scene instead of testing every pixel against every surface:

* the room shell is closed-form per column -- the nearest wall edge of a
  column's horizontal ray is found once (the same first crossing that
  ``room_to_layout`` takes its wall ranges from), and each pixel takes the
  smaller of that wall's distance and the floor/ceiling plane distance
  (``plane_depth``, which the background depth shares). For a simple
  polygon containing the origin this equals the full surface test: a
  floor/ceiling point lies inside the room exactly when it comes before
  the ray's first wall crossing;
* each box is slab-tested only inside a conservative row x column
  footprint derived from its corner azimuths and latitude extremes, on a
  copy of the shell, so one call yields both the room-only and the
  foreground render.

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


def _slab_into(best, box, dx, dy, dz):
    """Lower ``best`` in place to the entry distance of rays that hit ``box``."""
    tn = np.full(best.shape, -np.inf)
    tf = np.full(best.shape, np.inf)
    ok = np.ones(best.shape, dtype=bool)
    for axis, d in enumerate((dx, dy, dz)):
        lo = box[axis]
        hi = box[3 + axis]
        zero = d == 0.0
        ok &= ~(zero & ((lo > 0.0) | (hi < 0.0)))
        t1 = np.where(zero, -np.inf, lo / np.where(zero, 1.0, d))
        t2 = np.where(zero, np.inf, hi / np.where(zero, 1.0, d))
        tn = np.where(zero, tn, np.maximum(tn, np.minimum(t1, t2)))
        tf = np.where(zero, tf, np.minimum(tf, np.maximum(t1, t2)))
    np.copyto(best, tn, where=ok & (tn <= tf) & (tn > 0.0) & (tn < best))


class ShellParts(NamedTuple):
    """What the room shell's depth at a pixel is built from, besides the
    pixel-centre trig: ``t_plane``, the (H, 1) floor/ceiling plane distance
    per row, and per column the nearest wall, the edge its horizontal ray
    crosses first, at horizontal distance ``wall`` (inf for a column that
    crosses no edge), with direction (``ex``, ``ey``) and numerator ``num``
    = ex*ay - ey*ax."""

    t_plane: np.ndarray
    wall: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    num: np.ndarray


def plane_depth(sin_lat, down, up):
    """Radial distance along rays whose latitude has sine ``sin_lat`` to the
    floor ``down`` below the camera (``sin_lat`` < 0) or the ceiling ``up``
    above it (> 0); inf on the horizon."""
    with np.errstate(divide="ignore"):
        return np.where(sin_lat < 0.0, down, up) / np.abs(sin_lat)


def shell_parts(edges, cam_down, cam_up, grid) -> ShellParts:
    """The per-row and per-column factors of the room shell's depth."""
    _, dz, cos_lon, sin_lon = pixel_center_trig(grid)
    wall, k = _first_crossing(edges, cos_lon, sin_lon)
    ax, ay, bx, by = edges[np.maximum(k, 0)].T
    ex = bx - ax
    ey = by - ay
    return ShellParts(plane_depth(dz, cam_down, cam_up), wall, ex, ey, ex * ay - ey * ax)


def raycast(edges, cam_down, cam_up, boxes, grid):
    """Radial distance to the first surface at every pixel centre, (H, W).

    Returns ``(shell, depth, footprints)``: the room shell alone, the shell
    with ``boxes`` in front of it, and the (rows, cols) slices in which the
    two may differ. Without boxes ``depth`` is ``shell`` itself and
    ``footprints`` is empty; outside the footprints the two hold the same
    bits.

    The shell's wall distance is num / (ex*dy - ey*dx) with the ray
    direction (dx, dy) = cl * (cos_lon, sin_lon), rounded in the same order
    as a per-pixel direction so every depth keeps its exact bits.
    """
    parts = shell_parts(edges, cam_down, cam_up, grid)
    cl, dz, cos_lon, sin_lon = pixel_center_trig(grid)
    det = np.multiply(cl, sin_lon)
    det *= parts.ex
    ey_dx = np.multiply(cl, cos_lon)
    ey_dx *= parts.ey
    det -= ey_dx
    with np.errstate(divide="ignore", invalid="ignore"):
        shell = np.divide(parts.num, det, out=det)
    shell[:, parts.wall == np.inf] = np.inf
    np.minimum(shell, parts.t_plane, out=shell)
    if len(boxes) == 0:
        return shell, shell, []
    depth = shell.copy()
    footprints = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for box in boxes:
            rows, col_slices = _box_footprint(box, grid)
            for cols in col_slices:
                c = cl[rows]
                dirs = (c * cos_lon[cols], c * sin_lon[cols], dz[rows])
                _slab_into(depth[rows, cols], box, *dirs)
                footprints.append((rows, cols))
    return shell, depth, footprints


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


def shell_outside_distance(edges, cam_down, cam_up, points):
    x = points[:, 0]
    y = points[:, 1]
    z = points[:, 2]
    dv = np.maximum(np.maximum(z - cam_up, -cam_down - z), 0.0)
    inside = _points_in_polygon(edges, x, y)
    dh = np.where(inside, 0.0, polygon_boundary_distance(edges, x, y))
    return np.hypot(dh, dv)
