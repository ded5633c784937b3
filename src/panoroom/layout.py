"""Room layout data model and conversions to/from 3D Manhattan rooms.

A layout stores, per image column, the continuous ceiling-boundary row,
floor-boundary row, and a corner probability. A Manhattan room is a
rectilinear floor-plan polygon (camera at the horizontal origin) plus the
camera-to-floor and camera-to-ceiling heights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .equirect import GridSpec, lat_to_row, lon_to_col, pixel_center_lons, row_to_lat
from .errors import CornerExtractionError, PolygonError, ShapeMismatchError, ValueRangeError


def _readonly(a, dtype=np.float64):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CameraHeights:
    """Vertical camera-to-ceiling (up) and camera-to-floor (down) distances."""

    up: float
    down: float

    def __post_init__(self):
        for name in ("up", "down"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueRangeError(f"camera height '{name}' must be finite and > 0, got {v}")


@dataclass(frozen=True)
class LayoutMap:
    """Per-column layout: ceiling row, floor row, corner probability."""

    ceil_rows: np.ndarray
    floor_rows: np.ndarray
    corner_prob: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ceil_rows", _readonly(self.ceil_rows))
        object.__setattr__(self, "floor_rows", _readonly(self.floor_rows))
        object.__setattr__(self, "corner_prob", _readonly(self.corner_prob))
        n = len(self.ceil_rows)
        if len(self.floor_rows) != n or len(self.corner_prob) != n:
            raise ShapeMismatchError("layout channel lengths differ")
        if not np.all((self.corner_prob >= 0) & (self.corner_prob <= 1)):
            raise ValueRangeError("corner probabilities must lie in [0, 1]")

    @property
    def width(self) -> int:
        return len(self.ceil_rows)

    def validate_against(self, grid: GridSpec) -> None:
        if self.width != grid.width:
            raise ShapeMismatchError(f"layout width {self.width} != grid width {grid.width}")
        half = grid.height / 2.0
        if not np.all((self.ceil_rows > 0) & (self.ceil_rows < half)):
            raise ValueRangeError("ceiling rows must lie in (0, H/2)")
        if not np.all((self.floor_rows > half) & (self.floor_rows < grid.height)):
            raise ValueRangeError("floor rows must lie in (H/2, H)")


def polygon_edges(vertices: np.ndarray) -> np.ndarray:
    """(N, 4) array of (ax, ay, bx, by) edges of a closed polygon."""
    v = np.asarray(vertices, dtype=np.float64)
    return np.concatenate([v, np.roll(v, -1, axis=0)], axis=1)


def _segments_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def is_simple_polygon(vertices: np.ndarray) -> bool:
    """True when no two non-adjacent edges cross (O(n^2); n is small)."""
    v = np.asarray(vertices, dtype=np.float64)
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                return False
    return True


def signed_area(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=np.float64)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class ManhattanRoom:
    """Rectilinear floor plan (CCW, camera at origin) with camera heights."""

    vertices: np.ndarray
    cam_to_floor: float
    cam_to_ceil: float

    def __post_init__(self):
        object.__setattr__(self, "vertices", _readonly(self.vertices))
        v = self.vertices
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 4:
            raise PolygonError("floor plan needs at least 4 (x, y) vertices")
        if not np.all(np.isfinite(v)):
            raise PolygonError("floor plan vertices must be finite")
        if not np.isfinite(self.cam_to_floor) or self.cam_to_floor <= 0:
            raise PolygonError("cam_to_floor must be finite and > 0")
        if not np.isfinite(self.cam_to_ceil) or self.cam_to_ceil <= 0:
            raise PolygonError("cam_to_ceil must be finite and > 0")
        if not is_simple_polygon(v):
            raise PolygonError("floor plan polygon is self-intersecting")
        if signed_area(v) <= 0:
            raise PolygonError("floor plan polygon must be counter-clockwise")
        edges = polygon_edges(v)
        if not _kernels._points_in_polygon(edges, 0.0, 0.0):
            raise PolygonError("camera (origin) must lie strictly inside the floor plan")

    @property
    def edges(self) -> np.ndarray:
        return polygon_edges(self.vertices)

    @property
    def heights(self) -> CameraHeights:
        return CameraHeights(up=self.cam_to_ceil, down=self.cam_to_floor)


_CORNER_THRESHOLD = 0.5
_CORNER_NMS_WINDOW = 4


def extract_corners(layout: LayoutMap) -> np.ndarray:
    """Peak-pick corner columns: threshold plus circular non-max suppression.

    A column survives when its probability reaches ``_CORNER_THRESHOLD`` and
    is the (leftmost, on ties) maximum within +-``_CORNER_NMS_WINDOW``
    columns.
    """
    p = layout.corner_prob
    w = len(p)
    keep = []
    for v in np.nonzero(p >= _CORNER_THRESHOLD)[0]:
        ok = True
        for o in range(-_CORNER_NMS_WINDOW, _CORNER_NMS_WINDOW + 1):
            if o == 0:
                continue
            u = (v + o) % w
            if p[u] > p[v] or (p[u] == p[v] and u < v):
                ok = False
                break
        if ok:
            keep.append(int(v))
    if len(keep) < 4:
        raise CornerExtractionError(
            f"found {len(keep)} corner columns, need >= 4 to close the room"
        )
    return np.array(sorted(keep), dtype=np.int64)


def _fit_line(points: np.ndarray):
    """Total-least-squares line through >= 2 points: (centroid, unit dir)."""
    c = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - c, full_matrices=False)
    return c, vt[0]


def _intersect_lines(l1, l2):
    (c1, d1), (c2, d2) = l1, l2
    a = np.array([[d1[0], -d2[0]], [d1[1], -d2[1]]])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) < 1e-9:
        return None
    t = np.linalg.solve(a, c2 - c1)[0]
    return c1 + t * d1


def snap_manhattan(vertices: np.ndarray) -> np.ndarray:
    """Force alternating axis-aligned edges by averaging shared coordinates."""
    v = np.asarray(vertices, dtype=np.float64)
    n = len(v)
    if n % 2 != 0:
        raise PolygonError("Manhattan snapping needs an even vertex count")
    deltas = np.roll(v, -1, axis=0) - v
    horizontal = np.abs(deltas[:, 0]) >= np.abs(deltas[:, 1])  # edge runs along x
    for k in range(n):
        if horizontal[k] == horizontal[(k + 1) % n]:
            raise PolygonError("edges do not alternate axis alignment; cannot snap")
    out = np.empty_like(v)
    for k in range(n):
        a, b = v[k], v[(k + 1) % n]
        if horizontal[k]:
            ym = 0.5 * (a[1] + b[1])
            out[k, 1] = ym
            out[(k + 1) % n, 1] = ym
        else:
            xm = 0.5 * (a[0] + b[0])
            out[k, 0] = xm
            out[(k + 1) % n, 0] = xm
    return out


def layout_to_room(layout: LayoutMap, heights: CameraHeights, grid: GridSpec) -> ManhattanRoom:
    """Invert a layout into a floor-plan polygon anchored by the floor boundary.

    Each wall between consecutive corner columns contributes the boundary
    points of its interior columns (floor boundary lifted to the horizontal
    plane through ``heights.down``); a vertex is recovered as the
    intersection of the two adjacent wall lines, which is exact whenever the
    layout itself is. Walls too narrow to fit a line fall back to the corner
    column's own boundary sample. The vertices are then snapped to
    alternating axis-aligned edges.
    """
    layout.validate_against(grid)
    corner_cols = extract_corners(layout)
    n = len(corner_cols)

    w = grid.width
    r = floor_wall_range(layout, heights, grid)
    az = pixel_center_lons(grid)
    px = r * np.cos(az)
    py = r * np.sin(az)

    lines = []
    for k in range(n):
        c0 = int(corner_cols[k])
        c1 = int(corner_cols[(k + 1) % n])
        span = (c1 - c0) % w
        interior = (c0 + 1 + np.arange(span - 1)) % w if span >= 2 else np.array([], dtype=int)
        if len(interior) >= 2:
            pts = np.stack([px[interior], py[interior]], axis=1)
            lines.append(_fit_line(pts))
        else:
            lines.append(None)

    verts = np.empty((n, 2), dtype=np.float64)
    for k in range(n):
        prev_line = lines[k - 1]
        next_line = lines[k]
        vertex = None
        if prev_line is not None and next_line is not None:
            vertex = _intersect_lines(prev_line, next_line)
        if vertex is None:
            c = int(corner_cols[k])
            vertex = np.array([px[c], py[c]])
        verts[k] = vertex

    verts = snap_manhattan(verts)
    return ManhattanRoom(verts, cam_to_floor=heights.down, cam_to_ceil=heights.up)


def floor_wall_range(layout: LayoutMap, heights: CameraHeights, grid: GridSpec) -> np.ndarray:
    """Per column, the horizontal range to the wall whose foot is the floor
    boundary: the inverse of ``room_to_layout``'s floor rows."""
    return heights.down / np.tan(-row_to_lat(layout.floor_rows, grid))


def room_to_layout(room: ManhattanRoom, grid: GridSpec) -> LayoutMap:
    """Render the exact layout of a room: boundary rows per column center,
    one-hot corner indicator for columns whose azimuth sector holds a vertex."""
    az = pixel_center_lons(grid)
    r = _kernels.boundary_range(room.edges, az)
    floor_rows = lat_to_row(-np.arctan(room.cam_to_floor / r), grid)
    ceil_rows = lat_to_row(np.arctan(room.cam_to_ceil / r), grid)
    corner = np.zeros(grid.width, dtype=np.float64)
    corner[corner_azimuth_columns(room, grid)] = 1.0
    return LayoutMap(ceil_rows=ceil_rows, floor_rows=floor_rows, corner_prob=corner)


def corner_azimuth_columns(room: ManhattanRoom, grid: GridSpec) -> np.ndarray:
    """Column sector index for each vertex direction, in vertex order."""
    cols = []
    for x, y in room.vertices:
        cols.append(int(np.floor(lon_to_col(np.arctan2(y, x), grid))) % grid.width)
    return np.array(cols, dtype=np.int64)
