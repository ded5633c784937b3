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
from .equirect import GridSpec, lat_to_row, lon_to_col, pixel_center_trig, row_to_lat
from .errors import CornerExtractionError, PolygonError, ShapeMismatchError, ValueRangeError


def _readonly(a) -> np.ndarray:
    """A read-only, row-major float64 copy of ``a``: the one way a value type
    takes an array from its caller, so that no later write by the caller
    reaches it and the banded stages walk rows of contiguous memory."""
    out = np.array(a, dtype=np.float64, order="C")
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


def is_simple_polygon(vertices: np.ndarray) -> bool:
    """True when no two non-adjacent edges cross (O(n^2); n is small)."""
    v = np.asarray(vertices, dtype=np.float64)
    n = len(v)

    def left(a, b, c):  # c lies to the left of the line from a to b
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0

    for i in range(n):
        p1, p2 = v[i], v[(i + 1) % n]
        # edge j > i is adjacent to edge i when j == i + 1, or i == 0 and j == n - 1
        for j in range(i + 2, n - (i == 0)):
            p3, p4 = v[j], v[(j + 1) % n]
            if left(p3, p4, p1) != left(p3, p4, p2) and left(p1, p2, p3) != left(p1, p2, p4):
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
            raise ValueRangeError("floor plan vertices must be finite")
        self.heights  # CameraHeights holds the one height rule
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
    cols = np.arange(len(p))
    window = np.arange(-_CORNER_NMS_WINDOW, _CORNER_NMS_WINDOW + 1)
    u = (cols + window[window != 0, None]) % len(p)  # each column's neighbours
    beaten = (p[u] > p) | ((p[u] == p) & (u < cols))
    found = np.nonzero((p >= _CORNER_THRESHOLD) & ~beaten.any(axis=0))[0]
    if len(found) < 4:
        raise CornerExtractionError(
            f"found {len(found)} corner columns, need >= 4 to close the room"
        )
    return found.astype(np.int64)


def layout_to_room(layout: LayoutMap, heights: CameraHeights, grid: GridSpec) -> ManhattanRoom:
    """Invert a layout into a floor-plan polygon anchored by the floor boundary.

    Wall k runs from corner column k to corner column k + 1, and every wall
    of a Manhattan room is ``x = c`` or ``y = c``. Each wall's ``c`` is the
    mean, over its interior columns, of their floor-boundary points (lifted
    to the horizontal plane through ``heights.down``) on that axis. The
    longest wall decides which axis it holds constant; the other walls
    alternate. Vertex k joins walls k - 1 and k, so the polygon is closed
    and axis-aligned by construction. ``PolygonError`` is raised when the
    corner count is odd or the room's vertices do not fall in the corner
    columns they were recovered from.
    """
    layout.validate_against(grid)
    corner_cols = extract_corners(layout)
    n = len(corner_cols)
    if n % 2:
        raise PolygonError(f"found {n} corner columns; a Manhattan room has an even number")

    r = floor_wall_range(layout, heights, grid)
    _, _, cos_lon, sin_lon = pixel_center_trig(grid)
    pts = np.stack([r * cos_lon, r * sin_lon])
    # corner columns lie more than _CORNER_NMS_WINDOW apart, so no wall is empty
    walls = [
        (c0 + np.arange(1, (c1 - c0) % grid.width)) % grid.width
        for c0, c1 in zip(corner_cols, np.roll(corner_cols, -1))
    ]
    longest = max(range(n), key=lambda k: len(walls[k]))
    seen = pts[:, walls[longest]]
    held = int(np.ptp(seen[0]) > np.ptp(seen[1]))  # 0: x = c, 1: y = c
    axes = (held + np.arange(n) - longest) % 2
    coord = np.array([pts[a, cols].mean() for a, cols in zip(axes, walls)])

    verts = np.empty((n, 2), dtype=np.float64)
    k = np.arange(n)
    verts[k, axes] = coord
    verts[k, 1 - axes] = np.roll(coord, 1)
    room = ManhattanRoom(verts, cam_to_floor=heights.down, cam_to_ceil=heights.up)
    if not np.array_equal(corner_azimuth_columns(room, grid), corner_cols):
        raise PolygonError("recovered room's corners do not fall in the layout's corner columns")
    return room


def floor_wall_range(layout: LayoutMap, heights: CameraHeights, grid: GridSpec) -> np.ndarray:
    """Per column, the horizontal range to the wall whose foot is the floor
    boundary: the inverse of ``room_to_layout``'s floor rows."""
    return heights.down / np.tan(-row_to_lat(layout.floor_rows, grid))


def room_to_layout(room: ManhattanRoom, grid: GridSpec) -> LayoutMap:
    """Render the exact layout of a room: boundary rows per column center,
    one-hot corner indicator for columns whose azimuth sector holds a vertex."""
    _, _, cos_lon, sin_lon = pixel_center_trig(grid)
    r, _ = _kernels._first_crossing(room.edges, cos_lon, sin_lon)
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
