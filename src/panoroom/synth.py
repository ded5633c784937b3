"""Seeded synthetic Manhattan scenes and the ray-casting depth oracle.

Scene generation is deterministic in the seed (numpy PCG64). Cameras are
restricted to the floor plan's visibility kernel with 0.5 m wall
clearance, so every wall and corner is visible from the origin -- this is
what makes the layout round trip and the corner one-hot well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bgdepth import DepthMap
from .equirect import GridSpec
from .errors import PlacementError, ValueRangeError
from .fusion import SegMap
from .layout import ManhattanRoom, _segments_intersect, polygon_edges

CAMERA_WALL_CLEARANCE = 0.5  # meters
MIN_CORNER_AZIMUTH_GAP = 3.0 * 2.0 * np.pi / 1024.0  # three columns at W=1024


@dataclass(frozen=True)
class SceneSpec:
    room: ManhattanRoom
    boxes: np.ndarray  # (M, 6): minx miny minz maxx maxy maxz
    seed: int

    def __post_init__(self):
        b = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 6)
        b.flags.writeable = False
        object.__setattr__(self, "boxes", b)
        if np.any(b[:, :3] >= b[:, 3:]):
            raise ValueRangeError("box min must be strictly below box max componentwise")


@dataclass(frozen=True)
class NoiseSpec:
    salt_frac: float = 0.05
    outlier_frac: float = 0.1
    outlier_offset: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.salt_frac <= 1 and 0 <= self.outlier_frac <= 1):
            raise ValueRangeError("noise fractions must lie in [0, 1]")
        if self.salt_frac + self.outlier_frac > 1:
            raise ValueRangeError("salt_frac + outlier_frac must be <= 1")
        if self.outlier_offset <= 0:
            raise ValueRangeError("outlier_offset must be > 0")


@dataclass(frozen=True)
class SceneConfig:
    plan: str = "rect"  # "rect" | "lshape"
    box_count_range: tuple[int, int] = (0, 4)
    box_size_ranges: tuple = ((0.3, 1.2), (0.3, 1.2), (0.3, 1.5))

    def __post_init__(self):
        if self.plan not in ("rect", "lshape"):
            raise ValueRangeError(f"plan must be 'rect' or 'lshape', got {self.plan!r}")
        lo, hi = self.box_count_range
        if lo < 0 or hi < lo:
            raise ValueRangeError("box_count_range must be a nonempty nonnegative range")


def _edge_line_clearance(vertices: np.ndarray, p: np.ndarray) -> float:
    """Min signed distance from p to all directed edge *lines* (CCW: interior
    is positive); positive clearance puts p in the visibility kernel."""
    best = np.inf
    n = len(vertices)
    for k in range(n):
        a = vertices[k]
        b = vertices[(k + 1) % n]
        e = b - a
        d = (e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])) / np.hypot(e[0], e[1])
        best = min(best, d)
    return best


def _min_azimuth_gap(vertices: np.ndarray) -> float:
    az = np.sort(np.arctan2(vertices[:, 1], vertices[:, 0]))
    gaps = np.diff(np.concatenate([az, [az[0] + 2.0 * np.pi]]))
    return float(np.min(gaps))


def _footprint_ok(edges: np.ndarray, x0, y0, x1, y1) -> bool:
    """Axis-aligned footprint strictly inside the (possibly L-shaped) plan."""
    corners = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    cx, cy = corners.T
    if not _kernels._points_in_polygon(edges, cx, cy).all():
        return False
    if _kernels.polygon_boundary_distance(edges, cx, cy).min() < 1e-9:
        return False
    rect_edges = polygon_edges(corners)
    for e in edges:
        for r in rect_edges:
            if _segments_intersect(e[:2], e[2:], r[:2], r[2:]):
                return False
    return True


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> SceneSpec:
    """Deterministically sample a room (and boxes) satisfying all invariants."""
    rng = np.random.default_rng(seed)
    width = rng.uniform(3.0, 8.0)
    depth = rng.uniform(3.0, 8.0)
    cam_to_floor = rng.uniform(1.2, 1.8)
    total_height = rng.uniform(2.4, 3.2)
    cam_to_ceil = total_height - cam_to_floor

    if config.plan == "rect":
        verts = np.array([(0.0, 0.0), (width, 0.0), (width, depth), (0.0, depth)])
    else:
        notch_w = rng.uniform(1.0, width - 2.0)
        notch_d = rng.uniform(1.0, depth - 2.0)
        verts = np.array(
            [
                (0.0, 0.0),
                (width, 0.0),
                (width, depth - notch_d),
                (width - notch_w, depth - notch_d),
                (width - notch_w, depth),
                (0.0, depth),
            ]
        )

    cam = None
    for _ in range(1000):
        candidate = np.array([rng.uniform(0.0, width), rng.uniform(0.0, depth)])
        if _edge_line_clearance(verts, candidate) < CAMERA_WALL_CLEARANCE:
            continue
        if _min_azimuth_gap(verts - candidate) < MIN_CORNER_AZIMUTH_GAP:
            continue
        cam = candidate
        break
    if cam is None:
        raise PlacementError(f"could not place a camera for seed {seed}")

    verts = verts - cam
    room = ManhattanRoom(verts, cam_to_floor=cam_to_floor, cam_to_ceil=cam_to_ceil)
    edges = room.edges

    lo, hi = config.box_count_range
    n_boxes = int(rng.integers(lo, hi + 1))
    boxes = []
    (sx_lo, sx_hi), (sy_lo, sy_hi), (sz_lo, sz_hi) = config.box_size_ranges
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    for _ in range(n_boxes):
        for _attempt in range(1000):
            sx = rng.uniform(sx_lo, sx_hi)
            sy = rng.uniform(sy_lo, sy_hi)
            sz = rng.uniform(sz_lo, min(sz_hi, total_height - 1e-3))
            cx = rng.uniform(xmin, xmax)
            cy = rng.uniform(ymin, ymax)
            x0, x1 = cx - sx / 2.0, cx + sx / 2.0
            y0, y1 = cy - sy / 2.0, cy + sy / 2.0
            z0 = -cam_to_floor
            z1 = z0 + sz
            if z1 >= cam_to_ceil - 1e-9:
                continue
            if not _footprint_ok(edges, x0, y0, x1, y1):
                continue
            # the box must not contain the camera origin
            if x0 < 0.0 < x1 and y0 < 0.0 < y1 and z0 < 0.0 < z1:
                continue
            boxes.append((x0, y0, z0, x1, y1, z1))
            break
        # unplaceable boxes are skipped, reducing the count
    return SceneSpec(room=room, boxes=np.array(boxes, dtype=np.float64).reshape(-1, 6), seed=int(seed))


def _render(scene: SceneSpec, grid: GridSpec, boxes):
    """One shell pass: ``_kernels.raycast``'s (shell, depth, footprints)."""
    room = scene.room
    shell, depth, footprints = _kernels.raycast(
        room.edges, room.cam_to_floor, room.cam_to_ceil, boxes, grid
    )
    # A box entry lies in (0, shell), so only the shell can hold inf or NaN;
    # shell distances are positive by construction.
    if not np.isfinite(shell).all():
        raise ValueRangeError("depth values must be finite")
    return shell, depth, footprints


def raycast_depth(scene: SceneSpec, grid: GridSpec, include_foreground: bool = True) -> DepthMap:
    """Exact radial distance to the first surface hit at every pixel center."""
    boxes = scene.boxes if include_foreground else ()
    _, depth, _ = _render(scene, grid, boxes)
    return DepthMap._own(grid, depth)


def render_scene(
    scene: SceneSpec, grid: GridSpec, eps: float = 1e-6
) -> tuple[DepthMap, DepthMap, SegMap]:
    """The renders with and without foreground, and their background mask,
    from one shell pass.

    The mask is 1 where the two renders agree within ``eps``: they hold the
    same bits outside the box footprints, so only those are compared.
    """
    # the footprint-only mask holds only for eps >= 0
    if not eps >= 0:
        raise ValueRangeError(f"eps must be >= 0, got {eps}")
    shell, depth, footprints = _render(scene, grid, scene.boxes)
    mask = np.ones(grid.shape)
    for rows, cols in footprints:
        mask[rows, cols] = np.abs(depth[rows, cols] - shell[rows, cols]) <= eps
    return DepthMap._own(grid, depth), DepthMap._own(grid, shell), SegMap._own(grid, mask)


def gt_background_mask(scene: SceneSpec, grid: GridSpec, eps: float = 1e-6) -> SegMap:
    """1 where renders with and without foreground agree within eps."""
    return render_scene(scene, grid, eps)[2]


def corrupt_depth(depth: DepthMap, noise: NoiseSpec) -> DepthMap:
    """Zero a salt fraction of pixels and push an outlier fraction radially
    outward by a fixed offset; the two pixel sets are disjoint."""
    rng = np.random.default_rng(noise.seed)
    flat = depth.values.copy().ravel()
    n = flat.size
    n_salt = int(round(noise.salt_frac * n))
    n_out = int(round(noise.outlier_frac * n))
    perm = rng.permutation(n)
    flat[perm[:n_salt]] = 0.0
    flat[perm[n_salt : n_salt + n_out]] += noise.outlier_offset
    return DepthMap(grid=depth.grid, values=flat.reshape(depth.grid.shape))
