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
from .bgdepth import DepthMap, _row_bands
from .equirect import GridSpec, _int, _real, _shown, pixel_center_trig
from .errors import PlacementError, ShapeMismatchError, ValueRangeError
from .fusion import SegMap
from .layout import _MAX_COORD, ManhattanRoom, _readonly

CAMERA_WALL_CLEARANCE = 0.5  # meters
# (lo, hi) box extents along x, y and z, meters; z is also kept below the room
BOX_SIZE_RANGES = ((0.3, 1.2), (0.3, 1.2), (0.3, 1.5))
# On a 2-CPU Xeon, 1000 boxes take 0.3-0.5 s to place and 0.5-0.8 s to render at 1024x512.
MAX_BOXES = 1000
MIN_CORNER_AZIMUTH_GAP = 3.0 * 2.0 * np.pi / 1024.0  # three columns at W=1024
_MASK_EPS = 1e-6  # m: how far in front of the room shell a box still counts as background


@dataclass(frozen=True)
class SceneSpec:
    room: ManhattanRoom
    boxes: np.ndarray  # (M, 6): minx miny minz maxx maxy maxz
    seed: int

    def __post_init__(self):
        b = _readonly(self.boxes, "boxes")
        if b.size % 6:
            raise ShapeMismatchError(f"boxes need 6 values each, got {b.size} values")
        b = b.reshape(-1, 6)
        object.__setattr__(self, "boxes", b)
        object.__setattr__(self, "seed", _int("scene seed", self.seed, 0))
        if not np.all(np.abs(b) <= _MAX_COORD):  # slab distances stay finite; NaN fails
            raise ValueRangeError(f"box extents must lie within {_MAX_COORD:.3g} m")
        if np.any(b[:, :3] >= b[:, 3:]):
            raise ValueRangeError("box min must be strictly below box max componentwise")


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption: salt and outlier fractions, the outlier offset in (0, _MAX_COORD] m, a seed."""

    salt_frac: float = 0.05
    outlier_frac: float = 0.1
    outlier_offset: float = 2.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _int("noise seed", self.seed, 0))
        for name in ("salt_frac", "outlier_frac"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0, 1, "[]"))
        if self.salt_frac + self.outlier_frac > 1:
            raise ValueRangeError("salt_frac + outlier_frac must be <= 1")
        offset = _real("outlier_offset", self.outlier_offset, 0, _MAX_COORD, "(]")
        object.__setattr__(self, "outlier_offset", offset)


@dataclass(frozen=True)
class SceneConfig:
    plan: str = "rect"  # "rect" | "lshape"
    box_count_range: tuple[int, int] = (0, 4)

    def __post_init__(self):
        if not (isinstance(self.plan, str) and self.plan in ("rect", "lshape")):
            raise ValueRangeError(f"plan must be 'rect' or 'lshape', got {_shown(self.plan)}")
        r = self.box_count_range
        if not (isinstance(r, (list, tuple)) and len(r) == 2):
            raise ValueRangeError(f"box_count_range must be a pair (lo, hi), got {_shown(r)}")
        lo = _int("box_count_range lo", r[0], 0, MAX_BOXES)
        hi = _int("box_count_range hi", r[1], lo, MAX_BOXES)
        object.__setattr__(self, "box_count_range", (lo, hi))


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


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> SceneSpec:
    """Deterministically sample a room (and boxes) satisfying all invariants."""
    seed = _int("scene seed", seed, 0)
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
    (sx_lo, sx_hi), (sy_lo, sy_hi), (sz_lo, sz_hi) = BOX_SIZE_RANGES
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
            # For a rect plan, or an L plan whose notch is a corner of its
            # bounding box, four footprint corners strictly inside the plan
            # and 1e-9 m clear of every wall put the whole footprint inside:
            # a footprint reaching into the notch has its far corner there.
            # The draw of sz keeps every box top 1e-3 m below the ceiling.
            px, py = np.array([x0, x1, x1, x0]), np.array([y0, y0, y1, y1])
            if not _kernels._points_in_polygon(edges, px, py).all():
                continue
            if _kernels.polygon_boundary_distance(edges, px, py).min() < 1e-9:
                continue
            # the box must not contain the camera origin
            if x0 < 0.0 < x1 and y0 < 0.0 < y1 and z0 < 0.0 < z1:
                continue
            boxes.append((x0, y0, z0, x1, y1, z1))
            break
        # unplaceable boxes are skipped, reducing the count
    return SceneSpec(room=room, boxes=boxes, seed=seed)


def render_bands(scene: SceneSpec, grid: GridSpec):
    """Render ``scene`` one row band (``bgdepth._row_bands``) at a time.

    Yields ``(rows, depth, shell, mask)`` per band, top to bottom: the
    depth with the scene's own boxes in front of the room shell, the shell
    alone, and 1 where the two agree within ``_MASK_EPS``. Where no box
    reaches a band, ``depth`` is ``shell`` itself and the mask is all ones.
    The arrays are reused from band to band, so a caller copies what it
    keeps before asking for the next band. A non-finite shell raises
    ``ValueRangeError`` in the band that holds it.

    A box's slab planes (``_kernels._slab_planes``) are made once; its
    entry distances only over its footprint rows inside the band, so the
    working set is the band's, however much of the sphere the boxes cover.
    """
    room = scene.room
    parts = _kernels.shell_parts(room.edges, room.cam_to_floor, room.cam_to_ceil, grid)
    cl, dz, cos_lon, sin_lon = pixel_center_trig(grid)
    footprints = []
    for box in scene.boxes:
        rows, col_slices = _kernels._box_footprint(box, grid)
        for cols in col_slices:
            planes = _kernels._slab_planes(box, cl[rows], cos_lon[cols], sin_lon[cols], dz[rows])
            footprints.append((rows, cols, planes))
    bands = list(_row_bands(grid))
    shell_buf, depth_buf, mask_buf = np.empty((3, bands[0].stop, grid.width))
    for rows in bands:
        n = rows.stop - rows.start
        shell = _kernels.shell_band(parts, grid, rows, shell_buf[:n])
        # A box entry lies in (0, shell), so only the shell can hold inf or
        # NaN; shell distances are positive by construction.
        if not np.isfinite(shell).all():
            raise ValueRangeError("depth values must be finite")
        depth, mask = shell, mask_buf[:n]
        for r, cols, planes in footprints:
            a, b = max(r.start, rows.start), min(r.stop, rows.stop)
            if a < b:
                if depth is shell:
                    depth = depth_buf[:n]
                    np.copyto(depth, shell)
                # the mask's buffer holds each entry piece until the mask is made
                t = mask_buf.ravel()[: (b - a) * planes[1].size].reshape(b - a, -1)
                _kernels._slab_entry(planes, slice(a - r.start, b - r.start), out=t)
                hit = depth[a - rows.start : b - rows.start, cols]
                # the minimum a per-ray slab test takes, so the bits match
                np.minimum(hit, t, out=hit)
        if depth is shell:
            mask.fill(1.0)
        else:
            # a box only lowers the depth: this is |depth - shell| <= _MASK_EPS
            np.subtract(shell, depth, out=mask)
            np.less_equal(mask, _MASK_EPS, out=mask)
        yield rows, depth, shell, mask


def raycast_depth(scene: SceneSpec, grid: GridSpec, include_foreground: bool = True) -> DepthMap:
    """Exact radial distance to the first hit at every pixel center, or to the shell alone."""
    out = np.empty(grid.shape)
    for rows, depth, shell, _ in render_bands(scene, grid):
        out[rows] = depth if include_foreground else shell
    return DepthMap._own(grid, out)


def render_scene(scene: SceneSpec, grid: GridSpec) -> tuple[DepthMap, DepthMap, SegMap]:
    """The renders with and without foreground, and their background mask,
    from one shell pass.

    The mask is 1 where the renders agree within ``_MASK_EPS``: they hold
    the same bits outside the box footprints, so only those are compared.
    """
    depth, mask = np.empty(grid.shape), np.empty(grid.shape)
    # without boxes both renders are one map
    shell = np.empty(grid.shape) if len(scene.boxes) else depth
    for rows, d, s, m in render_bands(scene, grid):
        depth[rows] = d
        shell[rows] = s
        mask[rows] = m
    return DepthMap._own(grid, depth), DepthMap._own(grid, shell), SegMap._own(grid, mask)


def gt_background_mask(scene: SceneSpec, grid: GridSpec) -> SegMap:
    """1 where renders with and without foreground agree within ``_MASK_EPS``."""
    mask = np.empty(grid.shape)
    for rows, _, _, m in render_bands(scene, grid):
        mask[rows] = m
    return SegMap._own(grid, mask)


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
    return DepthMap._own(depth.grid, flat.reshape(depth.grid.shape))
