"""Camera height resolution and background depth from a room layout.

Depth maps hold radial (Euclidean) distance in meters; 0 marks an invalid
pixel. Background depth has two modes:

* ``"exact"`` -- plane-geometry formulas (the default; agrees with the
  ray-cast oracle to machine precision):
  ceiling ``up / sin(lat)``, floor ``down / sin(-lat)``, wall
  ``r(v) / cos(lat)`` with ``r(v) = down / tan(phi_f(v))``;
* ``"paper-literal"`` -- the small-angle floor/ceiling linearization
  ``h / |lat|`` and the multiplicative wall construction
  ``r(v) * cos(lat)``, kept only to document how far that form diverges
  from exact geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .equirect import GridSpec, _shown, pixel_center_lats, pixel_center_trig, row_to_lat
from .errors import NoValidSamplesError, ShapeMismatchError, ValueRangeError
from .layout import CameraHeights, LayoutMap, _readonly, floor_wall_range

CEILING, WALL, FLOOR = 0, 1, 2

RESOLVE_MODES = ("exact", "paper-literal")

# Values per band of a banded stage: 128 KiB of float64, so a band's
# operands and temporaries stay in a 2 MiB L2 cache. Whole-grid numpy ops
# at 1024x512 stream 4 MiB per operand through memory instead.
_BAND_VALUES = 16384


def _row_bands(grid: GridSpec):
    """Row slices covering ``grid`` top to bottom: ``_BAND_VALUES // width``
    rows each (at least one), the last band possibly shorter."""
    step = max(1, _BAND_VALUES // grid.width)
    for r0 in range(0, grid.height, step):
        yield slice(r0, min(r0 + step, grid.height))


@dataclass(frozen=True)
class _GridMap:
    """H x W float64 values on ``grid``. Public construction keeps one
    read-only float64 copy (``layout._readonly``) and runs the subclass's
    ``_check`` on it; ``_own`` wraps a map the package computes itself
    without either."""

    grid: GridSpec
    values: np.ndarray

    _noun = ""  # names the map in the shape error

    def __post_init__(self):
        v = _readonly(self.values, f"{self._noun} values")
        if v.shape != self.grid.shape:
            raise ShapeMismatchError(f"{self._noun} values {v.shape} != grid {self.grid.shape}")
        self._check(v)
        object.__setattr__(self, "values", v)

    @classmethod
    def _own(cls, grid: GridSpec, values: np.ndarray):
        """A map over ``values`` without ``__post_init__``'s checks and copy.

        ``values`` must be a fresh float64 array of ``grid.shape`` whose range
        the caller has established; it is marked read-only and must not be
        written through any other reference.
        """
        values.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "grid", grid)
        object.__setattr__(m, "values", values)
        return m


@dataclass(frozen=True)
class DepthMap(_GridMap):
    """H x W radial distances in meters; 0 = invalid/missing."""

    _noun = "depth"

    @staticmethod
    def _check(v: np.ndarray) -> None:
        """The value checks of public construction; a NaN spreads into both ends."""
        lo, hi = v.min(), v.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueRangeError("depth values must be finite")
        if lo < 0:
            raise ValueRangeError("depth values must be >= 0")


def require_same_grid(*maps) -> GridSpec:
    grid = maps[0].grid
    for m in maps[1:]:
        if m.grid != grid:
            raise ShapeMismatchError(f"grids differ: {m.grid} vs {grid}")
    return grid


# --- scalar/array depth formulas (shared by the map renderer and tests) ---


def _check_mode(mode: str) -> None:
    if not (isinstance(mode, str) and mode in RESOLVE_MODES):
        raise ValueRangeError(f"mode must be one of {RESOLVE_MODES}, got {_shown(mode)}")


def cap_depth(lat_mag, height: float, mode: str = "exact"):
    """Radial depth of a horizontal plane (floor or ceiling) ``height`` from
    the camera, at ``lat_mag`` = |lat| towards it from the horizon."""
    _check_mode(mode)
    sin_lat = np.sin(lat_mag) if mode == "exact" else lat_mag
    return _kernels.plane_depth(sin_lat, height, height)


def wall_depth(lat, wall_range, mode: str = "exact"):
    """Radial wall depth at latitude ``lat`` for horizontal range ``wall_range``."""
    _check_mode(mode)
    if mode == "exact":
        return wall_range / np.cos(lat)
    return wall_range * np.cos(lat)


def _cap_masks(
    layout: LayoutMap, grid: GridSpec, ceiling_band=slice(None), floor_band=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """(ceiling, floor) pixel masks over the row slices ``ceiling_band`` and
    ``floor_band``: centers strictly above the ceiling boundary, and
    strictly below the floor boundary."""
    centers = (np.arange(grid.height, dtype=np.float64) + 0.5)[:, None]
    return centers[ceiling_band] < layout.ceil_rows, centers[floor_band] > layout.floor_rows


def classify_regions(layout: LayoutMap, grid: GridSpec) -> np.ndarray:
    """Per-pixel {CEILING, WALL, FLOOR} labels from the layout boundaries.

    A pixel center exactly on a boundary counts as wall.
    """
    layout.validate_against(grid)
    ceiling, floor = _cap_masks(layout, grid)
    region = np.full(grid.shape, WALL, dtype=np.int8)
    region[ceiling] = CEILING
    region[floor] = FLOOR
    return region


def _walk_to_valid(v: np.ndarray, start: np.ndarray, step: int) -> np.ndarray:
    """Per column, the first row from ``start[col]`` on, moving by ``step``,
    whose value is valid (> 0); a row outside [0, H) where the column runs
    out first."""
    h, w = v.shape
    rows = start.copy()
    k = np.arange(w)
    while True:
        # the columns still sitting on an invalid pixel inside the image
        k = k[(rows[k] >= 0) & (rows[k] < h)]
        k = k[v[rows[k], k] <= 0.0]
        if not k.size:
            return rows
        rows[k] += step


def _row_sines(rows: np.ndarray, grid: GridSpec, sign: float) -> np.ndarray:
    """``np.sin(sign * lat)`` at each pixel-center row in ``rows``.

    Each distinct row is one scalar ``np.sin`` call, so the bits match a
    per-column scalar loop: the array form of ``np.sin`` may take a SIMD
    path that rounds differently on some hosts.
    """
    distinct, where = np.unique(rows, return_inverse=True)
    lats = row_to_lat(distinct + 0.5, grid).tolist()
    return np.array([np.sin(sign * lat) for lat in lats], dtype=np.float64)[where]


def _column_estimates_interior(layout, coarse, grid):
    """Exact per-column height estimates from in-region pixel centers.

    Any pure ceiling (floor) pixel satisfies ``h = d * sin(|lat|)`` exactly,
    so sampling the pixel center nearest the boundary inside each region
    recovers the heights to machine precision on clean maps. Invalid pixels
    are skipped by walking further into the region.
    """
    v = coarse.values
    estimates = []
    # last center above the ceiling boundary, first center below the floor
    for start, step, sign in (
        (np.ceil(layout.ceil_rows - 0.5).astype(np.intp) - 1, -1, 1.0),
        (np.floor(layout.floor_rows - 0.5).astype(np.intp) + 1, 1, -1.0),
    ):
        rows = _walk_to_valid(v, start, step)
        est = np.full(grid.width, np.nan)
        (cols,) = np.nonzero((rows >= 0) & (rows < grid.height))
        est[cols] = v[rows[cols], cols] * _row_sines(rows[cols], grid, sign)
        estimates.append(est)
    return tuple(estimates)


def resolve_camera_heights(
    layout: LayoutMap,
    coarse: DepthMap,
    grid: GridSpec,
) -> CameraHeights:
    """Recover (up, down) camera heights from layout boundaries plus depth.

    Each column votes ``h = d * sin(|lat|)`` at the valid pixel center
    nearest its boundary inside the ceiling (floor) region, which is exact on
    clean maps; each height is the median of its votes.
    """
    layout.validate_against(grid)
    if coarse.grid != grid:
        raise ShapeMismatchError("coarse depth grid differs from requested grid")
    up, down = _column_estimates_interior(layout, coarse, grid)
    up_valid = up[np.isfinite(up)]
    down_valid = down[np.isfinite(down)]
    if len(up_valid) == 0 or len(down_valid) == 0:
        raise NoValidSamplesError("no column produced a valid boundary depth sample")
    return CameraHeights(up=np.median(up_valid), down=np.median(down_valid))


def resolve_background_depth(
    layout: LayoutMap,
    heights: CameraHeights,
    grid: GridSpec,
    mode: str = "exact",
) -> DepthMap:
    """Per-pixel distance to the room shell implied by the layout."""
    _check_mode(mode)
    layout.validate_against(grid)
    cos_lat, sin_lat, _, _ = pixel_center_trig(grid)
    exact = mode == "exact"
    # One (H, 1) column holds both caps: the ceiling's depth above the
    # horizon, the floor's below it. The small-angle form takes lat for sin(lat).
    cap_sine = sin_lat if exact else pixel_center_lats(grid)[:, None]
    caps = _kernels.plane_depth(cap_sine, heights.down, heights.up)
    centers = np.arange(grid.height, dtype=np.float64) + 0.5

    # Validated boundaries keep the ceiling in the top half and the floor in
    # the bottom one. Rows [0, a) are all ceiling and rows [d, H) all floor;
    # only rows [a, b) and [c, d) cross a boundary and need a mask.
    a, b = np.searchsorted(centers, (layout.ceil_rows.min(), layout.ceil_rows.max()))
    c, d = np.searchsorted(centers, (layout.floor_rows.min(), layout.floor_rows.max()), "right")
    wall_range = floor_wall_range(layout, heights, grid)
    out = np.empty(grid.shape)
    out[:a] = caps[:a]
    # the wall depth is r / cos(lat), or r * cos(lat) in the small-angle form
    (np.divide if exact else np.multiply)(wall_range, cos_lat[a:d], out=out[a:d])
    out[d:] = caps[d:]
    ceiling, floor = _cap_masks(layout, grid, slice(a, b), slice(c, d))
    np.copyto(out[a:b], caps[a:b], where=ceiling)
    np.copyto(out[c:d], caps[c:d], where=floor)
    # validated boundaries keep every formula positive where it applies;
    # a boundary next to the horizon can still overflow the wall range
    if not np.isfinite(out).all():
        raise ValueRangeError("depth values must be finite")
    return DepthMap._own(grid, out)
