"""Equirectangular pixel <-> spherical angle conversions and pixel-centre rays.

Conventions used everywhere in this package, whose only pixel <-> angle
formulas are :func:`row_to_lat`, :func:`lat_to_row`, :func:`col_to_lon` and
:func:`lon_to_col`:

* images are H rows by W columns with W = 2H;
* continuous pixel coordinates: row in [0, H] increases downward,
  col in [0, W] increases to the right;
* latitude ``lat = (0.5 - row/H) * pi`` (zenith at row 0, nadir at row H);
* longitude ``lon = (col/W) * 2*pi - pi`` (half-open [-pi, pi));
* world frame: camera at the origin, z up, lon 0 along +x, so a ray
  direction is ``(cos lat cos lon, cos lat sin lon, sin lat)``;
* per-pixel map values live at pixel centers (i + 0.5, j + 0.5).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValueRangeError


# The tallest grid: 8192 x 4096, whose float64 map takes 256 MiB. Larger
# grids are refused before any map of them is allocated.
_MAX_HEIGHT = 4096


def _int(what: str, v, lo: int, hi: float = math.inf) -> int:
    """``v`` as an int when it is a Python or numpy integer, bool excepted,
    in [lo, hi]; anything else is ``ValueRangeError`` naming ``what``."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi:
        return int(v)
    bounds = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
    raise ValueRangeError(f"{what} must be an integer {bounds}, got {v!r}")


def _real(what: str, v, lo: float = -math.inf, hi: float = math.inf, ends: str = "()") -> float:
    """``v`` as a float when it is a Python or numpy real number, bool excepted,
    between ``lo`` and ``hi``, each taken (``ends`` '[', ']') or left out ('(',
    ')'); anything else, NaN included, is ``ValueRangeError`` naming ``what``."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    try:
        f = float(v) if real else math.nan
    except OverflowError:  # an integer beyond the floats
        f = math.nan
    if lo < f < hi or f == lo and ends[0] == "[" or f == hi and ends[1] == "]":
        return f
    raise ValueRangeError(f"{what} must be a real number in {ends[0]}{lo}, {hi}{ends[1]}, got {v!r}")


@dataclass(frozen=True)
class GridSpec:
    """Equirectangular image dimensions, integers but not bool; width must be
    twice the height, and the height at most ``_MAX_HEIGHT``."""

    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "width", _int("grid width", self.width, 1))
        object.__setattr__(self, "height", _int("grid height", self.height, 1, _MAX_HEIGHT))
        if self.width != 2 * self.height:
            raise ShapeMismatchError(f"grid width {self.width} != 2 * height {self.height}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)


def row_to_lat(row, grid: GridSpec):
    """Latitude of continuous pixel row(s); no range check."""
    return (0.5 - row / grid.height) * np.pi


def lat_to_row(lat, grid: GridSpec):
    """Continuous pixel row of latitude(s); inverse of :func:`row_to_lat`."""
    return (0.5 - lat / np.pi) * grid.height


def col_to_lon(col, grid: GridSpec):
    """Longitude of continuous pixel column(s); no range check."""
    return (col / grid.width) * 2.0 * np.pi - np.pi


def lon_to_col(lon, grid: GridSpec):
    """Continuous pixel column of longitude(s); inverse of :func:`col_to_lon`."""
    return (lon + np.pi) / (2.0 * np.pi) * grid.width


def wrap_angle(a):
    """Wrap angle(s) into [-pi, pi)."""
    return (np.asarray(a, dtype=np.float64) + np.pi) % (2.0 * np.pi) - np.pi


def pixel_center_lats(grid: GridSpec) -> np.ndarray:
    """Latitudes of the H pixel-center rows, top to bottom."""
    return row_to_lat(np.arange(grid.height, dtype=np.float64) + 0.5, grid)


def pixel_center_lons(grid: GridSpec) -> np.ndarray:
    """Longitudes of the W pixel-center columns, left to right."""
    return col_to_lon(np.arange(grid.width, dtype=np.float64) + 0.5, grid)


@functools.lru_cache(maxsize=8)
def pixel_center_trig(grid: GridSpec):
    """cos and sin of the pixel-centre latitudes, each (H, 1), then of the
    longitudes, each (W,). The ray direction at a pixel centre is
    (cos_lat * cos_lon, cos_lat * sin_lon, sin_lat).

    Each stage of a panorama asks for the same grid's factors, so they are
    computed once per grid and shared read-only."""
    lat = pixel_center_lats(grid)[:, None]
    lon = pixel_center_lons(grid)
    trig = (np.cos(lat), np.sin(lat), np.cos(lon), np.sin(lon))
    for a in trig:
        a.flags.writeable = False
    return trig
