"""Equirectangular pixel <-> spherical angle <-> 3D ray conversions.

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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoordinateRangeError, ShapeMismatchError, ValueRangeError


@dataclass(frozen=True)
class GridSpec:
    """Equirectangular image dimensions; width must be twice the height."""

    width: int
    height: int

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueRangeError("grid dimensions must be positive")
        if self.width != 2 * self.height:
            raise ShapeMismatchError(
                f"equirectangular grid needs width == 2*height, got {self.width}x{self.height}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)


class SphereAngles(NamedTuple):
    lat: float
    lon: float


class Ray(NamedTuple):
    origin: np.ndarray
    dir: np.ndarray


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


def pixel_to_angles(row, col, grid: GridSpec) -> SphereAngles:
    """Map continuous pixel coordinates to (lat, lon); accepts arrays."""
    row = np.asarray(row, dtype=np.float64)
    col = np.asarray(col, dtype=np.float64)
    if np.any(row < 0) or np.any(row > grid.height) or np.any(col < 0) or np.any(col > grid.width):
        raise CoordinateRangeError(
            f"pixel coordinates outside [0,{grid.height}]x[0,{grid.width}]"
        )
    return SphereAngles(row_to_lat(row, grid)[()], col_to_lon(col, grid)[()])


def angles_to_pixel(a: SphereAngles, grid: GridSpec):
    """Inverse of :func:`pixel_to_angles` (exact, no rounding)."""
    row = lat_to_row(np.asarray(a[0], dtype=np.float64), grid)
    col = lon_to_col(np.asarray(a[1], dtype=np.float64), grid)
    return row[()], col[()]


def angles_to_dir(lat, lon) -> np.ndarray:
    """Unit direction(s) for spherical angles; last axis is (x, y, z)."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    cl = np.cos(lat)
    return np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)], axis=-1)


def pixel_to_ray(row, col, grid: GridSpec) -> Ray:
    """Ray from the camera center through a continuous pixel coordinate."""
    lat, lon = pixel_to_angles(row, col, grid)
    d = angles_to_dir(lat, lon)
    return Ray(np.zeros(d.shape, dtype=np.float64), d)


def wrap_angle(a):
    """Wrap angle(s) into [-pi, pi)."""
    return (np.asarray(a, dtype=np.float64) + np.pi) % (2.0 * np.pi) - np.pi


def pixel_center_lats(grid: GridSpec) -> np.ndarray:
    """Latitudes of the H pixel-center rows, top to bottom."""
    return row_to_lat(np.arange(grid.height, dtype=np.float64) + 0.5, grid)


def pixel_center_lons(grid: GridSpec) -> np.ndarray:
    """Longitudes of the W pixel-center columns, left to right."""
    return col_to_lon(np.arange(grid.width, dtype=np.float64) + 0.5, grid)


def pixel_center_dirs(grid: GridSpec) -> np.ndarray:
    """(H, W, 3) unit ray directions at all pixel centers."""
    lat = pixel_center_lats(grid)[:, None]
    lon = pixel_center_lons(grid)[None, :]
    cl = np.cos(lat)
    return np.stack(
        [
            cl * np.cos(lon),
            cl * np.sin(lon),
            np.broadcast_to(np.sin(lat), (grid.height, grid.width)),
        ],
        axis=-1,
    )

