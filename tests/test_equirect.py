import numpy as np
import pytest
from hypothesis import given, strategies as st

from panoroom import GridSpec, equirect
from panoroom.equirect import (
    col_to_lon,
    lat_to_row,
    lon_to_col,
    pixel_center_trig,
    row_to_lat,
    wrap_angle,
)
from panoroom.errors import ValueRangeError

GRID = GridSpec(width=1024, height=512)


def test_grid_requires_2_to_1_aspect():
    with pytest.raises(ValueError):
        GridSpec(width=100, height=100)
    with pytest.raises(ValueError):
        GridSpec(width=0, height=0)


def test_grid_height_is_bounded():
    bound = equirect._MAX_HEIGHT
    assert GridSpec(width=2 * bound, height=bound).shape == (bound, 2 * bound)
    with pytest.raises(ValueRangeError):
        GridSpec(width=2 * bound + 2, height=bound + 1)


def test_midline_quarter_row():
    assert row_to_lat(0.25 * 512, GRID) == pytest.approx(np.pi / 4, abs=1e-15)
    assert col_to_lon(0.5 * 1024, GRID) == pytest.approx(0.0, abs=1e-15)


def test_equator_left_edge():
    assert row_to_lat(0.5 * 512, GRID) == 0.0
    assert col_to_lon(0.0, GRID) == -np.pi


def test_nadir_row():
    assert row_to_lat(512, GRID) == pytest.approx(-np.pi / 2, abs=1e-15)
    assert col_to_lon(0.75 * 1024, GRID) == pytest.approx(np.pi / 2, abs=1e-15)


def test_angles_to_pixel_center_and_seam():
    assert (lat_to_row(0.0, GRID), lon_to_col(0.0, GRID)) == (256.0, 512.0)
    assert (lat_to_row(np.pi / 2, GRID), lon_to_col(-np.pi, GRID)) == (0.0, 0.0)


def test_round_trip_bulk():
    rng = np.random.default_rng(0)
    row = rng.uniform(0, 512, 10_000)
    col = rng.uniform(0, 1024, 10_000)
    row2 = lat_to_row(row_to_lat(row, GRID), GRID)
    col2 = lon_to_col(col_to_lon(col, GRID), GRID)
    assert np.max(np.abs(row2 - row)) < 1e-12 * 512
    assert np.max(np.abs(col2 - col)) < 1e-12 * 1024


@given(
    st.floats(min_value=0.0, max_value=512.0),
    st.floats(min_value=0.0, max_value=1024.0),
)
def test_round_trip_property(row, col):
    lat = row_to_lat(row, GRID)
    lon = col_to_lon(col, GRID)
    assert -np.pi / 2 <= lat <= np.pi / 2
    assert abs(lat_to_row(lat, GRID) - row) < 1e-9
    assert abs(lon_to_col(lon, GRID) - col) < 1e-9


def test_lat_decreasing_in_row_lon_increasing_in_col():
    lats = row_to_lat(np.linspace(0, 512, 100), GRID)
    assert np.all(np.diff(lats) < 0)
    lons = col_to_lon(np.linspace(0, 1024, 100), GRID)
    assert np.all(np.diff(lons) > 0)


def test_rays_unit_norm():
    cos_lat, sin_lat, cos_lon, sin_lon = pixel_center_trig(GRID)
    x, y, z = cos_lat * cos_lon, cos_lat * sin_lon, np.broadcast_to(sin_lat, GRID.shape)
    norms = np.sqrt(x * x + y * y + z * z)
    assert norms.shape == GRID.shape
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_wrapped_azimuth_difference():
    a1 = col_to_lon(10.0, GRID)
    a2 = col_to_lon(1020.0, GRID)
    d = wrap_angle(a2 - a1)
    assert -np.pi <= d < np.pi
    # 1010 columns forward wraps to -14 columns
    assert d == pytest.approx(-14 / 1024 * 2 * np.pi, abs=1e-12)
