import numpy as np
import pytest
from hypothesis import given, strategies as st

from panoroom import GridSpec, angles_to_pixel, pixel_to_angles, pixel_to_ray
from panoroom.equirect import wrap_angle
from panoroom.errors import CoordinateRangeError

GRID = GridSpec(width=1024, height=512)


def test_grid_requires_2_to_1_aspect():
    with pytest.raises(ValueError):
        GridSpec(width=100, height=100)
    with pytest.raises(ValueError):
        GridSpec(width=0, height=0)


def test_midline_quarter_row():
    lat, lon = pixel_to_angles(0.25 * 512, 0.5 * 1024, GRID)
    assert lat == pytest.approx(np.pi / 4, abs=1e-15)
    assert lon == pytest.approx(0.0, abs=1e-15)


def test_equator_left_edge():
    lat, lon = pixel_to_angles(0.5 * 512, 0.0, GRID)
    assert lat == 0.0
    assert lon == -np.pi


def test_nadir_row():
    lat, lon = pixel_to_angles(512, 0.75 * 1024, GRID)
    assert lat == pytest.approx(-np.pi / 2, abs=1e-15)
    assert lon == pytest.approx(np.pi / 2, abs=1e-15)


def test_out_of_range_raises():
    with pytest.raises(CoordinateRangeError):
        pixel_to_angles(-0.1, 0, GRID)
    with pytest.raises(CoordinateRangeError):
        pixel_to_angles(0, 1025, GRID)


def test_angles_to_pixel_center_and_seam():
    assert angles_to_pixel((0.0, 0.0), GRID) == (256.0, 512.0)
    assert angles_to_pixel((np.pi / 2, -np.pi), GRID) == (0.0, 0.0)


def test_round_trip_bulk():
    rng = np.random.default_rng(0)
    row = rng.uniform(0, 512, 10_000)
    col = rng.uniform(0, 1024, 10_000)
    a = pixel_to_angles(row, col, GRID)
    row2, col2 = angles_to_pixel(a, GRID)
    assert np.max(np.abs(row2 - row)) < 1e-12 * 512
    assert np.max(np.abs(col2 - col)) < 1e-12 * 1024


@given(
    st.floats(min_value=0.0, max_value=512.0),
    st.floats(min_value=0.0, max_value=1024.0),
)
def test_round_trip_property(row, col):
    lat, lon = pixel_to_angles(row, col, GRID)
    assert -np.pi / 2 <= lat <= np.pi / 2
    row2, col2 = angles_to_pixel((lat, lon), GRID)
    assert abs(row2 - row) < 1e-9
    assert abs(col2 - col) < 1e-9


def test_lat_decreasing_in_row_lon_increasing_in_col():
    rows = np.linspace(0, 512, 100)
    lats = pixel_to_angles(rows, np.zeros(100), GRID).lat
    assert np.all(np.diff(lats) < 0)
    cols = np.linspace(0, 1024, 100)
    lons = pixel_to_angles(np.zeros(100), cols, GRID).lon
    assert np.all(np.diff(lons) > 0)


def test_nadir_ray_points_down():
    ray = pixel_to_ray(512, 100, GRID)
    assert np.allclose(ray.dir, [0, 0, -1], atol=1e-15)


def test_forward_ray():
    ray = pixel_to_ray(256, 512, GRID)
    assert np.allclose(ray.dir, [1, 0, 0], atol=1e-15)


def test_rays_unit_norm():
    rng = np.random.default_rng(1)
    ray = pixel_to_ray(rng.uniform(0, 512, 1000), rng.uniform(0, 1024, 1000), GRID)
    norms = np.linalg.norm(ray.dir, axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_wrapped_azimuth_difference():
    a1 = pixel_to_angles(0, 10.0, GRID).lon
    a2 = pixel_to_angles(0, 1020.0, GRID).lon
    d = wrap_angle(a2 - a1)
    assert -np.pi <= d < np.pi
    # 1010 columns forward wraps to -14 columns
    assert d == pytest.approx(-14 / 1024 * 2 * np.pi, abs=1e-12)

