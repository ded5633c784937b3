"""The PLY formatter's digit words at the integer-digit boundaries, and the
banded unprojection on grids whose bands differ in validity.

A value that rounds up across a power of ten gains an integer digit, and
one that rounds to 1000 or more no longer fits the sign-and-digits word;
both must still print as Python's ``f"{v:.6f}"`` does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panoroom import bgdepth, formats
from panoroom.equirect import GridSpec

from test_ply import reference_body, reference_ply


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
@pytest.mark.parametrize(
    "magnitude, text",
    [
        (9.9999996, "10.000000"),
        (99.9999996, "100.000000"),
        (999.9999996, "1000.000000"),
        (999.9999994, "999.999999"),
    ],
)
def test_rounding_carries_into_a_new_integer_digit(sign, magnitude, text):
    # the other values of the chunk trigger no fallback of their own
    pts = np.array([[sign * magnitude, 1.25, -3.5], [0.5, sign * magnitude, 2.0]])
    body = formats._format_points(pts)
    assert body == reference_body(pts)
    assert (("-" if sign < 0 else "") + text).encode("ascii") in body


_near_powers_of_ten = st.builds(
    lambda k, offset, sign: sign * (10.0**k + offset),
    st.integers(min_value=-7, max_value=4),
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_near_powers_of_ten, _near_powers_of_ten, _near_powers_of_ten),
                min_size=1, max_size=40))
def test_values_near_powers_of_ten_match_fstring(rows):
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
    assert formats._format_points(pts) == reference_body(pts)


@pytest.mark.parametrize("band_rows", [1, 3, 4])
def test_bands_with_and_without_invalid_pixels(monkeypatch, tmp_path, band_rows):
    grid = GridSpec(width=24, height=12)
    monkeypatch.setattr(bgdepth, "_BAND_VALUES", band_rows * grid.width)
    rng = np.random.default_rng(band_rows)
    depth = rng.uniform(0.5, 9.0, size=grid.shape)
    # zeros in rows 1, 10 and 11 only: some bands are whole, some are not
    depth[1, 3] = 0.0
    depth[-1, :5] = 0.0
    depth[-2, -1] = 0.0
    path = tmp_path / "cloud.ply"
    formats.write_ply_pointcloud(depth, str(path))
    assert path.read_bytes() == reference_ply(depth, grid)
