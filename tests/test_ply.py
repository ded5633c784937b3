import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panoroom import formats
from panoroom.equirect import GridSpec

from conftest import pixel_center_dirs

CHUNK = formats.PLY_CHUNK_POINTS


def reference_body(pts) -> bytes:
    return "".join(f"{x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in pts).encode("ascii")


def reference_ply(depth, grid) -> bytes:
    """The writer's output as the plain per-point f-string loop produces it."""
    valid = depth > 0
    pts = depth[valid][:, None] * pixel_center_dirs(grid)[valid]
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(pts)}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    return header.encode("ascii") + reference_body(pts)


def assert_formats_like_reference(rows):
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
    assert formats._format_points(pts) == reference_body(pts)


@pytest.mark.parametrize(
    "value",
    [1.5e-6, 2.5e-6, 3.5e-6, -2.5e-6, 0.0078125, 1.0000005, 2.0000025],
    ids=lambda v: repr(v),
)
def test_half_way_ties_round_like_python(value):
    # |v| * 1e6 lands exactly on k + 0.5; Python rounds the exact binary value
    assert_formats_like_reference([[value, 1.0, value]])


@pytest.mark.parametrize(
    "row",
    [
        [-0.0, 0.0, -0.0],
        [-1e-9, 1e-9, -4e-7],
        [-5e-7, 5e-7, 4.9999999e-7],
        [1e3, -1e3, 999.9999995],
        [12345.678901, -98765.4321, 4503599.627370495],
        [1e10, -3.25e15, 1e300],
        [np.inf, -np.inf, np.nan],
    ],
)
def test_signs_magnitudes_and_non_finite(row):
    assert_formats_like_reference([row, [1.0, 2.0, 3.0]])


def test_mixed_widths_in_one_chunk():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-7, 7, size=(2000, 3))
    assert formats._format_points(pts) == reference_body(pts)


_finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)
_ties = st.builds(
    lambda k, sign: sign * (k + 0.5) / 1e6,
    st.integers(min_value=0, max_value=10**10),
    st.sampled_from([1.0, -1.0]),
)
_any = st.one_of(_finite, _ties, st.floats(), st.sampled_from([0.0, -0.0, 1e-7, -1e-9]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_any, _any, _any), min_size=1, max_size=40))
def test_format_matches_fstring_property(rows):
    assert_formats_like_reference(rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5, 1e3, 3.7e4, np.inf]), min_size=32, max_size=32),
       st.floats(min_value=0.001, max_value=20.0))
def test_writer_matches_reference_property(tmp_path_factory, levels, scale):
    grid = GridSpec(width=8, height=4)
    depth = np.array(levels).reshape(grid.shape) * scale
    path = tmp_path_factory.mktemp("ply") / "p.ply"
    formats.write_ply_pointcloud(depth, grid, str(path))
    assert path.read_bytes() == reference_ply(depth, grid)


def test_inf_depth_pixel(tmp_path):
    grid = GridSpec(width=16, height=8)
    depth = np.full(grid.shape, 2.0)
    depth[3, 5] = np.inf
    path = tmp_path / "inf.ply"
    formats.write_ply_pointcloud(depth, grid, str(path))
    data = path.read_bytes()
    assert data == reference_ply(depth, grid)
    assert b"inf" in data


def test_all_zero_map_gives_empty_body(tmp_path):
    grid = GridSpec(width=16, height=8)
    path = tmp_path / "zero.ply"
    formats.write_ply_pointcloud(np.zeros(grid.shape), grid, str(path))
    data = path.read_bytes()
    assert data == reference_ply(np.zeros(grid.shape), grid)
    assert data.endswith(b"element vertex 0\nproperty float x\nproperty float y\n"
                         b"property float z\nend_header\n")


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_point_counts_around_chunk_size(tmp_path, count):
    height = 8
    while 2 * height * height <= CHUNK + 1:
        height *= 2
    grid = GridSpec(width=2 * height, height=height)
    rng = np.random.default_rng(count)
    depth = np.zeros(grid.shape)
    depth.flat[:count] = rng.uniform(0.1, 12.0, size=count)
    path = tmp_path / "c.ply"
    formats.write_ply_pointcloud(depth, grid, str(path))
    assert path.read_bytes() == reference_ply(depth, grid)


class Boom(RuntimeError):
    pass


def failing_chunks():
    yield b"partial "
    yield b"payload"
    raise Boom("chunk source failed")


@pytest.mark.parametrize("existing", [None, b"old bytes\n"], ids=["absent", "present"])
def test_streamed_write_failure_leaves_target_untouched(tmp_path, existing):
    path = tmp_path / "out.ply"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(Boom):
        formats._atomic_write(str(path), failing_chunks())
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
    # no temp file is left behind
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.ply"])
