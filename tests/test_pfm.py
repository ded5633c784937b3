import os
import stat
import struct
import threading

import numpy as np
import pytest

from panoroom import formats
from panoroom.errors import (
    PfmHeaderError,
    PfmMagicError,
    PfmTruncatedError,
    ValueRangeError,
)
from panoroom.formats import (
    read_pfm,
    write_json,
    write_ply_pointcloud,
    write_pfm,
)


def test_golden_single_pixel(tmp_path):
    path = tmp_path / "one.pfm"
    write_pfm(np.array([[1.0]]), str(path))
    expected = b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 1.0)
    assert path.read_bytes() == expected


def test_header_for_panorama(tmp_path):
    path = tmp_path / "p.pfm"
    write_pfm(np.zeros((512, 1024), dtype=np.float32), str(path))
    assert path.read_bytes().startswith(b"Pf\n1024 512\n-1.0\n")


def test_round_trip_values(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(20):
        values = rng.uniform(0, 10, size=(16, 32)).astype(np.float32)
        path = tmp_path / f"m{i}.pfm"
        write_pfm(values, str(path))
        back = read_pfm(str(path))
        assert back.dtype == np.float32
        assert np.array_equal(back, values)


def test_write_read_write_bytes_identical(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 5, size=(8, 16)).astype(np.float32)
    p1 = tmp_path / "a.pfm"
    p2 = tmp_path / "b.pfm"
    write_pfm(values, str(p1))
    write_pfm(read_pfm(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_big_endian_variant(tmp_path):
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n1 1\n1.0\n" + struct.pack(">f", 1.0))
    assert read_pfm(str(path)) == np.array([[1.0]], dtype=np.float32)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
    with pytest.raises(PfmTruncatedError):
        read_pfm(str(path))


def test_truncated_payload_on_a_stream(tmp_path):
    """A stream has no length to check up front, so a payload that ends
    early is found only when it is read."""
    fifo = tmp_path / "t.pfm"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(PfmTruncatedError, match="expected 16 bytes, got 7"):
        read_pfm(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(PfmMagicError):
        read_pfm(str(path))


def test_malformed_header(tmp_path):
    path = tmp_path / "h.pfm"
    path.write_bytes(b"Pf\nxx yy\n-1.0\n")
    with pytest.raises(PfmHeaderError):
        read_pfm(str(path))


@pytest.mark.parametrize("scale", [b"nan", b"-nan", b"NaN", b"inf", b"-inf", b"1e999"])
def test_non_finite_scale_is_header_error(tmp_path, scale):
    # a nan scale is not negative, so it would pick big-endian and read
    # little-endian data as denormals that pass every depth check
    path = tmp_path / "s.pfm"
    path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + struct.pack("<f", 1.0))
    with pytest.raises(PfmHeaderError):
        read_pfm(str(path))


def test_longest_header_tokens_parse(tmp_path):
    width, height, scale = b"0" * 63 + b"2", b"0" * 63 + b"1", b"-1." + b"0" * 61
    path = tmp_path / "long.pfm"
    path.write_bytes(b"Pf\n" + width + b" " + height + b"\n" + scale + b"\n"
                     + struct.pack("<2f", 1.0, 2.0))
    assert np.array_equal(read_pfm(str(path)), np.array([[1.0, 2.0]], dtype=np.float32))


def header_of_length(n):
    """A 1 x 2 map's header of exactly ``n`` bytes: the longest tokens, then
    spaces before the scale line."""
    head = b"Pf\n" + b"0" * 63 + b"2 " + b"0" * 63 + b"1\n"
    scale = b"-1." + b"0" * 61 + b"\n"
    return head + b" " * (n - len(head) - len(scale)) + scale


def test_header_at_the_bound_parses(tmp_path):
    path = tmp_path / "bound.pfm"
    path.write_bytes(header_of_length(formats._MAX_HEADER) + struct.pack("<2f", 1.0, 2.0))
    assert np.array_equal(read_pfm(str(path)), np.array([[1.0, 2.0]], dtype=np.float32))


@pytest.mark.parametrize("padding", [1, 1_000_000], ids=["one-byte", "1MB"])
def test_header_past_the_bound_is_header_error(tmp_path, padding):
    path = tmp_path / "padded.pfm"
    path.write_bytes(header_of_length(formats._MAX_HEADER + padding)
                     + struct.pack("<2f", 1.0, 2.0))
    with pytest.raises(PfmHeaderError, match="header longer than"):
        read_pfm(str(path))


@pytest.mark.parametrize(
    "header",
    [b"P" * 65 + b"\n1 1\n-1.0", b"Pf\n" + b"0" * 64 + b"1 1\n-1.0",
     b"Pf\n1 " + b"0" * 64 + b"1\n-1.0", b"Pf\n1 1\n-1." + b"0" * 62,
     b"P" * 80_000 + b"\n1 1\n-1.0"],
    ids=["magic", "width", "height", "scale", "80kB"],
)
def test_over_long_header_token_is_header_error(tmp_path, header):
    # each header would read as a 1 x 1 map but for one 65-byte token
    path = tmp_path / "long.pfm"
    path.write_bytes(header + b"\n" + struct.pack("<f", 1.0))
    with pytest.raises(PfmHeaderError):
        read_pfm(str(path))


def test_bottom_to_top_row_order(tmp_path):
    values = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    path = tmp_path / "rows.pfm"
    write_pfm(values, str(path))
    raw = path.read_bytes()
    payload = raw.split(b"\n", 3)[3]
    floats = struct.unpack("<4f", payload)
    assert floats == (3.0, 4.0, 1.0, 2.0)  # bottom row first


def write_each_format(tmp_path):
    paths = [tmp_path / "m.pfm", tmp_path / "d.json", tmp_path / "c.ply"]
    write_pfm(np.ones((2, 4)), str(paths[0]))
    write_json({"a": 1}, str(paths[1]))
    write_ply_pointcloud(np.ones((2, 4)), str(paths[2]))
    return paths


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        paths = write_each_format(tmp_path)
    finally:
        os.umask(previous)
    for path in paths:
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_umask_is_read_without_changing_it(tmp_path, monkeypatch):
    previous = os.umask(0o027)

    def umask_called(mask):
        raise AssertionError("os.umask was called during a write")

    try:
        monkeypatch.setattr(os, "umask", umask_called)
        paths = write_each_format(tmp_path)
    finally:
        monkeypatch.undo()
        os.umask(previous)
    for path in paths:
        assert stat.S_IMODE(path.stat().st_mode) == 0o640, path.name


def _parent_pfm_bytes(values):
    """The bytes of the original writer: float32 cast, flip, ``<f4`` cast,
    ``tobytes`` and one concatenation."""
    arr = np.asarray(values, dtype=np.float32)
    h, w = arr.shape
    return f"Pf\n{w} {h}\n-1.0\n".encode("ascii") + np.flipud(arr).astype("<f4").tobytes()


_RNG_VALUES = np.random.default_rng(7).uniform(-1e3, 1e3, size=(12, 24))
_RNG_VALUES[0, :4] = [0.0, -0.0, 1e-40, 3.4e38]  # signed zero, subnormal, near float32 max


@pytest.mark.parametrize(
    "values",
    [
        _RNG_VALUES,
        _RNG_VALUES.astype(np.float32),
        _RNG_VALUES.astype(">f4"),
        _RNG_VALUES.T,
        _RNG_VALUES[1::3, ::-2],
        np.array([[1.5, -2.25]]),
    ],
    ids=["float64", "float32", "big-endian", "transposed", "strided", "1x2"],
)
def test_write_pfm_bytes_match_the_copying_writer(tmp_path, values):
    path = tmp_path / "m.pfm"
    write_pfm(values, str(path))
    assert path.read_bytes() == _parent_pfm_bytes(values)


@pytest.mark.parametrize("shape", [(8,), (2, 4, 1)])
def test_write_pfm_rejects_non_2d(tmp_path, shape):
    with pytest.raises(ValueError, match="2D"):
        write_pfm(np.zeros(shape), str(tmp_path / "m.pfm"))
    assert not (tmp_path / "m.pfm").exists()


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_write_pfm_rejects_finite_values_beyond_float32(tmp_path, value):
    values = np.ones((2, 4))
    values[1, 2] = value
    with pytest.raises(ValueRangeError, match="float32"):
        write_pfm(values, str(tmp_path / "m.pfm"))
    assert os.listdir(tmp_path) == []


def test_write_pfm_keeps_non_finite_values(tmp_path):
    values = np.array([[np.inf, -np.inf, np.nan, 1.0]])
    write_pfm(values, str(tmp_path / "m.pfm"))
    assert (tmp_path / "m.pfm").read_bytes() == _parent_pfm_bytes(values)
