import os
import stat
import struct

import numpy as np
import pytest

from panoroom import formats
from panoroom.equirect import GridSpec
from panoroom.errors import (
    PfmHeaderError,
    PfmMagicError,
    PfmTruncatedError,
    SchemaError,
    ValueRangeError,
)
from panoroom.formats import (
    read_pfm,
    scene_from_dict,
    scene_to_dict,
    write_json,
    write_ply_pointcloud,
    write_pfm,
)
from panoroom.synth import SceneConfig, generate_scene


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
    write_ply_pointcloud(np.ones((2, 4)), GridSpec(width=4, height=2), str(paths[2]))
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
    with open(formats._PROC_STATUS, "rb") as f:
        if not any(line.startswith(b"Umask:") for line in f):
            pytest.skip("the process status reports no umask here")
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


def test_umask_falls_back_without_the_status_line(tmp_path, monkeypatch):
    status = tmp_path / "status"
    status.write_bytes(b"Name:\tpython\nPid:\t1\n")
    monkeypatch.setattr(formats, "_PROC_STATUS", str(status))
    previous = os.umask(0o077)
    try:
        paths = write_each_format(tmp_path)
        monkeypatch.setattr(formats, "_PROC_STATUS", str(tmp_path / "missing"))
        paths += write_each_format(tmp_path)
        assert os.umask(0o077) == 0o077  # restored after each read
    finally:
        os.umask(previous)
    for path in paths:
        assert stat.S_IMODE(path.stat().st_mode) == 0o600, path.name


def scene_doc():
    return scene_to_dict(generate_scene(4, SceneConfig(box_count_range=(2, 2))))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("cam_to_ceil"),
        lambda d: d.update(seed="4"),
        lambda d: d.update(boxes={"min": [0, 0, 0]}),
        lambda d: d["boxes"][0].pop("max"),
        lambda d: d["boxes"][1].update(min=[0.0, 1.0]),
        lambda d: d["boxes"].append([0, 0, 0, 1, 1, 1]),
    ],
    ids=["missing-height", "seed-str", "boxes-object", "box-missing-max", "box-short",
         "box-list"],
)
def test_scene_schema_errors(edit):
    doc = scene_doc()
    assert scene_from_dict(doc).boxes.shape == (2, 6)
    edit(doc)
    with pytest.raises(SchemaError):
        scene_from_dict(doc)


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
