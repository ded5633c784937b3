"""File formats: PFM float maps, JSON layouts/rooms/scenes, ASCII PLY.

PFM layout follows the portable-float-map convention: ``Pf`` magic, a
``W H`` dimensions line, a scale line whose sign encodes byte order
(negative = little endian), then H rows of W float32 values ordered
bottom-to-top. Writes go through a temp file + rename so readers never
see a partial file.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import tempfile
from collections.abc import Iterable

import numpy as np

from .bgdepth import _row_bands
from .equirect import GridSpec, pixel_center_trig
from .errors import (
    PfmHeaderError,
    PfmMagicError,
    PfmTruncatedError,
    SchemaError,
    ShapeMismatchError,
    ValueRangeError,
)
from .layout import LayoutMap, ManhattanRoom
from .synth import SceneSpec


# Linux reports the umask here; reading it leaves the process umask alone
_PROC_STATUS = "/proc/self/status"


def _current_umask() -> int:
    """The process umask.

    Read from the ``Umask:`` line of ``_PROC_STATUS`` where there is one.
    Elsewhere it falls back to ``os.umask``, which reads the umask only by
    setting it, leaving a window in which a file another thread creates
    gets mode 0666.
    """
    try:
        with open(_PROC_STATUS, "rb") as f:
            for line in f:
                if line.startswith(b"Umask:"):
                    return int(line.split()[1], 8)
    except OSError:
        pass
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str, chunks: Iterable) -> None:
    """Write the concatenated ``chunks`` (bytes-like, e.g. C-contiguous
    arrays) to ``path`` via a temp file + rename.

    If writing or producing a chunk fails, the temp file is removed and
    ``path`` keeps whatever it held before.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        os.fchmod(fd, 0o666 & ~_current_umask())
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    _atomic_write(path, (payload,))


def write_pfm(values: np.ndarray, path: str) -> None:
    """Write an H x W map as a little-endian grayscale PFM."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"PFM writer expects a 2D map, got {arr.ndim} dimensions")
    h, w = arr.shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    # the only copy; order="C" because a transposed input would convert to
    # Fortran order, whose buffer the file write rejects. A finite value
    # beyond the float32 range overflows; inf and NaN cast as they are.
    try:
        with np.errstate(over="raise"):
            payload = np.flipud(arr).astype("<f4", order="C")
    except FloatingPointError:
        raise ValueRangeError("value beyond the float32 range of a PFM") from None
    _atomic_write(path, (header, payload))


def _read_token(f) -> bytes:
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise PfmHeaderError("unexpected end of file in PFM header")
        if c in b" \t\r\n":
            if tok:
                return tok
            continue
        tok += c


def read_pfm(path: str) -> np.ndarray:
    """Read a grayscale PFM into an H x W float32 array (top-to-bottom rows)."""
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic != b"Pf":
            raise PfmMagicError(f"not a grayscale PFM (magic {magic!r})")
        try:
            w = int(_read_token(f))
            h = int(_read_token(f))
            scale = float(_read_token(f))
        except ValueError as e:
            raise PfmHeaderError(f"malformed PFM header: {e}") from e
        if w <= 0 or h <= 0 or scale == 0:
            raise PfmHeaderError(f"invalid PFM dimensions/scale: {w} {h} {scale}")
        dtype = "<f4" if scale < 0 else ">f4"
        size = w * h * 4
        # check a regular file's length first, so a huge header on a small
        # file is not answered with an allocation of the declared size
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - f.tell() < size:
            available = st.st_size - f.tell()
            raise PfmTruncatedError(
                f"PFM payload truncated: expected {size} bytes, got {available}"
            )
        payload = f.read(size)
        if len(payload) != size:
            raise PfmTruncatedError(
                f"PFM payload truncated: expected {size} bytes, got {len(payload)}"
            )
    data = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    return np.flipud(data).astype(np.float32)


# --- JSON formats -----------------------------------------------------------


def write_json(obj, path: str) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("ascii"))


def layout_to_dict(layout: LayoutMap, grid: GridSpec) -> dict:
    return {
        "width": grid.width,
        "height": grid.height,
        "ceil": layout.ceil_rows.tolist(),
        "floor": layout.floor_rows.tolist(),
        "corner_prob": layout.corner_prob.tolist(),
    }


def _value(d, key: str):
    if not isinstance(d, dict):
        raise SchemaError(f"expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise SchemaError(f"missing key {key!r}")
    return d[key]


def _integer(d, key: str) -> int:
    v = _value(d, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{key!r} must be an integer, got {type(v).__name__}")
    return v


def _is_number(t: type) -> bool:
    """Whether JSON values of type ``t`` are numbers (a bool is not)."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _number(d, key: str) -> float:
    v = _value(d, key)
    if not _is_number(type(v)):
        raise SchemaError(f"{key!r} must be a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        raise ValueRangeError(f"{key!r} is too large for a float") from None


def _array(d, key: str, shape: tuple) -> np.ndarray:
    """``d[key]`` as a float64 array whose shape matches ``shape`` (``None``
    matches any length) and whose every element passes ``_number``'s rule."""
    # an object array keeps each JSON value as it is; ragged nesting leaves lists
    arr = np.array(_value(d, key), dtype=object)
    if arr.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        want = " x ".join("N" if n is None else str(n) for n in shape)
        raise SchemaError(f"{key!r} must be a {want} array, got shape {arr.shape}")
    kinds = set(map(type, arr.flat))
    if list in kinds:
        raise SchemaError(f"{key!r} is a ragged array")
    if not all(map(_is_number, kinds)):
        raise SchemaError(f"{key!r} must hold only numbers")
    try:
        return arr.astype(np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueRangeError(f"{key!r} holds a number too large for a float") from None


def layout_from_dict(d: dict) -> tuple[LayoutMap, GridSpec]:
    grid = GridSpec(width=_integer(d, "width"), height=_integer(d, "height"))
    layout = LayoutMap(
        ceil_rows=_array(d, "ceil", (grid.width,)),
        floor_rows=_array(d, "floor", (grid.width,)),
        corner_prob=_array(d, "corner_prob", (grid.width,)),
    )
    layout.validate_against(grid)
    return layout, grid


def room_to_dict(room: ManhattanRoom) -> dict:
    return {
        "vertices": room.vertices.tolist(),
        "cam_to_floor": float(room.cam_to_floor),
        "cam_to_ceil": float(room.cam_to_ceil),
    }


def room_from_dict(d: dict) -> ManhattanRoom:
    return ManhattanRoom(
        vertices=_array(d, "vertices", (None, 2)),
        cam_to_floor=_number(d, "cam_to_floor"),
        cam_to_ceil=_number(d, "cam_to_ceil"),
    )


def scene_to_dict(scene: SceneSpec) -> dict:
    d = room_to_dict(scene.room)
    d["boxes"] = [{"min": b[:3], "max": b[3:]} for b in scene.boxes.tolist()]
    d["seed"] = int(scene.seed)
    return d


def scene_from_dict(d: dict) -> SceneSpec:
    room = room_from_dict(d)
    boxes = d.get("boxes", [])
    if not isinstance(boxes, list):
        raise SchemaError(f"'boxes' must be a list, got {type(boxes).__name__}")
    boxes = np.array(
        [[*_array(b, "min", (3,)), *_array(b, "max", (3,))] for b in boxes], dtype=np.float64
    ).reshape(-1, 6)
    seed = _integer(d, "seed") if "seed" in d else 0
    return SceneSpec(room=room, boxes=boxes, seed=seed)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        # the decoder raises RecursionError on arrays nested too deeply
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise SchemaError(f"not a JSON document: {e}") from None


# --- PLY --------------------------------------------------------------------

# Points formatted and written per step. It bounds the writer's working
# memory whatever the size of the cloud. Chunks this small also keep each
# float64 temporary under 100 KiB; the formatter measured ~1.4x faster per
# point than with 16384-point chunks (124k-point cloud, 2-CPU x86 host).
PLY_CHUNK_POINTS = 4096

# ASCII tens and units digits of 0..99
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_TENS = np.repeat(_DIGITS, 10)
_UNITS = np.tile(_DIGITS, 10)


def _put_digits(dst: np.ndarray, values: np.ndarray, count: int) -> None:
    """Write ``values`` (non-negative ints below 10**count) as ``count``
    zero-padded decimal digits into ``dst[..., :count]``.

    Digits go in two at a time, one byte column per assignment: a column is
    a single strided loop, where a two-byte slice costs a loop per value.
    """
    for stop in range(count, 0, -2):
        values, pair = np.divmod(values, 100)
        dst[..., stop - 1] = np.take(_UNITS, pair)
        if stop >= 2:
            dst[..., stop - 2] = np.take(_TENS, pair)


def _format_points(pts: np.ndarray) -> bytes:
    r"""The bytes of ``f"{x:.6f} {y:.6f} {z:.6f}\n"`` for each row of ``pts``.

    ``rint(|v| * 1e6)`` is the correctly rounded 6-decimal value of ``v``
    unless the scaled value lands exactly on ``k + 0.5``: the product's own
    rounding can put it there from either side (``2.5e-6`` prints as
    ``0.000003``), and there ``rint`` rounds half to even. When ``pts``
    holds such a value, a non-finite one, or one of 1e9 or more (whose
    digits would not fit uint32), all of it goes through the f-string.
    """
    with np.errstate(over="ignore"):  # overflow gives inf, which fails the test below
        scaled = np.abs(pts) * 1e6
    exact = bool(np.all(scaled < 1e15))  # false for inf and nan as well
    if exact:
        rounded = np.rint(scaled)
        exact = not np.any(np.abs(rounded - scaled) == 0.5)
    if not exact:
        return "".join(f"{x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in pts).encode("ascii")

    # the exact quotient is an integer or at least 1e-6 below the next one,
    # and below 1e9 its rounding error is under 1e-7: trunc is exact
    whole = np.trunc(rounded / 1e6)
    frac = (rounded - whole * 1e6).astype(np.uint32)
    whole = whole.astype(np.uint32)
    ndig = len(str(int(whole.max())))
    # one fixed-width field per value: sign, ndig integer digits, ".",
    # six fraction digits, then " " or "\n"
    field = np.empty(pts.shape + (ndig + 9,), dtype=np.uint8)
    field[..., 0] = ord("-")
    _put_digits(field[..., 1:], whole, ndig)
    field[..., ndig + 1] = ord(".")
    _put_digits(field[..., ndig + 2 :], frac, 6)
    field[:, :2, -1] = ord(" ")
    field[:, 2, -1] = ord("\n")
    # drop the sign of non-negative values (signbit keeps "-0.000000") and
    # the leading zeros of the integer part
    keep = np.ones(field.shape, dtype=bool)
    keep[..., 0] = np.signbit(pts)
    keep[..., 1:ndig] = whole[..., None] >= 10 ** np.arange(ndig - 1, 0, -1, dtype=np.uint32)
    return field[keep].tobytes()


def _unproject_bands(depth_values: np.ndarray, grid: GridSpec):
    """The (N, 3) points of each row band's valid pixels (depth > 0) in
    row-major order: the pixel-centre direction times the depth, with the
    products rounded in the same order as the tests' ``pixel_center_dirs``."""
    cos_lat, sin_lat, cos_lon, sin_lon = pixel_center_trig(grid)
    for rows in _row_bands(grid):
        d = depth_values[rows]
        valid = d > 0
        pts = np.empty((np.count_nonzero(valid), 3))
        pts[:, 0] = (cos_lat[rows] * cos_lon)[valid]
        pts[:, 1] = (cos_lat[rows] * sin_lon)[valid]
        pts[:, 2] = np.broadcast_to(sin_lat[rows], d.shape)[valid]
        pts *= d[valid][:, None]
        yield pts


def write_ply_pointcloud(depth_values: np.ndarray, grid: GridSpec, path: str) -> None:
    """Unproject valid pixels to 3D and write an ASCII PLY point cloud."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {np.count_nonzero(depth_values > 0)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    header = ("\n".join(lines) + "\n").encode("ascii")
    body = (
        _format_points(pts[i : i + PLY_CHUNK_POINTS])
        for pts in _unproject_bands(depth_values, grid)
        for i in range(0, len(pts), PLY_CHUNK_POINTS)
    )
    _atomic_write(path, itertools.chain((header,), body))
