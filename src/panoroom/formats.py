"""File formats: PFM float maps, JSON layouts/rooms/scenes, ASCII PLY, whole scenes.

PFM layout follows the portable-float-map convention: ``Pf`` magic, a
``W H`` dimensions line, a scale line whose sign encodes byte order
(negative = little endian), then H rows of W float32 values ordered
bottom-to-top. Writes go through a temp file + rename so readers never
see a partial file.
"""

from __future__ import annotations

import json
import operator
import os
import queue
import re
import stat
import threading
from contextlib import ExitStack, contextmanager

import numpy as np

from .bgdepth import _row_bands
from .equirect import _MAX_HEIGHT, GridSpec, pixel_center_trig
from .errors import (
    PfmHeaderError,
    PfmMagicError,
    PfmTruncatedError,
    SchemaError,
    ShapeMismatchError,
    ValueRangeError,
)
from .layout import LayoutMap, ManhattanRoom, room_to_layout
from .synth import SceneSpec, render_bands


_O_BINARY = getattr(os, "O_BINARY", 0)

# Replaced files held open at once, at most: each held descriptor keeps a
# replaced file's disk blocks allocated until the closer releases it.
_MAX_HELD = 64


class _Closer:
    """Frees the files that renames replace off the writer's path.

    Where a rename replaces a file that is already on disk, the kernel
    frees that file's blocks inside the rename, and on a filesystem that
    discards freed blocks the writer waits for it: 1.5–1.65 ms for a
    written-back 2 MiB file on ext4 with ``discard``, against ~0.1 ms for
    the rename itself. ``replace`` holds the old file open with ``O_PATH``
    across the rename, so the rename only unlinks it, and one daemon
    thread, started on first use, closes what is held. The rename still
    replaces an existing file, so what it writes and guarantees, and
    ext4's flush of a file renamed over another, are unchanged. At most
    ``_MAX_HELD`` descriptors are held; a rename beyond that waits for one
    to close, and as each writer holds at most one descriptor it has not
    queued, the wait always ends. Without ``O_PATH`` (not Linux) nothing
    is held.
    """

    def __init__(self):
        self._slots = threading.BoundedSemaphore(_MAX_HELD)
        self._held = set()  # every descriptor taken and not yet closed
        self._fds = queue.SimpleQueue()
        self._start = threading.Lock()
        self._thread = None

    def replace(self, src: str, dst: str) -> None:
        """``os.replace(src, dst)``, leaving the old ``dst`` to the closer."""
        fd = self._hold(dst)
        if fd is None:
            os.replace(src, dst)
            return
        try:
            os.replace(src, dst)
        except BaseException:
            self._close(fd)
            raise
        with self._start:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="panoroom-closer", daemon=True
                )
                self._thread.start()
        self._fds.put(fd)

    def _hold(self, path: str):
        """An ``O_PATH`` descriptor of the file at ``path``, or None when
        there is none there or no ``O_PATH``."""
        o_path = getattr(os, "O_PATH", None)
        if o_path is None:
            return None
        self._slots.acquire()
        try:
            fd = os.open(path, o_path | os.O_NOFOLLOW | os.O_CLOEXEC)
        except OSError:  # nothing at the path yet
            self._slots.release()
            return None
        self._held.add(fd)
        return fd

    def _close(self, fd: int) -> None:
        # dropped from _held before the close, so that a child forked in
        # between never closes a number the parent may have reused
        self._held.discard(fd)
        os.close(fd)
        self._slots.release()

    def _run(self) -> None:
        while True:
            self._close(self._fds.get())


_closer = _Closer()


def _closer_after_fork() -> None:
    """In a forked child, close the inherited held descriptors and start
    afresh: the parent's closer thread does not exist there."""
    global _closer
    inherited, _closer = _closer._held, _Closer()
    for fd in inherited:
        os.close(fd)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_closer_after_fork)


@contextmanager
def _atomic_files(paths):
    """Open a temp file beside each of ``paths`` for binary writing.

    When the block completes, each temp file replaces its path, in the
    order of ``paths``, and the file it replaces is freed on the closer
    (``_Closer``); if the block raises, every temp file is removed and each
    path keeps whatever it held before. The temp files are created with
    mode 0666 less the umask, as ``open()`` creates a file.
    """
    tmps = []
    try:
        with ExitStack() as stack:
            files = []
            for path in paths:
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)), os.urandom(8).hex())
                tmp += ".tmp"
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | _O_BINARY, 0o666)
                tmps.append(tmp)
                files.append(stack.enter_context(os.fdopen(fd, "wb")))
            yield files
        for tmp, path in zip(tmps, paths):
            _closer.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


# Payload bytes converted and written per step and file: 64 rows at
# W = 1024. Writing a 2 MiB map in 16-row pieces cost ~0.7 ms more than
# one write; 64 to 128 rows were within noise of one write (2-CPU x86).
PFM_CHUNK_BYTES = 1 << 18


def _write_pfms(files, shape, bands) -> None:
    """Write maps of ``shape`` (H, W) as little-endian grayscale PFMs onto
    ``files``, binary files open at offset 0 (from ``_atomic_files``), from
    ``bands``: ``(rows, arrays)`` pairs, one array per file holding the
    map's rows ``rows``, in row order from the top.

    PFM rows run bottom to top, so rows are gathered into fixed chunks of
    ~``PFM_CHUNK_BYTES``, converted to float32 there in file order, and each
    full chunk is written at its place in the payload. A finite value
    beyond the float32 range is ``ValueRangeError``; inf and NaN are kept.
    """
    h, w = shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    step = max(1, PFM_CHUNK_BYTES // max(1, 4 * w))
    chunk = np.empty((len(files), min(step, h), w), dtype="<f4")
    for f in files:
        f.write(header)
    done = 0  # rows converted so far
    for rows, arrays in bands:
        while done < rows.stop:
            # the chunk of rows [c0, c1) holds them bottom-up, as the file
            c0 = done - done % step
            c1 = min(c0 + step, h)
            r1 = min(rows.stop, c1)
            try:
                with np.errstate(over="raise"):
                    for out, arr in zip(chunk, arrays):
                        piece = arr[done - rows.start : r1 - rows.start]
                        np.copyto(out[c1 - r1 : c1 - done], piece[::-1])
            except FloatingPointError:
                raise ValueRangeError("value beyond the float32 range of a PFM") from None
            done = r1
            if done == c1:
                for f, out in zip(files, chunk):
                    f.seek(len(header) + (h - c1) * w * 4)
                    f.write(out[: c1 - c0])


def _map_2d(values, writer: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{writer} writer expects a 2D map, got {arr.ndim} dimensions")
    if 0 in arr.shape:
        raise ValueRangeError(f"{writer} writer expects a nonempty map, got shape {arr.shape}")
    return arr


def write_pfm(values: np.ndarray, path: str) -> None:
    """Write an H x W map as a little-endian grayscale PFM."""
    arr = _map_2d(values, "PFM")
    with _atomic_files([path]) as files:
        _write_pfms(files, arr.shape, [(slice(0, arr.shape[0]), (arr,))])


# far above any legitimate magic, dimension or scale token
_MAX_TOKEN = 64
# The header is read as one block of this many bytes: the four longest
# tokens (the magic is two bytes) with their whitespace take 198.
_MAX_HEADER = 256
_HEADER_TOKEN = re.compile(rb"[ \t\r\n]*([^ \t\r\n]*)")


def _header_field(block: bytes, pos: int, parse):
    """``parse`` of the PFM header token after offset ``pos`` of ``block``,
    and the offset past the one whitespace byte that ends the token."""
    m = _HEADER_TOKEN.match(block, pos)
    tok = m.group(1)
    if len(tok) > _MAX_TOKEN:
        raise PfmHeaderError(f"PFM header token longer than {_MAX_TOKEN} bytes")
    if m.end() == len(block):
        if len(block) < _MAX_HEADER:
            raise PfmHeaderError("unexpected end of file in PFM header")
        raise PfmHeaderError(f"PFM header longer than {_MAX_HEADER} bytes")
    return parse(tok), m.end() + 1


def read_pfm(path: str) -> np.ndarray:
    """Read a grayscale PFM into an H x W float32 array (top-to-bottom rows)."""
    with open(path, "rb") as f:
        block = f.read(_MAX_HEADER)
        magic, pos = _header_field(block, 0, bytes)
        if magic != b"Pf":
            raise PfmMagicError(f"not a grayscale PFM (magic {magic!r})")
        try:
            w, pos = _header_field(block, pos, int)
            h, pos = _header_field(block, pos, int)
            scale, pos = _header_field(block, pos, float)
        except ValueError as e:
            raise PfmHeaderError(f"malformed PFM header: {e}") from e
        if w <= 0 or h <= 0 or scale == 0 or not np.isfinite(scale):
            raise PfmHeaderError(f"invalid PFM dimensions/scale: {w} {h} {scale}")
        dtype = "<f4" if scale < 0 else ">f4"
        size = w * h * 4
        # check a regular file's length first, so a huge header on a small
        # file is not answered with an allocation of the declared size
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - pos < size:
            available = st.st_size - pos
            raise PfmTruncatedError(
                f"PFM payload truncated: expected {size} bytes, got {available}"
            )
        # a stream has no length to check: refuse what no grid can hold
        # before allocating it
        if w > 2 * _MAX_HEIGHT or h > _MAX_HEIGHT:
            raise PfmHeaderError(
                f"PFM dimensions {w} x {h} exceed the largest grid, {2 * _MAX_HEIGHT} x {_MAX_HEIGHT}"
            )
        # the payload's first bytes came with the header block
        payload = np.empty(size, dtype=np.uint8)
        head = block[pos : pos + size]
        payload[: len(head)] = np.frombuffer(head, dtype=np.uint8)
        got = len(head) + f.readinto(payload[len(head) :])
        if got != size:
            raise PfmTruncatedError(f"PFM payload truncated: expected {size} bytes, got {got}")
    data = payload.view(dtype).reshape(h, w)
    return np.flipud(data).astype(np.float32)


# --- JSON formats -----------------------------------------------------------


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str as it is, a number,
    bool or None as its JSON text, then quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _json_text(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value nested ``indent`` deep.

    ``indent`` set, ``json`` runs its pure-Python encoder. Here lists and
    dicts recurse and every other value is ``json.dumps`` of it alone,
    which takes the C encoder. A flat list of finite floats is one join of
    ``float.__repr__``, the text ``json`` writes for each.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            body = None
        # nan and inf are the only float reprs with an "n"; json writes
        # them as NaN and Infinity
        if body is None or "n" in body:
            body = sep.join(_json_text(v, inner) for v in obj)
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(obj)


def _json_bytes(obj) -> bytes:
    """``json.dumps(obj, indent=2)`` and a newline, as the file's bytes."""
    return (_json_text(obj, "") + "\n").encode("ascii")


def write_json(obj, path: str) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2)`` and a newline."""
    with _atomic_files([path]) as (f,):
        f.write(_json_bytes(obj))


def layout_to_dict(layout: LayoutMap, grid: GridSpec) -> dict:
    layout.validate_against(grid)
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


def _number(d, key: str):
    v = _value(d, key)
    if not _is_number(type(v)):
        raise SchemaError(f"{key!r} must be a number, got {type(v).__name__}")
    return v


def _array(d, key: str, shape: tuple) -> np.ndarray:
    """``d[key]`` as an object array whose shape matches ``shape`` (``None``
    matches any length) and whose every element passes ``_number``'s rule;
    the value type that takes it converts it to floats."""
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
    return arr


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
        "cam_to_floor": room.cam_to_floor,
        "cam_to_ceil": room.cam_to_ceil,
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
    d["seed"] = scene.seed
    return d


# a scene's files, in the order they are written and renamed
_SCENE_FILES = ("gt.pfm", "bg_gt.pfm", "segmask.pfm", "layout.json", "scene.json")


def write_scene(scene: SceneSpec, grid: GridSpec, scene_dir: str) -> None:
    """Write ``scene`` at ``grid`` into ``scene_dir``, created if missing, as
    one ``_atomic_files`` set of ``_SCENE_FILES``: the three maps of one
    ``render_bands`` pass, then the layout and the scene as JSON."""
    layout = room_to_layout(scene.room, grid)
    os.makedirs(scene_dir, exist_ok=True)
    paths = [os.path.join(scene_dir, n) for n in _SCENE_FILES]
    with _atomic_files(paths) as (*pfm_files, layout_file, scene_file):
        bands = ((rows, maps) for rows, *maps in render_bands(scene, grid))
        _write_pfms(pfm_files, grid.shape, bands)
        layout_file.write(_json_bytes(layout_to_dict(layout, grid)))
        scene_file.write(_json_bytes(scene_to_dict(scene)))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        # ValueError covers a decode error, bad UTF-8 and an integer past Python's
        # digit limit; the decoder raises RecursionError on arrays nested too deeply
        except (ValueError, RecursionError) as e:
            raise SchemaError(f"not a JSON document: {e}") from None


# --- PLY --------------------------------------------------------------------

# Points formatted and written per step. It bounds the writer's working
# memory whatever the size of the cloud; a chunk's largest temporary, its
# word indices, takes 288 KiB. With the word table, chunks of 2048 to 8192
# points wrote a 512x256 map within noise of each other, and 16384-point
# chunks ~10% slower (2-CPU x86 host).
PLY_CHUNK_POINTS = 4096


def _digit_words() -> np.ndarray:
    """The 4-byte pieces of a formatted value, as one uint32 table. For n
    below 1000, entry n holds n's digits right-aligned behind NUL bytes,
    1000 + n the same behind a "-", 2000 + n "." and n as three digits, and
    3000 + n n as three digits and " "."""
    words = (
        [str(n).rjust(4, "\0") for n in range(1000)]
        + [f"-{n}".rjust(4, "\0") for n in range(1000)]
        + [f".{n:03d}" for n in range(1000)]
        + [f"{n:03d} " for n in range(1000)]
    )
    return np.frombuffer("".join(words).encode("ascii"), dtype=np.uint32)


_WORDS = _digit_words()


def _format_points(pts: np.ndarray) -> bytes:
    r"""The bytes of ``f"{x:.6f} {y:.6f} {z:.6f}\n"`` for each row of ``pts``.

    ``rint(|v| * 1e6)`` is the correctly rounded 6-decimal value of ``v``
    unless the scaled value lands exactly on ``k + 0.5``: the product's own
    rounding can put it there from either side (``2.5e-6`` prints as
    ``0.000003``), and there ``rint`` rounds half to even. When ``pts``
    holds such a value, a non-finite one, or one that rounds to 1000 or more
    (four integer digits), all of it goes through the f-string.

    Each value is three words of ``_WORDS``: its sign and integer digits,
    then "." and the first three fraction digits, then the last three and
    the separator. Deleting the NUL bytes that pad the first word leaves
    the text.
    """
    with np.errstate(over="ignore"):  # overflow gives inf, which fails the range test
        scaled = np.abs(pts) * 1e6
    rounded = np.rint(scaled)
    # a nan makes the max nan, which fails the range test as well
    if not (rounded.max() < 1e9 and np.abs(rounded - scaled).max() != 0.5):
        return "".join(f"{x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in pts).encode("ascii")

    # below 2e9 with the sign added (signbit keeps "-0.000000"), so uint32
    # holds it; floor division by a scalar is vectorised, % is not
    r = rounded.astype(np.uint32)
    r += np.signbit(pts) * np.uint32(1_000_000_000)
    thousands = r // 1000
    whole = thousands // 1000  # the integer part, plus 1000 if negative
    idx = np.empty(pts.shape + (3,), dtype=np.intp)
    idx[..., 0] = whole
    np.subtract(thousands, whole * 1000, out=idx[..., 1])
    np.subtract(r, thousands * 1000, out=idx[..., 2])
    idx[..., 1] += 2000
    idx[..., 2] += 3000
    words = np.take(_WORDS, idx)
    words.view(np.uint8)[:, 2, -1] = ord("\n")  # the separator after z
    return words.tobytes().translate(None, b"\0")


def _unproject_bands(depth_values: np.ndarray, grid: GridSpec):
    """The (N, 3) points of each row band's valid pixels (depth > 0) in
    row-major order: the pixel-centre direction times the depth, with the
    products rounded in the same order as the tests' ``pixel_center_dirs``."""
    cos_lat, sin_lat, cos_lon, sin_lon = pixel_center_trig(grid)
    for rows in _row_bands(grid):
        d = depth_values[rows]
        valid = d > 0
        n = np.count_nonzero(valid)
        # a band with no invalid pixel, as every band of a denoised map, is
        # taken whole without the boolean gathers
        pick = np.ravel if n == valid.size else operator.itemgetter(valid)
        d = pick(d)
        pts = np.empty((n, 3))
        np.multiply(pick(cos_lat[rows] * cos_lon), d, out=pts[:, 0])
        np.multiply(pick(cos_lat[rows] * sin_lon), d, out=pts[:, 1])
        np.multiply(pick(np.broadcast_to(sin_lat[rows], valid.shape)), d, out=pts[:, 2])
        yield pts


def write_ply_pointcloud(depth_values: np.ndarray, path: str) -> None:
    """Unproject the valid pixels (depth > 0) of an H x 2H equirectangular
    depth map to 3D and write an ASCII PLY point cloud."""
    depth_values = _map_2d(depth_values, "PLY")
    grid = GridSpec(width=depth_values.shape[1], height=depth_values.shape[0])
    header = (
        f"ply\nformat ascii 1.0\nelement vertex {np.count_nonzero(depth_values > 0)}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    ).encode("ascii")
    with _atomic_files([path]) as (f,):
        f.write(header)
        for pts in _unproject_bands(depth_values, grid):
            for i in range(0, len(pts), PLY_CHUNK_POINTS):
                f.write(_format_points(pts[i : i + PLY_CHUNK_POINTS]))
