"""File formats: PFM float maps, JSON layouts/rooms/scenes, ASCII PLY.

PFM layout follows the portable-float-map convention: ``Pf`` magic, a
``W H`` dimensions line, a scale line whose sign encodes byte order
(negative = little endian), then H rows of W float32 values ordered
bottom-to-top. Writes go through a temp file + rename so readers never
see a partial file.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .equirect import GridSpec, pixel_center_dirs
from .errors import PfmHeaderError, PfmMagicError, PfmTruncatedError
from .layout import LayoutMap, ManhattanRoom
from .synth import SceneSpec


def _current_umask() -> int:
    """The process umask; os.umask reads it only by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        os.fchmod(fd, 0o666 & ~_current_umask())
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pfm(values: np.ndarray, path: str) -> None:
    """Write an H x W map as a little-endian grayscale PFM."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError("PFM writer expects a 2D map")
    h, w = arr.shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    payload = np.flipud(arr).astype("<f4").tobytes()
    _atomic_write_bytes(path, header + payload)


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
        payload = f.read(w * h * 4)
        if len(payload) != w * h * 4:
            raise PfmTruncatedError(
                f"PFM payload truncated: expected {w * h * 4} bytes, got {len(payload)}"
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
        "ceil": [float(v) for v in layout.ceil_rows],
        "floor": [float(v) for v in layout.floor_rows],
        "corner_prob": [float(v) for v in layout.corner_prob],
    }


def layout_from_dict(d: dict) -> tuple[LayoutMap, GridSpec]:
    grid = GridSpec(width=int(d["width"]), height=int(d["height"]))
    layout = LayoutMap(
        ceil_rows=np.array(d["ceil"], dtype=np.float64),
        floor_rows=np.array(d["floor"], dtype=np.float64),
        corner_prob=np.array(d["corner_prob"], dtype=np.float64),
    )
    layout.validate_against(grid)
    return layout, grid


def room_to_dict(room: ManhattanRoom) -> dict:
    return {
        "vertices": [[float(x), float(y)] for x, y in room.vertices],
        "cam_to_floor": float(room.cam_to_floor),
        "cam_to_ceil": float(room.cam_to_ceil),
    }


def room_from_dict(d: dict) -> ManhattanRoom:
    return ManhattanRoom(
        vertices=np.array(d["vertices"], dtype=np.float64),
        cam_to_floor=float(d["cam_to_floor"]),
        cam_to_ceil=float(d["cam_to_ceil"]),
    )


def scene_to_dict(scene: SceneSpec) -> dict:
    d = room_to_dict(scene.room)
    d["boxes"] = [
        {"min": [float(v) for v in b[:3]], "max": [float(v) for v in b[3:]]}
        for b in scene.boxes
    ]
    d["seed"] = int(scene.seed)
    return d


def scene_from_dict(d: dict) -> SceneSpec:
    room = room_from_dict(d)
    boxes = np.array(
        [[*b["min"], *b["max"]] for b in d.get("boxes", [])], dtype=np.float64
    ).reshape(-1, 6)
    return SceneSpec(room=room, boxes=boxes, seed=int(d.get("seed", 0)))


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# --- PLY --------------------------------------------------------------------


def write_ply_pointcloud(depth_values: np.ndarray, grid: GridSpec, path: str) -> None:
    """Unproject valid pixels to 3D and write an ASCII PLY point cloud."""
    dirs = pixel_center_dirs(grid)
    valid = depth_values > 0
    pts = depth_values[valid][:, None] * dirs[valid]
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    body = "\n".join(lines) + "\n"
    body += "".join(f"{x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in pts)
    _atomic_write_bytes(path, body.encode("ascii"))
