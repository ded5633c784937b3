"""Output checks that any correct implementation passes.

Each check returns a list of problems (empty when the output is correct).
The file readers, the closed-form background and the empty-room ray-cast
below are written independently of panoroom, so a defect in the program's
own readers, depth formulas or ray-caster cannot hide itself.
"""

from __future__ import annotations

import json

import numpy as np

BG_RMSE_TOL = 1e-4  # m, acceptance criterion 1
MASK_EPS = 1e-6  # m, agreement threshold of the oracle background mask
ROUND_TRIP_TOL = 1e-9  # rows
EVAL_REL_TOL = 1e-8  # eval JSON stores 9 significant digits


def read_pfm(path) -> np.ndarray:
    """Grayscale PFM as float64, rows top to bottom."""
    with open(path, "rb") as f:
        data = f.read()
    magic, dims, scale, payload = data.split(b"\n", 3)
    if magic != b"Pf":
        raise ValueError(f"{path}: not a grayscale PFM")
    w, h = (int(v) for v in dims.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    values = np.frombuffer(payload, dtype=dtype, count=w * h).reshape(h, w)
    return np.flipud(values).astype(np.float64)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def analytic_background(ceil_rows, floor_rows, up, down, height) -> np.ndarray:
    """Closed-form room-shell depth: ceiling up/sin(lat), floor down/sin(-lat),
    wall r/cos(lat) with horizontal range r = down/tan(floor boundary angle)."""
    ceil_rows = np.asarray(ceil_rows, dtype=np.float64)
    floor_rows = np.asarray(floor_rows, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)[:, None] + 0.5
    lat = (0.5 - rows / height) * np.pi
    wall_range = down / np.tan((floor_rows / height - 0.5) * np.pi)
    with np.errstate(divide="ignore"):
        ceiling = up / np.sin(lat)
        floor = down / np.sin(-lat)
    wall = wall_range[None, :] / np.cos(lat)
    return np.where(rows < ceil_rows, ceiling, np.where(rows > floor_rows, floor, wall))


def shell_depth(vertices, up: float, down: float, height: int) -> np.ndarray:
    """Ray-cast of the empty room: distance to the first wall, floor or ceiling
    hit from the camera at the origin, at every pixel centre."""
    a = np.asarray(vertices, dtype=np.float64)
    e = np.roll(a, -1, axis=0) - a
    lon = (np.arange(2 * height) + 0.5) / (2 * height) * 2.0 * np.pi - np.pi
    d = np.stack([np.cos(lon), np.sin(lon)], axis=1)
    # Horizontal ray t*d meets edge a + u*e where t = (a x e)/(d x e), u = (a x d)/(d x e).
    den = d[:, None, 0] * e[None, :, 1] - d[:, None, 1] * e[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0])[None, :] / den
        u = (a[None, :, 0] * d[:, None, 1] - a[None, :, 1] * d[:, None, 0]) / den
    wall_range = np.min(np.where((t > 0) & (u >= 0) & (u <= 1), t, np.inf), axis=1)
    lat = (0.5 - (np.arange(height) + 0.5) / height)[:, None] * np.pi
    plane = np.where(lat > 0, up, down) / np.abs(np.sin(lat))
    return np.minimum(wall_range[None, :] / np.cos(lat), plane)


def rmse(a, b) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def check_background(layout: dict, up: float, down: float, bg_gt: np.ndarray) -> list[str]:
    """The background render matches the closed form from the layout and the
    true heights (float32 files keep the error near 1e-7 m)."""
    expected = analytic_background(layout["ceil"], layout["floor"], up, down, layout["height"])
    if expected.shape != bg_gt.shape:
        return [f"background shape {bg_gt.shape} != layout grid {expected.shape}"]
    err = rmse(expected, bg_gt)
    if not err <= BG_RMSE_TOL:
        return [f"background RMSE {err:.3g} m exceeds {BG_RMSE_TOL:g} m"]
    return []


def check_shell(bg_gt: np.ndarray, expected: np.ndarray) -> list[str]:
    """The background render matches an independent ray-cast of the true room."""
    if expected.shape != bg_gt.shape:
        return [f"background shape {bg_gt.shape} != {expected.shape}"]
    err = rmse(expected, bg_gt)
    if not err <= BG_RMSE_TOL:
        return [f"background differs from the true room's shell: RMSE {err:.3g} m"]
    return []


def check_occlusion(gt: np.ndarray, bg_gt: np.ndarray) -> list[str]:
    """Boxes only occlude: the full render is never farther than the room."""
    farther = int(np.count_nonzero(gt > bg_gt))
    return [f"{farther} pixels of gt lie beyond the empty-room render"] if farther else []


def check_segmask(mask: np.ndarray, gt: np.ndarray, bg_gt: np.ndarray) -> list[str]:
    """The mask is 1 exactly where |gt - bg_gt| <= 1e-6 m.

    The maps come from float32 files, so a pixel whose difference lies
    within float32 rounding of the threshold may go either way.
    """
    if not np.all((mask == 0.0) | (mask == 1.0)):
        return ["segmask holds values other than 0 and 1"]
    diff = np.abs(gt - bg_gt)
    expected = diff <= MASK_EPS
    ulp = np.spacing(np.maximum(gt, bg_gt).astype(np.float32)).astype(np.float64)
    ambiguous = np.abs(diff - MASK_EPS) <= 2.0 * ulp
    wrong = int(np.count_nonzero((mask.astype(bool) != expected) & ~ambiguous))
    return [f"segmask disagrees with |gt - bg| <= {MASK_EPS:g} at {wrong} pixels"] if wrong else []


def check_floor_round_trip(floor_in, floor_out) -> list[str]:
    """room_to_layout(layout_to_room(L, h)) reproduces L's floor rows."""
    err = float(np.max(np.abs(np.asarray(floor_out) - np.asarray(floor_in))))
    if not err <= ROUND_TRIP_TOL:
        return [f"floor rows move by {err:.3g} rows through layout_to_room/room_to_layout"]
    return []


def check_denoised(denoised, coarse, background) -> list[str]:
    """Every denoised pixel is the coarse or the background value, and every
    missing (zero) coarse pixel takes the background value."""
    problems = []
    other = np.count_nonzero((denoised != coarse) & (denoised != background))
    if other:
        problems.append(f"{other} denoised pixels are neither coarse nor background")
    missing = coarse == 0.0
    kept = np.count_nonzero(denoised[missing] != background[missing])
    if kept:
        problems.append(f"{kept} missing pixels were not replaced by the background")
    return problems


def check_rmse(reported: float, pred, gt) -> list[str]:
    """A reported RMSE equals the RMSE over pixels with valid ground truth."""
    valid = gt > 0
    expected = rmse(pred[valid], gt[valid])
    if not abs(reported - expected) <= EVAL_REL_TOL * max(expected, 1e-12):
        return [f"reported RMSE {reported!r} != {expected!r}"]
    return []


def check_ply(path, depth: np.ndarray) -> list[str]:
    """The PLY declares and holds one vertex per valid depth pixel."""
    with open(path, "rb") as f:
        data = f.read()
    header, sep, body = data.partition(b"end_header\n")
    if not sep:
        return ["PLY has no end_header line"]
    declared = [
        int(line.split()[2])
        for line in header.split(b"\n")
        if line.startswith(b"element vertex ")
    ]
    valid = int(np.count_nonzero(depth > 0))
    lines = body.count(b"\n")
    if declared != [valid] or lines != valid:
        return [f"PLY declares {declared} and holds {lines} vertices, expected {valid}"]
    return []


def check_eval_json(report: dict, expected: dict) -> list[str]:
    """The eval JSON matches eval_metrics on the same files."""
    if set(report) != set(expected):
        return [f"eval JSON keys {sorted(report)} != {sorted(expected)}"]
    bad = [
        k
        for k, v in expected.items()
        if not abs(report[k] - v) <= EVAL_REL_TOL * max(abs(v), 1e-12)
    ]
    return [f"eval JSON differs from eval_metrics in {bad}"] if bad else []
