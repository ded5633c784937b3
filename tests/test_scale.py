"""Exact scale equivariance: a room, its boxes and its camera heights scaled
by a power of two leave every angle unchanged, and every product and
quotient of the shell formulas scales exactly. So each stage's output
scales by the same power of two, bit for bit, on whatever SIMD path numpy
takes: both sides of each comparison run on the same host.

A stage holds the relation only while no absolute threshold decides a
pixel differently at two scales. Three thresholds are in metres:

* ``synth._MASK_EPS`` (1e-6 m): a pixel is background when a box lies at
  most this far in front of the shell;
* ``denoise._MARGIN`` (1e-9 m): how far on its own side of ``slack`` a
  bound must decide a pixel; the exact distance decides the rest, so the
  output does not depend on it;
* synth's 1e-9 m wall clearance, used only while scenes are generated.

No pixel of the scenes below lies near ``_MASK_EPS``, which the test
asserts rather than assumes.
"""

import math

import numpy as np
import pytest

from panoroom import (
    GridSpec,
    ManhattanRoom,
    NoiseSpec,
    SceneConfig,
    SceneSpec,
    corrupt_depth,
    denoise_depth,
    derive_seg_labels,
    eval_metrics,
    fuse_depth,
    generate_scene,
    render_scene,
    resolve_background_depth,
    resolve_camera_heights,
    room_to_layout,
)
from panoroom import synth
from panoroom.equirect import _real
from panoroom.fusion import DEFAULT_SEG_GAMMA

GRID = GridSpec(width=128, height=64)
SCALES = [2.0**k for k in (-2, -1, 1, 2, 3)]
NOISE = NoiseSpec(salt_frac=0.05, outlier_frac=0.1, outlier_offset=2.0, seed=3)
SLACK = 1.0


def scaled(scene: SceneSpec, s: float) -> SceneSpec:
    room = scene.room
    return SceneSpec(
        room=ManhattanRoom(s * room.vertices, s * room.cam_to_floor, s * room.cam_to_ceil),
        boxes=s * scene.boxes,
        seed=scene.seed,
    )


def stages(scene: SceneSpec, s: float) -> dict:
    """Every stage's output for ``scene`` with the metre-valued parameters
    (noise offset, gamma, slack) scaled by ``s``."""
    depth, shell, mask = render_scene(scene, GRID)
    layout = room_to_layout(scene.room, GRID)
    noise = NoiseSpec(NOISE.salt_frac, NOISE.outlier_frac, s * NOISE.outlier_offset, NOISE.seed)
    coarse = corrupt_depth(depth, noise)
    heights = resolve_camera_heights(layout, coarse, GRID)
    bg = resolve_background_depth(layout, heights, GRID)
    return {
        "depth": depth.values,
        "shell": shell.values,
        "mask": mask.values,
        "layout": (layout.ceil_rows, layout.floor_rows, layout.corner_prob),
        "coarse": coarse.values,
        "heights": (heights.up, heights.down),
        "bg": bg.values,
        "fused": fuse_depth(coarse, bg, mask).values,
        "labels": derive_seg_labels(depth, bg, gamma=s * DEFAULT_SEG_GAMMA).values,
        "denoised": denoise_depth(coarse, bg, scene.room, GRID, slack=s * SLACK).values,
        "metrics": eval_metrics(coarse, depth, mask),
    }


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("plan", ["rect", "lshape"])
@pytest.mark.parametrize("seed", range(10))
def test_every_stage_scales_exactly(seed, plan):
    scene = generate_scene(seed, SceneConfig(plan=plan))
    base = stages(scene, 1.0)
    # a pixel whose box lies between _MASK_EPS / 8 and 4 * _MASK_EPS in front
    # of the shell would change its mask at one of the scales
    gap = base["shell"] - base["depth"]
    assert not np.any((synth._MASK_EPS / 8 <= gap) & (gap <= 4 * synth._MASK_EPS))
    for s in SCALES:
        out = stages(scaled(scene, s), s)
        for name in ("depth", "shell", "coarse", "bg", "fused", "denoised", "heights"):
            assert same_bits(out[name], s * np.asarray(base[name])), (name, s)
        for name in ("mask", "labels", "layout"):
            assert same_bits(out[name], base[name]), (name, s)
        m, m0 = out["metrics"], base["metrics"]
        for name in ("abs_rel", "delta1", "delta2", "delta3"):
            assert same_bits(getattr(m, name), getattr(m0, name)), (name, s)
        for name in ("rmse", "mae", "sq_rel"):
            assert same_bits(getattr(m, name), s * getattr(m0, name)), (name, s)


VALUES = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 2.0**-1074 * 3, math.inf, -math.inf]


@pytest.mark.parametrize("v", VALUES + [np.float64(v) for v in VALUES] + [np.float32(1 / 3)])
def test_real_changes_no_bit(v):
    assert same_bits(_real("v", v, -math.inf, math.inf, "[]"), np.float64(v))


@pytest.mark.parametrize(
    "v",
    [0, -7, 2**53 + 1, 2**1023, np.int64(-(2**62) - 1), np.uint64(2**64 - 1)],
    ids=["zero", "negative", "2**53+1", "2**1023", "int64", "uint64-max"],
)
def test_real_rounds_an_integer_as_float_does(v):
    assert same_bits(_real("v", v), float(v))
