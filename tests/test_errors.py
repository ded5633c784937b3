"""Every library check raises a ``PanoroomError`` whose ``code`` names the
cause, so that no caller has to tell failures apart by message."""

import math

import numpy as np
import pytest

from panoroom import (
    CameraHeights,
    DepthMap,
    FocalParams,
    GridSpec,
    LossWeights,
    NoiseSpec,
    SceneConfig,
    SceneSpec,
    extract_corners,
    resolve_background_depth,
    resolve_camera_heights,
    room_to_layout,
    total_loss,
)
from panoroom.errors import PanoroomError
from panoroom.formats import write_pfm

from conftest import make_scene

GRID = GridSpec(width=16, height=8)
SCENE = make_scene(0)
LAYOUT = room_to_layout(SCENE.room, GRID)
COARSE = DepthMap(grid=GRID, values=np.ones(GRID.shape))
HEIGHTS = CameraHeights(up=1.0, down=1.5)


@pytest.mark.parametrize(
    "call, code",
    [
        (lambda: FocalParams(alpha=0.0), "value-range"),
        (lambda: FocalParams(eta=-1.0), "value-range"),
        (lambda: LossWeights(lambda2=-1.0), "value-range"),
        (lambda: total_loss(1.0, math.nan, 1.0), "value-range"),
        (lambda: resolve_camera_heights(LAYOUT, COARSE, GRID, aggregator="max"), "value-range"),
        (lambda: resolve_camera_heights(LAYOUT, COARSE, GRID, aggregator=7), "value-range"),
        (lambda: resolve_camera_heights(LAYOUT, COARSE, GRID, aggregator=10**6), "value-range"),
        (lambda: resolve_camera_heights(LAYOUT, COARSE, GRID, aggregator=["median"]),
         "value-range"),
        (lambda: resolve_background_depth(LAYOUT, HEIGHTS, GRID, mode="approx"), "value-range"),
        (lambda: extract_corners(LAYOUT, nms_window=0), "value-range"),
        (lambda: SceneSpec(room=SCENE.room, boxes=[0, 0, 0, 1, -1, 1], seed=0), "value-range"),
        (lambda: NoiseSpec(salt_frac=1.5), "value-range"),
        (lambda: NoiseSpec(salt_frac=0.6, outlier_frac=0.6), "value-range"),
        (lambda: NoiseSpec(outlier_offset=0.0), "value-range"),
        (lambda: SceneConfig(plan="round"), "value-range"),
        (lambda: write_pfm(np.ones((2, 4, 1)), "unwritten.pfm"), "shape-mismatch"),
    ],
    ids=["focal-alpha", "focal-eta", "loss-weight", "loss-term", "aggregator",
         "aggregator-column", "aggregator-huge", "aggregator-list", "mode", "nms-window",
         "box-extent", "noise-fraction", "noise-sum", "noise-offset", "plan", "pfm-3d"],
)
def test_library_errors_carry_a_code(call, code):
    with pytest.raises(PanoroomError) as info:
        call()
    assert info.value.code == code
    assert isinstance(info.value, ValueError)
