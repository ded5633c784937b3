"""Segmentation-weighted depth fusion and background-label derivation.

The fused depth is the convex blend ``d_back * p + d_coarse * (1 - p)``
with the background-segmentation probability as the weight; labels are the
binary indicator of the depth residual falling strictly below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bgdepth import DepthMap, _GridMap, _row_bands, require_same_grid
from .equirect import _real

DEFAULT_SEG_GAMMA = 0.1  # meters


@dataclass(frozen=True)
class SegMap(_GridMap):
    """H x W background probabilities (or binary labels) in [0, 1]."""

    _noun = "segmentation"
    _range = (0, 1)


def fuse_depth(coarse: DepthMap, background: DepthMap, seg: SegMap) -> DepthMap:
    """Blend coarse and background depth with the segmentation weight.

    Invalid pixels fall back to whichever input is valid; 0 when neither is.
    """
    grid = require_same_grid(coarse, background, seg)
    out = np.empty(grid.shape)
    for rows in _row_bands(grid):
        c = coarse.values[rows]
        b = background.values[rows]
        p = seg.values[rows]
        o = out[rows]
        np.multiply(b, p, out=o)
        rest = 1.0 - p
        rest *= c
        o += rest
        c_missing = c == 0
        np.copyto(o, b, where=c_missing)
        b_missing = b == 0
        if b_missing.any():  # a background map rarely has holes
            np.copyto(o, c, where=b_missing)
            # +0.0 even where an input holds -0.0
            c_missing &= b_missing
            np.copyto(o, 0.0, where=c_missing)
    return DepthMap._own(grid, out)


def derive_seg_labels(
    gt: DepthMap, background: DepthMap, gamma: float = DEFAULT_SEG_GAMMA
) -> SegMap:
    """Binary background labels: 1 where |d_gt - d_back| < gamma (strict).

    Pixels with invalid ground truth are labeled 0.
    """
    gamma = _real("gamma", gamma, 0, ends="(]")
    grid = require_same_grid(gt, background)
    out = np.empty(grid.shape)
    for rows in _row_bands(grid):
        g = gt.values[rows]
        residual = g - background.values[rows]
        np.abs(residual, out=residual)
        close = residual < gamma
        close &= g > 0
        out[rows] = close
    return SegMap._own(grid, out)
